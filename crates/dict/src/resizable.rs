//! A dynamically resizable lock-free hash table: split-ordered buckets
//! over a single §3 Valois list.
//!
//! The §4.2 [`HashDict`](crate::HashDict) fixes its bucket count at
//! construction; outgrow it and every bucket degenerates to an O(n)
//! scan. `ResizableHashDict` removes the cap with the *split-ordered
//! list* construction (Shalev & Shavit): **all** items live in one
//! Valois list, sorted by the bit-reversal of their hash, and buckets
//! are merely shortcut entry points ([`EntryRoot`]s) into that list.
//!
//! Bit-reversing the hash is what makes growth free. With `2s` buckets,
//! bucket `b` and bucket `b + s` partition the keys that bucket `b`
//! held with `s` buckets — and in bit-reversed order the items of
//! `b + s` already form a contiguous run *inside* `b`'s run. Doubling
//! the bucket count therefore never moves an item: it only introduces a
//! finer sentinel (a shortcut cell) at a split point that already
//! exists in the list order. Find/Insert/Delete remain plain §4.1
//! sorted-list operations that start from an interior cell instead of
//! `First`, so they stay lock-free through a resize.
//!
//! * Order keys: a bucket sentinel for `b` orders at `reverse(b)` with
//!   bit 0 clear; an item with hash `h` orders at `reverse(h) | 1` —
//!   after reversal the low bit distinguishes sentinels (0) from items
//!   (1), so a bucket's sentinel sorts strictly before the bucket's
//!   items and strictly after every item of the preceding bucket.
//! * Bucket directory: an append-only two-level
//!   [`SegmentTable`] (the §5 type-stable premise — segments are added,
//!   never unmapped), so a published `&EntryRoot` never moves while the
//!   table doubles around it.
//! * Lazy initialization: bucket `b`'s sentinel is inserted on first
//!   touch by searching from the sentinel of `b`'s *parent* bucket
//!   (`b` with its highest set bit cleared — always already coarser),
//!   then published into the directory with a counted CAS
//!   ([`List::publish_entry`]); racing initializers insert at the same
//!   list position (so at most one sentinel lands — the §4.1
//!   uniqueness argument) and at most one publication wins, the
//!   loser's count released by the failed swing.
//! * Size: the item count is `Fetch&Add`-published (§2.1 footnote 1);
//!   when it crosses `LOAD_FACTOR ×` the bucket count, one CAS doubles
//!   the bucket count. A thread still hashing with the old size is
//!   harmless: a coarser bucket's sentinel always precedes its finer
//!   split in list order, so the traversal just starts a little
//!   earlier.
//!
//! Sentinels are never deleted, which is precisely the guarantee
//! [`EntryRoot`] asks of its owner.

use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};

use valois_core::{
    AllocError, ArenaConfig, Cursor, EntryRoot, List, ListStats, MemStats, Reclaimer, RefCount,
    HINT_ROUND,
};
use valois_mem::SegmentTable;
use valois_sync::shim::atomic::{AtomicU64, Ordering};
use valois_sync::shim::hint::prefetch_read;

use crate::traits::Dictionary;

/// Items per bucket (on average) beyond which the bucket count doubles.
const LOAD_FACTOR: u64 = 3;

/// Hard ceiling on the bucket count (the directory's capacity).
const MAX_BUCKETS: u64 = 1 << 20;

/// Links [`ResizableHashDict::count_present`]'s hint pass follows past a
/// bucket's sentinel: the sentinel's aux node, then a cell+aux pair for
/// each item a lookup passes in a bucket of about `LOAD_FACTOR` items
/// (half of them on average, plus the one it stops at).
const HINT_HOPS: usize = 1 + 2 * (LOAD_FACTOR as usize / 2 + 1);

/// One cell of the split-ordered list: a bucket sentinel (`key: None`)
/// or a data item (`key: Some`). Sorted by `(so, sentinel-before-item,
/// key)` — see `cmp_item`. Public only as the item type of
/// [`ResizableHashDict::as_list`]; its fields are an implementation
/// detail.
#[derive(Debug)]
pub struct SplitItem<K, V> {
    /// The split-order key: `reverse(bucket)` for sentinels,
    /// `reverse(hash) | 1` for items.
    so: u64,
    /// `None` marks a bucket sentinel.
    key: Option<K>,
    /// `None` for sentinels; `Some` for items.
    value: Option<V>,
}

/// Split-order key of bucket `b`'s sentinel.
fn sentinel_order(bucket: u64) -> u64 {
    bucket.reverse_bits()
}

/// Split-order key of an item with hash `h`.
fn data_order(hash: u64) -> u64 {
    hash.reverse_bits() | 1
}

/// Parent bucket in the recursive-split order: `b` with its highest set
/// bit cleared. Its sentinel always precedes `b`'s in the list (clearing
/// the bit can only lower the bit-reversed value).
fn parent_bucket(bucket: u64) -> u64 {
    debug_assert!(bucket > 0);
    bucket & !(1u64 << (63 - bucket.leading_zeros()))
}

/// Total order over list positions: split-order key first, then
/// sentinel-before-item, then the logical key (two distinct keys may
/// share a hash and thus a split-order key).
fn cmp_item<K: Ord>(item_so: u64, item_key: Option<&K>, so: u64, key: Option<&K>) -> CmpOrdering {
    item_so.cmp(&so).then_with(|| match (item_key, key) {
        (None, None) => CmpOrdering::Equal,
        (None, Some(_)) => CmpOrdering::Less,
        (Some(_), None) => CmpOrdering::Greater,
        (Some(a), Some(b)) => a.cmp(b),
    })
}

impl<K: Ord, V> SplitItem<K, V> {
    /// This item's position relative to `(so, key)` under `cmp_item`:
    /// the comparator every `FindFrom` over split order uses.
    fn cmp_to(&self, so: u64, key: Option<&K>) -> CmpOrdering {
        cmp_item(self.so, self.key.as_ref(), so, key)
    }
}

/// A lock-free hash table that grows by splitting buckets, never by
/// moving items (split-ordered list over the §3 Valois list).
///
/// # Example
///
/// ```
/// use valois_dict::{Dictionary, ResizableHashDict};
///
/// let d: ResizableHashDict<u64, u64> = ResizableHashDict::with_initial_buckets(2);
/// for k in 0..100 {
///     d.insert(k, k * 10);
/// }
/// assert!(d.bucket_count() > 2, "grew under load");
/// assert_eq!(d.find(&42), Some(420));
/// ```
pub struct ResizableHashDict<
    K: Send + Sync,
    V: Send + Sync,
    S: BuildHasher = RandomState,
    R: Reclaimer = RefCount,
> {
    list: List<SplitItem<K, V>, R>,
    /// Bucket directory: slot `b` is bucket `b`'s shortcut root.
    buckets: SegmentTable<EntryRoot<SplitItem<K, V>>>,
    /// Current bucket count (a power of two; grows by CAS doubling).
    size: AtomicU64,
    /// Item count, `Fetch&Add`-published (§2.1 footnote 1).
    count: AtomicU64,
    /// Completed doublings (statistics).
    splits: AtomicU64,
    /// Sentinel publications performed by this table (statistics).
    bucket_inits: AtomicU64,
    hasher: S,
}

impl<K, V, R> ResizableHashDict<K, V, RandomState, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    R: Reclaimer,
{
    /// An empty table with the default initial bucket count.
    pub fn new() -> Self {
        Self::with_initial_buckets(8)
    }

    /// An empty table starting at `initial_buckets` (rounded up to a
    /// power of two; the conformance suite starts at 2 to force doublings).
    pub fn with_initial_buckets(initial_buckets: u64) -> Self {
        Self::with_settings(initial_buckets, RandomState::new(), ArenaConfig::default())
    }
}

impl<K, V, S, R> ResizableHashDict<K, V, S, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    S: BuildHasher + Send + Sync,
    R: Reclaimer,
{
    /// An empty table with an explicit hasher (deterministic hashers
    /// make bucket placement reproducible in tests).
    pub fn with_hasher(initial_buckets: u64, hasher: S) -> Self {
        Self::with_settings(initial_buckets, hasher, ArenaConfig::default())
    }

    /// An empty table with full control over the initial bucket count,
    /// hasher, and node-arena configuration.
    pub fn with_settings(initial_buckets: u64, hasher: S, config: ArenaConfig) -> Self {
        let initial = initial_buckets.clamp(1, MAX_BUCKETS).next_power_of_two();
        let dict = Self {
            list: List::with_config(config),
            buckets: SegmentTable::new(initial as usize, MAX_BUCKETS as usize),
            size: AtomicU64::new(initial),
            count: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            bucket_inits: AtomicU64::new(0),
            hasher,
        };
        // Bucket 0's sentinel (split-order key 0: the least position) is
        // the recursion root of every lazy initialization; install it
        // while construction is still single-threaded.
        let mut cursor = dict.list.cursor();
        let prepared = dict
            .list
            .prepare_insert(SplitItem {
                so: sentinel_order(0),
                key: None,
                value: None,
            })
            .expect("fresh arena cannot be exhausted");
        cursor
            .try_insert(prepared)
            .expect("single-threaded insert into an empty list cannot fail");
        cursor.update(); // the cursor now visits the sentinel
        let published = dict
            .list
            .publish_entry(dict.buckets.get_or_alloc(0), &cursor);
        debug_assert!(published, "no one can race construction");
        drop(cursor);
        dict
    }

    fn split_key(&self, key: &K) -> (u64, u64) {
        let hash = self.hasher.hash_one(key);
        (hash, data_order(hash))
    }

    /// A cursor positioned at (or just after) bucket `bucket`'s
    /// sentinel, initializing the bucket if this is its first touch.
    ///
    /// Never fails, even on an exhausted capped pool: a sentinel that
    /// cannot be allocated is *skipped* (see
    /// [`ResizableHashDict::init_bucket`]) — the returned cursor is
    /// positioned correctly either way.
    fn bucket_cursor(&self, bucket: u64) -> Cursor<'_, SplitItem<K, V>, R> {
        let root = self.buckets.get_or_alloc(bucket as usize);
        if let Some(cursor) = self.list.cursor_at(root) {
            return cursor;
        }
        self.init_bucket(bucket)
    }

    /// Lazy bucket initialization: insert (or find) the sentinel by
    /// searching from the parent bucket, then publish it. Any number of
    /// threads may race here; the list's same-position CAS ensures one
    /// sentinel, the root's publication CAS ensures one winner, and
    /// every loser's count is released (by `PreparedInsert`'s drop and
    /// the failed swing respectively).
    ///
    /// The search resumes from the parent bucket's root — recursively,
    /// each ancestor initializing from *its* parent — so a miss never
    /// degrades to a head-of-list scan. Bucket 0 is the recursion's base
    /// case: published at construction, its sentinel (split-order 0) is
    /// the list's least position, so the head cursor *is* its parent.
    ///
    /// A sentinel is a traversal *shortcut*, never a correctness
    /// requirement: after `find_from` the cursor already sits at the first
    /// position `>=` the sentinel's split order, which is exactly where
    /// any search inside this bucket must start. So when the sentinel
    /// allocation hits an exhausted capped pool, the initialization
    /// degrades instead of failing — the correctly positioned cursor is
    /// returned as-is and the bucket root stays unpublished, leaving a
    /// later (post-pressure) touch to retry the shortcut. This keeps
    /// `find`/`remove` total on a pool full of live nodes.
    fn init_bucket(&self, bucket: u64) -> Cursor<'_, SplitItem<K, V>, R> {
        let mut cursor = if bucket == 0 {
            self.list.cursor()
        } else {
            self.bucket_cursor(parent_bucket(bucket))
        };
        let so = sentinel_order(bucket);
        if !cursor.find_from(|item| item.cmp_to(so, None)) {
            let prepared = match self.list.try_prepare_insert(SplitItem {
                so,
                key: None,
                value: None,
            }) {
                Ok(prepared) => prepared,
                // Exhausted pool: degrade (see above) rather than shed
                // here — an in-window shed cannot drain garbage this
                // thread's own epoch pin still protects (I12).
                Err((_, AllocError)) => return cursor,
            };
            // A lost race leaves the cursor at the racing initializer's
            // sentinel and drops ours.
            if cursor.insert_unique(prepared, |item, new| item.cmp_to(new.so, new.key.as_ref())) {
                // Visit the sentinel we inserted. Revalidating alone can
                // land on an item of the parent bucket that a racing
                // insert linked just before it, and publishing that item
                // would make it this bucket's shortcut.
                cursor.update();
                let found = cursor.find_from(|item| item.cmp_to(so, None));
                debug_assert!(found, "sentinels are never deleted");
            }
        }
        let root = self.buckets.get_or_alloc(bucket as usize);
        if self.list.publish_entry(root, &cursor) {
            self.bucket_inits.fetch_add(1, Ordering::Relaxed);
        }
        cursor
    }

    /// Memory-pressure shed on the underlying list's arena (magazine
    /// flush + bounded epoch limbo drain). Returns nodes made
    /// allocatable. See [`List::shed_memory`].
    pub fn shed_memory(&self) -> usize {
        self.list.shed_memory()
    }

    /// One bounded insert attempt. `Err` hands the key/value back when
    /// the node pool is exhausted, with the attempt's cursor already
    /// dropped — no protection window (epoch pin) left open — so the
    /// caller can shed and retry.
    fn insert_attempt(&self, key: K, value: V) -> Result<bool, (K, V)> {
        let (hash, so) = self.split_key(&key);
        let size = self.size.load(Ordering::Acquire);
        let mut cursor = self.bucket_cursor(hash & (size - 1));
        if cursor.find_from(|item| item.cmp_to(so, Some(&key))) {
            return Ok(false);
        }
        let prepared = match self.list.try_prepare_insert(SplitItem {
            so,
            key: Some(key),
            value: Some(value),
        }) {
            Ok(prepared) => prepared,
            Err((item, _)) => {
                drop(cursor); // close the protection window before the shed
                return Err((
                    item.key.expect("data items carry their key"),
                    item.value.expect("data items carry their value"),
                ));
            }
        };
        // Pre-charge the item count *before* the linking CAS. A remover
        // can delete the freshly linked item (and decrement) before a
        // post-link increment would run, transiently underflowing the
        // counter; charging first keeps every decrement matched by an
        // earlier increment, so `count` never wraps below zero.
        self.count.fetch_add(1, Ordering::AcqRel);
        if !cursor.insert_unique(prepared, |item, new| item.cmp_to(new.so, new.key.as_ref())) {
            // Concurrent insert won with the same key: give back our own
            // pre-charge (matched, so this cannot underflow).
            self.count.fetch_sub(1, Ordering::AcqRel);
            return Ok(false);
        }
        drop(cursor);
        self.published_insert();
        Ok(true)
    }

    /// Runs the load-factor check after a successful (already counted)
    /// insertion and doubles the bucket count when it crosses
    /// [`LOAD_FACTOR`]. The doubling is a single CAS — no retry: losers'
    /// counts re-trigger the check on their own inserts, and a stale-size
    /// reader merely starts its traversal one sentinel earlier.
    fn published_insert(&self) {
        let count = self.count.load(Ordering::Acquire);
        let size = self.size.load(Ordering::Acquire);
        if count > size.saturating_mul(LOAD_FACTOR)
            && size < MAX_BUCKETS
            && self
                .size
                .compare_exchange(size, size * 2, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.splits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The paper's `Delete` (Fig. 13) over split order. Sentinels are
    /// never matched (their key slot is `None`), so only items die.
    fn remove_impl(&self, key: &K) -> bool {
        let (hash, so) = self.split_key(key);
        let size = self.size.load(Ordering::Acquire);
        let mut cursor = self.bucket_cursor(hash & (size - 1));
        if !cursor.find_and_delete(|item| item.cmp_to(so, Some(key))) {
            return false;
        }
        self.count.fetch_sub(1, Ordering::AcqRel);
        true
    }

    /// Runs `f` on the value stored under `key`, without cloning.
    pub fn with_value<O>(&self, key: &K, f: impl FnOnce(&V) -> O) -> Option<O> {
        let (hash, so) = self.split_key(key);
        let size = self.size.load(Ordering::Acquire);
        let mut cursor = self.bucket_cursor(hash & (size - 1));
        if cursor.find_from(|item| item.cmp_to(so, Some(key))) {
            cursor.get().and_then(|item| item.value.as_ref()).map(f)
        } else {
            None
        }
    }

    /// [`Dictionary::contains`] for a key whose hash is already known.
    fn contains_hashed(&self, key: &K, hash: u64) -> bool {
        let so = data_order(hash);
        let size = self.size.load(Ordering::Acquire);
        let mut cursor = self.bucket_cursor(hash & (size - 1));
        cursor.find_from(|item| item.cmp_to(so, Some(key)))
    }

    /// How many of `keys` are present: [`Dictionary::contains`] on each
    /// key, each an independent linearizable lookup, with a hint pass
    /// in front.
    ///
    /// The keys go in rounds of [`HINT_ROUND`]. Each round first hashes
    /// every key and prefetches its bucket's directory slot, then lets
    /// [`List::prefetch_entry`] prefetch each published sentinel and the
    /// five links past it that a lookup at the load factor of 3 passes on
    /// average (`HINT_HOPS`), stage by stage across the round. So
    /// the dependent cache misses of a cold lookup (directory slot,
    /// sentinel, then cell and aux node by turns) overlap across the
    /// round's keys instead of running back to back, and the lookups
    /// that follow find their lines warm. The hint pass never allocates
    /// a directory segment or initializes a bucket; only the lookups do.
    pub fn count_present(&self, keys: &[K]) -> usize {
        let mut present = 0;
        for round in keys.chunks(HINT_ROUND) {
            let size = self.size.load(Ordering::Acquire);
            let mut hashes = [0u64; HINT_ROUND];
            let mut roots = [None; HINT_ROUND];
            for ((key, hash), root) in round.iter().zip(&mut hashes).zip(&mut roots) {
                *hash = self.hasher.hash_one(key);
                *root = self.buckets.get((*hash & (size - 1)) as usize);
                if let Some(root) = root {
                    prefetch_read(*root);
                }
            }
            self.list.prefetch_entry(&roots[..round.len()], HINT_HOPS);
            present += round
                .iter()
                .zip(hashes)
                .filter(|&(key, hash)| self.contains_hashed(key, hash))
                .count();
        }
        present
    }

    /// The current bucket count (a power of two; grows, never shrinks).
    pub fn bucket_count(&self) -> u64 {
        self.size.load(Ordering::Acquire)
    }

    /// Completed bucket-count doublings since construction.
    pub fn doublings(&self) -> u64 {
        self.splits.load(Ordering::Relaxed)
    }

    /// Bucket sentinels published so far (lazily — touched buckets only).
    pub fn initialized_buckets(&self) -> u64 {
        // +1: bucket 0 is published at construction, outside the counter.
        self.bucket_inits.load(Ordering::Relaxed) + 1
    }

    /// The keys currently present, in split (bit-reversed hash) order.
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        self.list.for_each(|item| {
            if let Some(k) = &item.key {
                out.push(k.clone());
            }
        });
        out
    }

    /// Operation counters of the underlying list.
    pub fn list_stats(&self) -> ListStats {
        self.list.stats()
    }

    /// Memory-protocol counters of the underlying arena (§5 traffic).
    pub fn mem_stats(&self) -> MemStats {
        self.list.mem_stats()
    }

    /// Quiescent reference-count audit of the underlying list, with the
    /// published bucket roots' counts accounted for (testing hook; see
    /// [`List::audit_refcounts`]).
    ///
    /// # Errors
    ///
    /// Describes the first node whose count drifted.
    pub fn audit_refcounts(&mut self) -> Result<(), String> {
        let list = &mut self.list;
        let mut roots = Vec::new();
        self.buckets.for_each_allocated(|_, root| roots.push(root));
        list.audit_refcounts_with_entries(roots)
    }

    /// Extended structural invariant check at quiescence (testing hook):
    ///
    /// 1. the list is a well-formed §3 chain ([`List::check_structure`]);
    /// 2. split-order keys are **strictly** increasing along the list
    ///    (bit-reversed key order monotone; strictness doubles as the
    ///    no-duplicate-sentinel / no-duplicate-logical-key check);
    /// 3. every item's split-order key matches its key's hash, and the
    ///    low bit separates sentinels from items;
    /// 4. every published bucket shortcut points at a sentinel that is
    ///    reachable in the list walk, with the right split-order key,
    ///    and bucket 0 is published;
    /// 5. the `Fetch&Add` count equals the number of items in the list.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check_invariants(&mut self) -> Result<(), String>
    where
        K: Clone,
    {
        self.list.check_structure(0)?;
        // One unprotected walk (quiescent: &mut self) snapshots the chain.
        let mut walk: Vec<(u64, Option<K>)> = Vec::new();
        self.list
            .for_each_unprotected(|item| walk.push((item.so, item.key.clone())));
        for pair in walk.windows(2) {
            let (a_so, a_key) = &pair[0];
            let (b_so, b_key) = &pair[1];
            if cmp_item(*a_so, a_key.as_ref(), *b_so, b_key.as_ref()) != CmpOrdering::Less {
                return Err(format!(
                    "split order not strictly increasing: {a_so:#x} then {b_so:#x} \
                     (duplicate logical key or sentinel)"
                ));
            }
        }
        let mut items = 0u64;
        for (so, key) in &walk {
            match key {
                Some(k) => {
                    items += 1;
                    if so & 1 == 0 {
                        return Err(format!("item with sentinel-parity order key {so:#x}"));
                    }
                    if *so != data_order(self.hasher.hash_one(k)) {
                        return Err(format!("item order key {so:#x} does not match its hash"));
                    }
                }
                None => {
                    if so & 1 != 0 {
                        return Err(format!("sentinel with item-parity order key {so:#x}"));
                    }
                }
            }
        }
        let sentinels: std::collections::HashSet<u64> = walk
            .iter()
            .filter(|(_, k)| k.is_none())
            .map(|(so, _)| *so)
            .collect();
        let size = self.bucket_count();
        let mut bucket_err = None;
        self.buckets.for_each_allocated(|b, root| {
            if bucket_err.is_some() {
                return;
            }
            let b = b as u64;
            let Some(entry) = self
                .list
                .with_entry(root, |item| (item.so, item.key.is_none()))
            else {
                return; // unpublished slot — never touched
            };
            let (so, is_sentinel) = entry;
            if !is_sentinel {
                bucket_err = Some(format!("bucket {b} shortcut points at a non-sentinel"));
            } else if so != sentinel_order(b) {
                bucket_err = Some(format!(
                    "bucket {b} shortcut order key {so:#x}, expected {:#x}",
                    sentinel_order(b)
                ));
            } else if !sentinels.contains(&so) {
                bucket_err = Some(format!("bucket {b} sentinel unreachable from the list"));
            } else if b >= size {
                bucket_err = Some(format!(
                    "bucket {b} published beyond the bucket count {size}"
                ));
            }
        });
        if let Some(e) = bucket_err {
            return Err(e);
        }
        if !sentinels.contains(&sentinel_order(0)) {
            return Err("bucket 0 sentinel missing".into());
        }
        let count = self.count.load(Ordering::Acquire);
        if count != items {
            return Err(format!(
                "published count {count} != {items} items in the list"
            ));
        }
        Ok(())
    }

    /// Direct read-only access to the underlying list (experiments).
    pub fn as_list(&self) -> &List<SplitItem<K, V>, R> {
        &self.list
    }
}

impl<K, V, R> Default for ResizableHashDict<K, V, RandomState, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    R: Reclaimer,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S, R> Drop for ResizableHashDict<K, V, S, R>
where
    K: Send + Sync,
    V: Send + Sync,
    S: BuildHasher,
    R: Reclaimer,
{
    fn drop(&mut self) {
        // Retire every published shortcut so its count does not keep the
        // sentinel chain alive past the list's own root cascade.
        let list = &self.list;
        self.buckets
            .for_each_allocated(|_, root| list.retire_entry(root));
    }
}

impl<K, V, S, R> Dictionary<K, V> for ResizableHashDict<K, V, S, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    S: BuildHasher + Send + Sync,
    R: Reclaimer,
{
    /// The paper's `Insert` (Fig. 12) over split order, plus the
    /// `Fetch&Add` count publication and the load-factor check.
    ///
    /// Memory-pressure handling: on a capped, exhausted pool this
    /// *sheds* reclaimable memory and retries once before surfacing
    /// [`AllocError`].
    ///
    /// The shed runs with the failed attempt's cursor **dropped**, which
    /// is the whole point: under the epoch backend an in-operation
    /// allocation failure cannot drain garbage this operation's own
    /// window retired (the thread's pin holds the grace period open —
    /// I12), so the arena's internal pressure path comes up empty while
    /// limbo holds reclaimable nodes. Closing the window first lets
    /// [`List::shed_memory`]'s advance rounds age that garbage out; the
    /// retry then allocates from it. Service layers get the same
    /// behaviour per request without wiring any policy themselves.
    ///
    /// # Errors
    ///
    /// [`AllocError`] when the pool is capped and exhausted even after
    /// the shed — i.e. the memory is genuinely live (or held by a
    /// stalled reader: see the `epoch_pin_lag` gauge in
    /// [`ResizableHashDict::mem_stats`]).
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        match self.insert_attempt(key, value) {
            Ok(won) => Ok(won),
            Err((key, value)) => {
                self.shed_memory();
                self.insert_attempt(key, value).map_err(|_| AllocError)
            }
        }
    }

    fn remove(&self, key: &K) -> bool {
        self.remove_impl(key)
    }

    fn find(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.with_value(key, V::clone)
    }

    fn contains(&self, key: &K) -> bool {
        self.contains_hashed(key, self.hasher.hash_one(key))
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Acquire) as usize
    }
}

impl<K, V, S, R> fmt::Debug for ResizableHashDict<K, V, S, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    S: BuildHasher + Send + Sync,
    R: Reclaimer,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResizableHashDict")
            .field("len", &self.len())
            .field("buckets", &self.bucket_count())
            .field("doublings", &self.doublings())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pass-through hasher (`hash_one(k) == k` for u64) so bucket
    /// placement is deterministic.
    #[derive(Clone, Default)]
    struct IdentityBuild;

    struct IdentityHasher(u64);

    impl BuildHasher for IdentityBuild {
        type Hasher = IdentityHasher;
        fn build_hasher(&self) -> IdentityHasher {
            IdentityHasher(0)
        }
    }

    impl std::hash::Hasher for IdentityHasher {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for (i, b) in bytes.iter().enumerate().take(8) {
                self.0 |= u64::from(*b) << (8 * i);
            }
        }
        fn write_u64(&mut self, v: u64) {
            self.0 = v;
        }
    }

    fn identity_dict(buckets: u64) -> ResizableHashDict<u64, u64, IdentityBuild> {
        ResizableHashDict::with_hasher(buckets, IdentityBuild)
    }

    #[test]
    fn split_order_helpers() {
        assert_eq!(sentinel_order(0), 0);
        assert!(sentinel_order(1) > sentinel_order(0));
        // Parent sentinel always precedes the child's.
        for b in 1u64..64 {
            assert!(sentinel_order(parent_bucket(b)) < sentinel_order(b));
        }
        // Items order after their bucket's sentinel and before the next
        // split's (identity hash, 4 buckets: hash 5 lives in bucket 1).
        assert!(data_order(5) > sentinel_order(1));
        assert!(sentinel_order(1) & 1 == 0 && data_order(5) & 1 == 1);
    }

    #[test]
    fn insert_find_remove_roundtrip() {
        let d = identity_dict(2);
        assert!(d.insert(1, 10));
        assert!(d.insert(2, 20));
        assert_eq!(d.find(&1), Some(10));
        assert_eq!(d.find(&2), Some(20));
        assert_eq!(d.find(&3), None);
        assert!(d.remove(&1));
        assert!(!d.remove(&1));
        assert_eq!(d.find(&1), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn duplicate_keys_rejected_first_insert_wins() {
        let d = identity_dict(2);
        assert!(d.insert(7, 70));
        assert!(!d.insert(7, 71));
        assert_eq!(d.find(&7), Some(70));
    }

    #[test]
    fn grows_across_multiple_doublings_without_losing_keys() {
        let mut d = identity_dict(2);
        for k in 0..200u64 {
            assert!(d.insert(k, k * 2));
        }
        assert!(
            d.doublings() >= 3,
            "200 items over 2 initial buckets must double ≥ 3 times, saw {}",
            d.doublings()
        );
        assert!(d.bucket_count() >= 16);
        for k in 0..200u64 {
            assert_eq!(d.find(&k), Some(k * 2), "key {k} lost in growth");
        }
        assert_eq!(d.len(), 200);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn removal_works_through_and_after_growth() {
        let mut d = identity_dict(2);
        for k in 0..100u64 {
            d.insert(k, k);
        }
        for k in (0..100u64).step_by(2) {
            assert!(d.remove(&k));
        }
        assert_eq!(d.len(), 50);
        for k in 0..100u64 {
            assert_eq!(d.find(&k).is_some(), k % 2 == 1);
        }
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn stale_size_lookups_still_find_items() {
        // Simulate a reader using a coarser size: traversal from the
        // parent bucket's sentinel must still reach the item.
        let d = identity_dict(2);
        for k in 0..64u64 {
            d.insert(k, k + 1000);
        }
        assert!(d.bucket_count() > 2);
        // Keys that moved to finer buckets remain reachable via find
        // (which uses the *current* size) — and via a traversal from
        // bucket 1's coarse sentinel, which precedes them all.
        let mut cursor = d.bucket_cursor(1);
        let mut seen = 0;
        while !cursor.is_at_end() {
            if cursor.get().is_some_and(|i| i.key.is_some()) {
                seen += 1;
            }
            if !cursor.next() {
                break;
            }
        }
        assert_eq!(seen, 32, "all odd keys ordered after bucket 1's sentinel");
    }

    #[test]
    fn sentinels_are_invisible_to_the_dictionary_api() {
        let d = identity_dict(2);
        for k in 0..32u64 {
            d.insert(k, k);
        }
        assert_eq!(d.len(), 32);
        assert_eq!(d.keys().len(), 32);
        // Sentinels outnumber two initial buckets by now, but no key is
        // findable that was not inserted.
        for k in 32..64u64 {
            assert!(!d.contains(&k));
        }
    }

    #[test]
    fn default_hasher_table_behaves() {
        let mut d: ResizableHashDict<String, usize> = ResizableHashDict::with_initial_buckets(2);
        for i in 0..96usize {
            assert!(d.insert(format!("key-{i}"), i));
        }
        assert!(d.doublings() >= 3);
        for i in 0..96usize {
            assert_eq!(d.find(&format!("key-{i}")), Some(i));
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_inserts_agree_on_one_winner_per_key() {
        let d = std::sync::Arc::new(identity_dict(2));
        let wins = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..128u64 {
                        if d.insert(k, k) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 128);
        assert_eq!(d.len(), 128);
        let mut d = std::sync::Arc::try_unwrap(d).ok().unwrap();
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn smoke_resizable_tiny_churn() {
        // Miri-sized: small arena, few keys, still crosses one doubling.
        let mut d: ResizableHashDict<u64, u64, IdentityBuild> = ResizableHashDict::with_settings(
            2,
            IdentityBuild,
            ArenaConfig::default().initial_capacity(64),
        );
        for k in 0..10u64 {
            assert!(d.insert(k, k));
        }
        for k in (0..10u64).step_by(2) {
            assert!(d.remove(&k));
        }
        assert!(d.doublings() >= 1);
        assert_eq!(d.len(), 5);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }
}
