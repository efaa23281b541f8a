//! The sorted-list dictionary (paper §4.1, Figs. 11–13).
//!
//! Items are kept sorted by key in a single Valois list, which makes key
//! uniqueness checkable during the positioning scan: `FindFrom` (Fig. 11,
//! [`Cursor::find_from`]) stops at the first cell with key ≥ k, leaving
//! the cursor exactly where a new cell must be inserted. The §4.1
//! amortized analysis (each completed operation forces at most p−1
//! retries on others; total work O(n²) for n operations by p processes)
//! is measurable through
//! [`SortedListDict::list_stats`] — experiment E3.

use std::fmt;

use valois_core::{
    AllocError, ArenaConfig, Cursor, List, ListStats, MemStats, Reclaimer, RefCount,
};

use crate::cursor_cache::CursorCache;
use crate::traits::Dictionary;

/// A key–value item stored in a list cell.
///
/// The paper's cells carry a `key` field plus application data (§2.1,
/// §4.1); `Entry` is exactly that pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<K, V> {
    /// The unique key.
    pub key: K,
    /// The associated value.
    pub value: V,
}

/// A non-blocking dictionary as a single sorted lock-free list
/// (paper §4.1).
///
/// The last type parameter selects the arena's reclamation backend
/// (see [`List`]'s "Reclamation backends" section): the paper's
/// counted protocol by default, or `valois_core::Epoch` for uncounted
/// traversal under epoch protection:
///
/// ```
/// use valois_dict::{Dictionary, SortedListDict};
/// use valois_core::Epoch;
///
/// let d: SortedListDict<u64, u64, Epoch> = SortedListDict::new();
/// d.insert(1, 10);
/// assert_eq!(d.find(&1), Some(10));
/// ```
///
/// # Example
///
/// ```
/// use valois_dict::{Dictionary, SortedListDict};
///
/// let d: SortedListDict<u64, u64> = SortedListDict::new();
/// for k in [5, 1, 3] {
///     d.insert(k, k * 10);
/// }
/// assert_eq!(d.keys(), vec![1, 3, 5], "kept sorted");
/// ```
pub struct SortedListDict<K: Send + Sync, V: Send + Sync, R: Reclaimer = RefCount> {
    list: List<Entry<K, V>, R>,
    cache: CursorCache<Entry<K, V>>,
    cached: bool,
}

impl<K, V, R> SortedListDict<K, V, R>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
    R: Reclaimer,
{
    /// Creates an empty dictionary with the default arena configuration.
    pub fn new() -> Self {
        Self::with_config(ArenaConfig::default())
    }

    /// Creates an empty dictionary with a specific arena configuration
    /// (e.g. the paper's fixed-pool model via
    /// [`ArenaConfig::max_nodes`]).
    pub fn with_config(config: ArenaConfig) -> Self {
        Self::with_config_cached(config, true)
    }

    /// [`SortedListDict::with_config`] with cursor caching switched off
    /// — every operation then positions from the list head,
    /// the paper's literal Figs. 12–13 (and the restart-from-head
    /// baseline of `BENCH_retry.json`).
    pub fn with_config_cached(config: ArenaConfig, cached: bool) -> Self {
        Self {
            list: List::with_config(config),
            cache: CursorCache::new(),
            cached,
        }
    }

    /// A cursor positioned to search for `key`: the nearest usable
    /// cached position of any thread (anchor key strictly below `key` —
    /// an equal-key anchor could sit *at* the sought cell and make the
    /// forward scan skip it), repaired when its anchor was dead, or the
    /// list head when no slot is usable.
    fn cursor_for<Q>(&self, key: &Q) -> Cursor<'_, Entry<K, V>, R>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if self.cached {
            let usable = |e: &Entry<K, V>| e.key.borrow() < key;
            if let Some(cursor) = self
                .cache
                .open(&self.list, usable, |a, b| a.key.cmp(&b.key))
            {
                return cursor;
            }
        }
        self.list.cursor()
    }

    /// Remembers `cursor`'s neighbourhood in the cache slot at the
    /// cache's rotation position, for the next operations of any thread.
    fn save_position(&self, cursor: &Cursor<'_, Entry<K, V>, R>) {
        if self.cached {
            self.cache.save(&self.list, cursor);
        }
    }

    /// The paper's `Delete` (Fig. 13) via [`Cursor::find_and_delete`],
    /// positioned like `try_insert`.
    fn remove_impl(&self, key: &K) -> bool {
        let mut cursor = self.cursor_for(key); // Fig. 13 line 1
        let hit = cursor.find_and_delete(|e| e.key.cmp(key));
        self.save_position(&cursor);
        hit
    }

    /// Runs `f` on the value stored under `key`, without cloning.
    pub fn with_value<O>(&self, key: &K, f: impl FnOnce(&V) -> O) -> Option<O> {
        let mut cursor = self.cursor_for(key);
        let out = if cursor.find_from(|e| e.key.cmp(key)) {
            cursor.get().map(|e| f(&e.value))
        } else {
            None
        };
        self.save_position(&cursor);
        out
    }

    /// The keys currently present, in sorted order.
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        self.list.for_each(|e| out.push(e.key.clone()));
        out
    }

    /// Visits every entry with key in `[lo, hi)`, in key order — the range
    /// query sorted structures exist for. A linearizable traversal in the
    /// list's sense: each step is atomic, the sequence reflects the list
    /// as it evolves.
    pub fn for_each_range(&self, lo: &K, hi: &K, mut f: impl FnMut(&K, &V)) {
        let mut cursor = self.cursor_for(lo);
        // Position at the first key >= lo (FindFrom's stop condition).
        let _ = cursor.find_from(|e| e.key.cmp(lo));
        loop {
            match cursor.get() {
                Some(entry) if entry.key < *hi => {
                    if entry.key >= *lo {
                        f(&entry.key, &entry.value);
                    }
                    if !cursor.next() {
                        return;
                    }
                }
                _ => return,
            }
        }
    }

    /// Collects the `(key, value)` pairs with key in `[lo, hi)`.
    pub fn range(&self, lo: &K, hi: &K) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::new();
        self.for_each_range(lo, hi, |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// Operation counters of the underlying list (§4.1 "extra work").
    pub fn list_stats(&self) -> ListStats {
        self.list.stats()
    }

    /// Memory-protocol counters of the underlying arena (§5 traffic).
    pub fn mem_stats(&self) -> MemStats {
        self.list.mem_stats()
    }

    /// Structural invariant check at quiescence (testing hook): list
    /// well-formed *and* keys strictly sorted.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check_invariants(&mut self) -> Result<(), String>
    where
        K: Clone,
    {
        self.list.check_structure(0)?;
        let keys = self.keys();
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err("keys not strictly sorted".into());
        }
        Ok(())
    }

    /// Exact reference-count audit at quiescence (testing hook): every
    /// cached-cursor slot legitimately holds one count on its anchor, so
    /// the slots are declared to the sweep (see
    /// [`List::audit_refcounts_with_entries`]).
    ///
    /// # Errors
    ///
    /// Describes the first mismatching node.
    pub fn audit_refcounts(&mut self) -> Result<(), String> {
        let Self { list, cache, .. } = self;
        list.audit_refcounts_with_entries(cache.roots())
    }

    /// Direct read-only access to the underlying list (for experiments
    /// that inspect auxiliary-node structure, e.g. E7).
    pub fn as_list(&self) -> &List<Entry<K, V>, R> {
        &self.list
    }
}

impl<K, V, R> Default for SortedListDict<K, V, R>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
    R: Reclaimer,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Send + Sync, V: Send + Sync, R: Reclaimer> Drop for SortedListDict<K, V, R> {
    fn drop(&mut self) {
        // Return the cached-cursor counts before the list's own teardown
        // cascade (an unretired slot would leak its anchor's count — see
        // the EntryRoot contract).
        self.cache.retire_all(&self.list);
    }
}

impl<K, V, R> Dictionary<K, V> for SortedListDict<K, V, R>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
    R: Reclaimer,
{
    /// The paper's `Insert` (Fig. 12): `Ok(true)` when this call linked
    /// the new cell, `Ok(false)` when `key` was already present.
    ///
    /// Two departures from the figure: positioning starts from the
    /// nearest cached cursor instead of the head, and a failed CAS
    /// retries inside [`Cursor::insert_unique`] via [`Cursor::resume`]
    /// (back_link-guided, O(distance-to-conflict)) instead of `Update`
    /// alone.
    ///
    /// # Errors
    ///
    /// [`AllocError`] when the pool is capped and no node is free even
    /// after shedding the anchors the cursor cache pins and the arena's
    /// reclaimable memory ([`List::shed_memory`]).
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        // Fig. 12 line 1. The first positioning scan runs before paying
        // for allocation.
        let mut cursor = self.cursor_for(&key);
        if cursor.find_from(|e| e.key.cmp(&key)) {
            self.save_position(&cursor);
            return Ok(false); // Fig. 12 lines 6-7
        }
        // Fig. 12 lines 2-4: allocate and initialize the new cell + aux.
        let prepared = match self.list.try_prepare_insert(Entry { key, value }) {
            Ok(prepared) => prepared,
            Err((entry, _)) => {
                // Capped arena ran dry. Cached anchors pin cells (and
                // their back_link chains); drop this cursor's own holds,
                // shed the anchors and the arena's reclaimable memory,
                // and retry once before declaring exhaustion.
                drop(cursor);
                self.cache.retire_all(&self.list);
                self.list.shed_memory();
                cursor = self.list.cursor();
                if cursor.find_from(|e| e.key.cmp(&entry.key)) {
                    return Ok(false);
                }
                self.list.prepare_insert(entry)?
            }
        };
        // Fig. 12 lines 8-12.
        let won = cursor.insert_unique(prepared, |e, new| e.key.cmp(&new.key));
        self.save_position(&cursor);
        Ok(won)
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
        let mut cursor = self.cursor_for(key);
        let hit = cursor.find_from(|e| e.key.cmp(key));
        self.save_position(&cursor);
        hit
    }

    fn len(&self) -> usize {
        self.list.len()
    }
}

impl<K, V, R> fmt::Debug for SortedListDict<K, V, R>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
    R: Reclaimer,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SortedListDict")
            .field("len", &self.len())
            .finish()
    }
}

impl<K, V, R> FromIterator<(K, V)> for SortedListDict<K, V, R>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
    R: Reclaimer,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let dict = Self::new();
        for (k, v) in iter {
            dict.insert(k, v);
        }
        dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_find_remove_roundtrip() {
        let d: SortedListDict<u32, u32> = SortedListDict::new();
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
    fn duplicate_keys_rejected() {
        let d: SortedListDict<u32, &str> = SortedListDict::new();
        assert!(d.insert(7, "first"));
        assert!(!d.insert(7, "second"));
        assert_eq!(d.find(&7), Some("first"));
    }

    #[test]
    fn keys_stay_sorted_regardless_of_insert_order() {
        let mut d: SortedListDict<i64, ()> = SortedListDict::new();
        for k in [5, -3, 9, 0, 2, -7, 1] {
            d.insert(k, ());
        }
        assert_eq!(d.keys(), vec![-7, -3, 0, 1, 2, 5, 9]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn with_value_avoids_clone() {
        let d: SortedListDict<u32, Vec<u8>> = SortedListDict::new();
        d.insert(1, vec![1, 2, 3]);
        assert_eq!(d.with_value(&1, |v| v.len()), Some(3));
        assert_eq!(d.with_value(&9, |v| v.len()), None);
    }

    #[test]
    fn contains_matches_find() {
        let d: SortedListDict<u32, u32> = SortedListDict::new();
        d.insert(4, 44);
        assert!(d.contains(&4));
        assert!(!d.contains(&5));
    }

    #[test]
    fn from_iterator_dedupes() {
        let d: SortedListDict<u32, u32> = [(1, 1), (2, 2), (1, 99)].into_iter().collect();
        assert_eq!(d.len(), 2);
        assert_eq!(d.find(&1), Some(1), "first insert wins");
    }

    #[test]
    fn range_queries_respect_bounds() {
        let d: SortedListDict<u32, u32> = SortedListDict::new();
        for k in (0..50).step_by(5) {
            d.insert(k, k * 10);
        }
        assert_eq!(
            d.range(&10, &30),
            vec![(10, 100), (15, 150), (20, 200), (25, 250)]
        );
        assert_eq!(d.range(&0, &1), vec![(0, 0)]);
        assert_eq!(d.range(&46, &100), Vec::<(u32, u32)>::new());
        assert_eq!(d.range(&7, &8), Vec::<(u32, u32)>::new(), "gap range");
        // Degenerate and inverted ranges are empty.
        assert_eq!(d.range(&10, &10), Vec::<(u32, u32)>::new());
        assert_eq!(d.range(&30, &10), Vec::<(u32, u32)>::new());
    }

    #[test]
    fn range_during_concurrent_churn_is_safe() {
        let d: SortedListDict<u64, u64> = SortedListDict::new();
        for k in 0..128 {
            d.insert(k * 2, k);
        }
        std::thread::scope(|s| {
            let d = &d;
            s.spawn(move || {
                for i in 0..2_000u64 {
                    let k = (i * 7) % 256;
                    if i % 2 == 0 {
                        d.insert(k, i);
                    } else {
                        d.remove(&k);
                    }
                }
            });
            s.spawn(move || {
                for _ in 0..200 {
                    let mut last = None;
                    d.for_each_range(&32, &96, |k, _| {
                        // Keys must appear in order and inside bounds.
                        assert!((32..96).contains(k));
                        if let Some(prev) = last {
                            assert!(*k > prev, "out-of-order range visit");
                        }
                        last = Some(*k);
                    });
                }
            });
        });
    }

    #[test]
    fn cached_cursors_cut_positioning_hops() {
        // Hot tail of a long list: every op lands past a 512-cell prefix.
        // Restart-from-head pays ~n next-steps per op; the cached cursor
        // reopens next to the previous op and pays O(1).
        let run = |cached: bool| -> u64 {
            let d: SortedListDict<u64, u64> =
                SortedListDict::with_config_cached(ArenaConfig::default(), cached);
            for k in 0..512 {
                d.insert(k, k);
            }
            let before = d.list_stats();
            let ops = 64;
            for _ in 0..ops {
                d.insert(1_000, 0);
                d.remove(&1_000);
            }
            let delta = d.list_stats().since(&before);
            delta.next_steps / (2 * ops)
        };
        let (head_hops, cached_hops) = (run(false), run(true));
        assert!(
            head_hops >= 512,
            "restart-from-head must pay the full prefix, got {head_hops} hops/op"
        );
        assert!(
            cached_hops * 10 < head_hops,
            "cached cursors must cut hops-per-op by >10x: {cached_hops} vs {head_hops}"
        );
    }

    #[test]
    fn cached_dict_audits_clean() {
        // The cache slots' counts are declared to the audit; anchors may
        // be deleted cells (pinned by the slot) and still balance.
        let mut d: SortedListDict<u64, u64> = SortedListDict::new();
        for k in 0..64 {
            d.insert(k, k);
        }
        for k in (0..64).step_by(2) {
            // Leaves cached anchors pointing at deleted cells'
            // neighbourhoods half the time.
            d.remove(&k);
        }
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    /// Runs `f` to completion on a spawned thread, which then exits.
    fn on_exiting_thread(f: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            s.spawn(f);
        });
    }

    /// The keys of the cells the cache slots anchor at, sorted.
    fn slot_keys(d: &SortedListDict<u64, u64>) -> Vec<u64> {
        let mut keys: Vec<u64> = d
            .cache
            .anchors()
            .filter_map(|root| d.list.with_entry(root, |e| e.key))
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn find_starts_at_another_threads_anchor() {
        // A search starts at the nearest usable position *any* thread
        // cached. Another thread's anchor sits just below 905 while this
        // thread's usable one sits near 10, so the find walks a handful
        // of cells instead of the ~900 a search from its own anchor would.
        let d: SortedListDict<u64, u64> = SortedListDict::new();
        for k in 0..1024 {
            d.insert(k, k);
        }
        assert_eq!(d.find(&10), Some(10)); // this thread's anchor: cell 9
        on_exiting_thread(|| assert_eq!(d.find(&900), Some(900)));
        let before = d.list_stats().next_steps;
        assert_eq!(d.find(&905), Some(905));
        let steps = d.list_stats().next_steps - before;
        assert!(
            steps <= 16,
            "find(905) took {steps} next steps; the other thread's anchor at 899 allows at most 16"
        );
    }

    /// Fills `d` with keys `0..64` and fits the cache to that length, so
    /// the rotation's period `k` is known however this thread's samples
    /// fall; no test list grows past 64 cells, so `k` stays put.
    fn fill_64_and_fit(d: &SortedListDict<u64, u64>) -> usize {
        for k in 0..64 {
            d.insert(k, k);
        }
        d.cache.fit(64);
        let k = crate::cursor_cache::slots_for(64);
        assert!(k > 1, "the tests need a rotation of several slots");
        k
    }

    #[test]
    fn dead_anchor_of_exited_thread_is_repaired() {
        // An exited thread's anchor stays in its slot until an open picks
        // it or later saves overwrite it. When that anchor and its
        // predecessors are deleted, the slot pins them (and their
        // back_link chain) until an open picks the slot, back-walks, and
        // swings it to the live cell it landed on.
        let mut d: SortedListDict<u64, u64> = SortedListDict::new();
        let k = fill_64_and_fit(&d);
        // `k` saves point every slot in use at cell 0; the exited helper
        // then re-points one of them at cell 40.
        for _ in 0..k {
            assert_eq!(d.find(&1), Some(1));
        }
        on_exiting_thread(|| assert_eq!(d.find(&41), Some(41)));
        assert_eq!(slot_keys(&d), [vec![0; k - 1], vec![40]].concat());
        let baseline = d.mem_stats().live_nodes();
        // Delete and re-insert 38..=40 without saving positions, so the
        // helper's slot is the only one that names a dead cell.
        d.cached = false;
        for k in [40, 39, 38] {
            assert!(d.remove(&k));
        }
        for k in [38, 39, 40] {
            assert!(d.insert(k, k));
        }
        d.cached = true;
        assert!(
            d.mem_stats().live_nodes() > baseline,
            "the dead anchor and its back_link chain stay pinned until repaired"
        );
        d.audit_refcounts().unwrap();
        // The dead anchor (40) is the nearest usable one for 45: the open
        // resumes from it to cell 37 and swings the slot there. Opening
        // without a save leaves every other slot as it was.
        let before = d.list_stats();
        drop(d.cursor_for(&45));
        let delta = d.list_stats().since(&before);
        assert_eq!(delta.resumes, 1, "the open started at the dead anchor");
        assert_eq!(
            slot_keys(&d),
            [vec![0; k - 1], vec![37]].concat(),
            "the slot was swung to the live cell the open landed on"
        );
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
        assert_eq!(
            d.mem_stats().live_nodes(),
            baseline,
            "the repaired slot no longer pins the deleted cells"
        );
    }

    #[test]
    fn dead_anchors_no_search_can_use_are_overwritten() {
        // A skewed stream fills the slots with anchors in one region.
        // Once those cells are deleted, no search for a key below the
        // region finds them usable, so no open repairs them; the next
        // `k` saves of any one thread overwrite every slot instead.
        let mut d: SortedListDict<u64, u64> = SortedListDict::new();
        let k = fill_64_and_fit(&d);
        on_exiting_thread(|| {
            for i in 0..64 {
                let k = 41 + i % 8;
                assert_eq!(d.find(&k), Some(k));
            }
        });
        let baseline = d.mem_stats().live_nodes();
        // Delete the anchored cells and put their keys back as new cells,
        // without saving positions.
        d.cached = false;
        for k in (40..48).rev() {
            assert!(d.remove(&k));
        }
        for k in 40..48 {
            assert!(d.insert(k, k));
        }
        d.cached = true;
        assert!(
            d.mem_stats().live_nodes() > baseline,
            "the slots pin the deleted anchors"
        );
        for key in 1..=k as u64 {
            assert_eq!(d.find(&key), Some(key));
        }
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
        assert_eq!(
            d.mem_stats().live_nodes(),
            baseline,
            "no slot pins a dead cell after k saves"
        );
        assert_eq!(slot_keys(&d), (0..k as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn opens_take_one_counted_read_whatever_the_slots_hold() {
        // The probe reads slot anchors without counting, so an open takes
        // one counted reference, on the anchor it picks, plus the two
        // SafeReads that position the cursor there (the anchor's
        // auxiliary node and the next cell): three counts, released when
        // the cursor drops, whether the `k` slots name one anchor or `k`
        // distinct ones.
        let d: SortedListDict<u64, u64> = SortedListDict::new();
        let k = fill_64_and_fit(&d);
        let open_counts = |d: &SortedListDict<u64, u64>| {
            let before = d.mem_stats();
            drop(d.cursor_for(&60));
            let delta = d.mem_stats().since(&before);
            (delta.safe_reads, delta.releases)
        };
        for _ in 0..k {
            assert_eq!(d.find(&1), Some(1));
        }
        assert_eq!(slot_keys(&d), vec![0; k]);
        assert_eq!(open_counts(&d), (2, 3), "{k} copies of one anchor");
        for i in 0..k as u64 {
            assert_eq!(d.find(&(2 * i + 1)), Some(2 * i + 1));
        }
        let distinct: Vec<u64> = (0..k as u64).map(|i| 2 * i).collect();
        assert_eq!(slot_keys(&d), distinct);
        assert_eq!(open_counts(&d), (2, 3), "{k} distinct anchors");
    }

    #[test]
    fn each_cache_keeps_its_own_rotation() {
        // A thread that interleaves saves over several dictionaries must
        // still write every slot of each: the rotation belongs to the
        // cache, not to the thread. (One rotation per thread advanced
        // once per dictionary per round, so with three dictionaries and
        // k = 9 each cache only ever saw every third position.)
        let dicts: [SortedListDict<u64, u64>; 3] = std::array::from_fn(|_| SortedListDict::new());
        let k = dicts.iter().map(fill_64_and_fit).max().unwrap();
        for round in 0..100u64 {
            for d in &dicts {
                let key = round % 50 + 1;
                assert_eq!(d.find(&key), Some(key));
            }
        }
        // The last `k` rounds found 42..=50, each saving its cell's
        // predecessor, so every slot holds one of 41..=49.
        for d in &dicts {
            assert_eq!(slot_keys(d), (50 - k as u64..50).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn a_stalled_probe_pin_bounds_slot_counts_until_it_unpins() {
        // A probe pinned across churn (a stalled prober) keeps every count
        // displaced from a slot after its pin: a slot then holds its
        // anchor and one displaced count, and later saves to it skip, so
        // the slots' counts stop growing after the first round. Once the
        // pin ends, the next write to each slot releases its displaced
        // count and the garbage those counts held drains.
        let mut d: SortedListDict<u64, u64> = SortedListDict::new();
        let k = fill_64_and_fit(&d);
        let baseline = d.mem_stats().live_nodes();
        let held =
            |d: &SortedListDict<u64, u64>| d.cache.roots().filter(|r| r.is_published()).count();
        let pin = d.list.arena().epoch_domain().pin_guard();
        let mut per_round = Vec::new();
        for _ in 0..8 {
            for key in 0..64 {
                assert!(d.remove(&key));
                assert!(d.insert(key, key));
            }
            per_round.push(held(&d));
        }
        assert_eq!(
            per_round,
            vec![2 * k; 8],
            "every slot holds its anchor and one displaced count, and no more"
        );
        assert!(
            d.mem_stats().live_nodes() > baseline,
            "the counts pin dead cells"
        );
        drop(pin);
        d.audit_refcounts().unwrap();
        for key in 1..=k as u64 {
            assert_eq!(d.find(&key), Some(key));
        }
        assert_eq!(
            held(&d),
            k,
            "the first write to each slot after the unpin drained it"
        );
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
        assert_eq!(d.mem_stats().live_nodes(), baseline);
    }

    #[test]
    fn empty_dict_behaviour() {
        let d: SortedListDict<u32, u32> = SortedListDict::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert!(!d.remove(&1));
        assert_eq!(d.find(&1), None);
    }
}
