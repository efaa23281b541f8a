//! The skip-list dictionary (paper §4.1).
//!
//! "We can implement a lock-free skip list \[24\] as a collection of k
//! sorted singly-linked lists, such that higher level lists contain a
//! subset of the cells in lower level lists. As in \[23\], insertions and
//! deletions are performed one level at a time, insertions starting with
//! the bottom level and working up, and deletions starting at the top and
//! working down."
//!
//! Cells are *towers* shared by every level they belong to (the "subset of
//! the cells" phrasing): core [`Node`]s with `MAX_LEVELS` levels of links.
//! Each level is an independent Valois list — with its own per-level
//! auxiliary nodes and back links — run by the core [`Cursor`] over the
//! towers' level-`lvl` links. The two dummy cells are shared across all
//! levels. This module holds only the tower logic: the descent, bottom-up
//! linking, top-down deletion and the orphan-tower sweep.
//!
//! Membership is defined by the bottom list: a key is in the dictionary
//! iff its cell is in level 0. Upper levels are an index; a cell removed
//! at level 0 but still visible above (an in-flight top-down deletion or a
//! stalled bottom-up insertion) only costs extra hops, never correctness.

use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use valois_sync::shim::atomic::{fence, AtomicU64, Ordering};

use valois_core::{Cursor, List, ListStats, Node, NodeKind, RefCount};
use valois_mem::{AllocError, ArenaConfig, MemStats};

use crate::traits::Dictionary;

/// Number of levels. With promotion probability 1/2 this comfortably
/// indexes ~10⁵–10⁶ items (the paper chooses k = Θ(log N)).
pub const MAX_LEVELS: usize = 12;

// A max-level tower reports 2 * MAX_LEVELS counted links (next + back_link
// per level) when reclaimed; `ReclaimedLinks` hard-caps at
// `valois_mem::MAX_LINKS` and panics past it, so raising MAX_LEVELS without
// raising the cap must fail at compile time, not at the first reclaimed
// max tower in production.
const _: () = assert!(
    2 * MAX_LEVELS <= valois_mem::MAX_LINKS,
    "a max-level tower's drained links must fit in ReclaimedLinks"
);

/// A skip-list node: a tower cell (key/value + one list membership per
/// level), a per-level auxiliary node (uses `next[0]` only), or a shared
/// dummy.
type Tower<K, V> = Node<(K, V), MAX_LEVELS>;

/// The skip list's k levels: one core `List` whose nodes carry
/// `MAX_LEVELS` levels of links, the towers shared by every level.
type Levels<K, V> = List<(K, V), RefCount, MAX_LEVELS>;

/// The core cursor on one level of [`Levels`].
type SkipCursor<'a, K, V> = Cursor<'a, (K, V), RefCount, MAX_LEVELS>;

/// Counted per-level predecessors from one descent, indexed by level
/// (slot 0 stays null): where bottom-up linking and the remover's orphan
/// sweep start each level.
type Saved<K, V> = [*mut Tower<K, V>; MAX_LEVELS];

/// Orders a tower's entry against the sought key.
fn by_key<K: Ord, V>(key: &K) -> impl Fn(&(K, V)) -> CmpOrdering + Copy + '_ {
    move |entry| entry.0.cmp(key)
}

/// A non-blocking skip-list dictionary (paper §4.1).
///
/// # Example
///
/// ```
/// use valois_dict::{Dictionary, SkipListDict};
///
/// let d: SkipListDict<u64, u64> = SkipListDict::new();
/// for k in 0..100 {
///     d.insert(k, k);
/// }
/// assert!(d.contains(&42));
/// assert!(d.remove(&42));
/// assert!(!d.contains(&42));
/// ```
pub struct SkipListDict<K: Send + Sync, V: Send + Sync> {
    levels: Levels<K, V>,
    rng_state: AtomicU64,
}

impl<K, V> SkipListDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    /// Creates an empty skip list with the default arena configuration.
    pub fn new() -> Self {
        Self::with_config(ArenaConfig::default())
    }

    /// Creates an empty skip list with `config`.
    pub fn with_config(config: ArenaConfig) -> Self {
        Self {
            levels: List::with_config(config),
            rng_state: AtomicU64::new(0x853c_49e6_748f_ea9b),
        }
    }

    /// Geometric tower height in 1..=MAX_LEVELS (p = 1/2), from a lock-free
    /// splitmix64 stream.
    fn random_level(&self) -> usize {
        let mut z = self
            .rng_state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z.trailing_ones() as usize) + 1).min(MAX_LEVELS)
    }

    /// Descends from the top level to level 1 with one cursor, running
    /// `step` on each level, and returns that cursor moved down to level
    /// 0 (the caller runs its own level-0 step).
    ///
    /// Each level starts at the level above's `pre_cell` — a cell (or the
    /// first dummy) with key below the step's key that, by the subset
    /// property, is also a member of every lower level — so
    /// [`Cursor::lower`] keeps it as the anchor. With `saved`, each level
    /// `lvl` ≥ 1 also leaves one count of its `pre_cell` in `saved[lvl]`
    /// (released by [`release_saved`](Self::release_saved)).
    fn descend(
        &self,
        mut saved: Option<&mut Saved<K, V>>,
        mut step: impl FnMut(&mut SkipCursor<'_, K, V>),
    ) -> SkipCursor<'_, K, V> {
        let mut c = self.levels.level_cursor(MAX_LEVELS - 1);
        for lvl in (1..MAX_LEVELS).rev() {
            step(&mut c);
            if let Some(s) = saved.as_deref_mut() {
                let p = c.pre_cell_ptr();
                // SAFETY: the cursor protects its `pre_cell`.
                // COUNT: one count per saved level, released by
                // `release_saved`.
                unsafe { self.levels.arena().incr_ref(p) };
                s[lvl] = p;
            }
            // SAFETY: the search stopped before its key at `lvl`, so the
            // anchor is the first dummy or a tower spanning `lvl` — and
            // therefore `lvl - 1`.
            unsafe { c.lower() };
        }
        c
    }

    /// Releases the counts [`descend`](Self::descend) handed to `saved`.
    ///
    /// # Safety
    ///
    /// Every non-null slot must carry a count on this arena.
    unsafe fn release_saved(&self, saved: &Saved<K, V>) {
        for &p in saved {
            self.levels.arena().release(p);
        }
    }

    /// Inserts with an explicit tower height instead of a random one.
    ///
    /// This is a test hook: the shim/loom models need deterministic tower
    /// heights to pin the insert-vs-remove interleaving (`random_level`
    /// draws from a thread-local stream the scheduler cannot replay).
    /// `height` is clamped to `1..=MAX_LEVELS`.
    ///
    /// # Errors
    ///
    /// As [`Dictionary::try_insert`]: [`AllocError`] when the pool is
    /// capped and stays exhausted after one shed and retry.
    #[doc(hidden)]
    pub fn insert_with_height(&self, key: K, value: V, height: usize) -> Result<bool, AllocError> {
        let height = height.clamp(1, MAX_LEVELS);
        match self.insert_attempt(key, value, height) {
            Ok(won) => Ok(won),
            Err((key, value)) => {
                // The failed attempt released its cursor and saved
                // predecessors, so the shed can recycle what they held.
                self.levels.shed_memory();
                self.insert_attempt(key, value, height)
                    .map_err(|_| AllocError)
            }
        }
    }

    /// One insert attempt. `Err` hands the key and value back when the
    /// pool cannot supply the cell and its level-0 aux node: nothing is
    /// linked then, and the attempt's cursor and saved predecessors are
    /// already released.
    fn insert_attempt(&self, key: K, value: V, height: usize) -> Result<bool, (K, V)> {
        let arena = self.levels.arena();
        let mut saved: Saved<K, V> = [std::ptr::null_mut(); MAX_LEVELS];
        let mut c = self.descend(Some(&mut saved), |c| {
            c.find_from(by_key(&key));
        });
        let present = c.find_from(by_key(&key));
        let mut pair = [std::ptr::null_mut(); 2];
        // SAFETY: protocol invariants as documented on each helper; the
        // tower and aux nodes are fresh and counted by their allocation
        // references until linked.
        unsafe {
            if present || arena.alloc_all(&mut pair).is_err() {
                drop(c);
                self.release_saved(&saved);
                valois_trace::probe!(DictInsert, 0u64, 0u64);
                return if present {
                    Ok(false)
                } else {
                    Err((key, value))
                };
            }
            // Initialize the tower cell.
            let [cell, aux0] = pair;
            (*cell).set_height(height);
            (*cell).init_value((key, value));
            // The cell owns the key now.
            let key = &(*cell).item().0;
            // Level 0: the membership-defining insertion (Fig. 12).
            (*aux0).set_kind(NodeKind::Aux);
            if !c.link_unique(cell, aux0, |a, b| a.0.cmp(&b.0)) {
                // A concurrent insert of the same key won: roll back.
                drop(c);
                self.release_saved(&saved);
                arena.release(cell); // drains key/value + aux0 link
                arena.release(aux0);
                valois_trace::probe!(DictInsert, 0u64, 0u64);
                return Ok(false);
            }
            // The list links count the aux now; the cell's allocation
            // reference is dropped at the end, after the upper levels.
            arena.release(aux0);
            valois_trace::probe!(TowerLink, cell as usize, 0u64);
            // Upper levels, bottom-up ("insertions starting with the bottom
            // level and working up"), each from the descent's own saved
            // predecessor.
            #[allow(clippy::needless_range_loop)] // saved is indexed by level
            'levels: for lvl in 1..height {
                c.reopen(lvl, saved[lvl]);
                // The item is a member already; an exhausted pool only
                // ends its tower early, as a concurrent delete does.
                let aux = match arena.alloc() {
                    Ok(aux) => aux,
                    Err(_) => break 'levels,
                };
                (*aux).set_kind(NodeKind::Aux);
                // WAIT-FREE: lock-free, not wait-free — each failed link
                // CAS means another operation changed this level's chain
                // (system-wide progress), as in Fig. 12.
                loop {
                    // Don't extend a tower whose cell was already removed
                    // at level 0 by a concurrent delete.
                    if !(*cell).back_link(0).read().is_null() {
                        arena.release(aux);
                        break 'levels;
                    }
                    if c.find_from(by_key(key)) {
                        // Our own cell (already linked — we are the only
                        // linker, so this is harmless) or a lingering
                        // deleted cell with the same key to step past.
                        if c.target_ptr() == cell || !c.next() {
                            arena.release(aux);
                            break;
                        }
                        continue;
                    }
                    if c.try_link(cell, aux) {
                        arena.release(aux);
                        valois_trace::probe!(TowerLink, cell as usize, lvl);
                        break;
                    }
                    // INVARIANT: I10
                    c.resume();
                }
                // If the cell was removed while we linked this level, undo
                // our own link (the remover may have already passed lvl).
                //
                // ORDER: SeqCst fence between the level-`lvl` link CAS
                // above and the `back_link[0]` read below — pairs with the
                // remover's fence in `sweep_orphan_tower`. In the SC total
                // order one fence precedes the other, so either the read
                // below observes the level-0 deletion (we undo our link
                // here), or the remover's sweep observes our link (it
                // unlinks `cell` at this level). Without the fences both
                // sides can miss the other's store and the level-`lvl`
                // entry is orphaned. See docs/PROTOCOL.md, "The
                // orphan-tower race".
                // INVARIANT: I9 (fence pairing) — partner is the sweep
                // fence in `sweep_orphan_tower`; preserves I8.
                fence(Ordering::SeqCst);
                if !(*cell).back_link(0).read().is_null() {
                    // INVARIANT: I10
                    c.resume();
                    if self.unlink_tower(&mut c, cell) {
                        valois_trace::probe!(TowerUndo, cell as usize, lvl);
                    }
                    break 'levels;
                }
            }
            drop(c);
            // Hand the allocation reference over (the level-0 list counts
            // the cell now).
            arena.release(cell);
            self.release_saved(&saved);
            valois_trace::probe!(DictInsert, cell as usize, 1u64);
            Ok(true)
        }
    }

    fn remove_impl(&self, key: &K) -> bool {
        // Top-down: delete from every level where the key appears (Fig.
        // 13 per level); the level-0 deletion decides the return value.
        let mut saved: Saved<K, V> = [std::ptr::null_mut(); MAX_LEVELS];
        let mut c = self.descend(Some(&mut saved), |c| {
            c.find_and_delete(by_key(key));
        });
        let removed = c.find_and_delete(by_key(key));
        // SAFETY: after a winning delete the cursor still visits (and
        // protects) the deleted tower; `saved` holds this descent's counts.
        unsafe {
            if removed {
                // The membership-defining deletion won. Sweep the upper
                // levels again: a racing bottom-up inserter may have
                // linked (or may yet link) this cell above after our
                // top-down pass went by.
                self.sweep_orphan_tower(&mut c, &saved);
            }
            drop(c);
            self.release_saved(&saved);
        }
        valois_trace::probe!(DictRemove, removed as u64);
        removed
    }

    /// Post-delete sweep: after the cursor `c` won the level-0
    /// (membership) deletion of the tower it visits, unlink that tower
    /// from every upper level it may still occupy.
    ///
    /// The top-down pass already cleaned the levels where the tower was
    /// visible *before* it reached level 0 — but a concurrent bottom-up
    /// inserter can link it into an upper level after the pass went by
    /// (its `back_link[0]` checks raced the level-0 deletion). The
    /// inserter self-undoes when its post-link check observes the
    /// deletion; this sweep covers the complementary interleaving where
    /// that check fired first and observed nothing. The paired SeqCst
    /// fences (here and at the inserter's post-link check) guarantee at
    /// least one of the two mechanisms sees the other side's store — see
    /// docs/PROTOCOL.md, "The orphan-tower race".
    ///
    /// Each level's sweep reopens the cursor at the pass's own level-`lvl`
    /// predecessor `saved[lvl]`, not at the head, so a remove stays
    /// O(log n).
    ///
    /// # Safety
    ///
    /// `c` must visit the tower its level-0 `try_delete` just deleted
    /// (so its `back_link[0]` is set), and `saved` must hold the remover's
    /// counted per-level predecessors from [`descend`](Self::descend).
    unsafe fn sweep_orphan_tower(&self, c: &mut SkipCursor<'_, K, V>, saved: &Saved<K, V>) {
        let d = c.target_ptr();
        // ORDER: SeqCst fence after the level-0 `back_link[0]` write (in
        // `try_delete`) and before the upper-level reads below — the
        // remover half of the pairing described above.
        // INVARIANT: I9 (fence pairing) — partner is the inserter's
        // post-link fence in `insert`; preserves I8.
        fence(Ordering::SeqCst);
        let height = (*d).height();
        if height == 1 {
            return;
        }
        let arena = self.levels.arena();
        // COUNT: the cursor moves off `d` below; this count keeps the
        // dying tower alive until the sweep is done.
        arena.incr_ref(d);
        for (lvl, &from) in saved.iter().enumerate().take(height).skip(1) {
            c.reopen(lvl, from);
            if self.unlink_tower(c, d) {
                valois_trace::probe!(TowerSweep, d as usize, lvl);
            }
        }
        arena.release(d);
    }

    /// Unlinks tower `d` from the cursor's level, searching forward from
    /// the cursor's (revalidated) position, which must be before `d`.
    /// Matching is by pointer identity, not key: a newer tower reusing
    /// the same key must survive. Returns true iff this call's
    /// `try_delete` won.
    ///
    /// # Safety
    ///
    /// `d` must be a counted reference to a tower cell spanning the
    /// cursor's level.
    // GUARD: d — caller holds a count on the dying tower across the call.
    unsafe fn unlink_tower(&self, c: &mut SkipCursor<'_, K, V>, d: *mut Tower<K, V>) -> bool {
        let key = &(*d).item().0;
        // WAIT-FREE: each failed `try_delete` means another actor changed
        // this level's chain around `d` (system-wide progress), and at
        // most two actors ever target `d` here (its inserter's self-undo
        // and its remover's sweep) — once either side's unlink wins,
        // `find_from` stops seeing `d` and the loop exits, so retries
        // are bounded, not contended.
        loop {
            if !c.find_from(by_key(key)) {
                return false;
            }
            if c.target_ptr() != d {
                // A different (newer) same-key tower; step past it.
                if !c.next() {
                    return false;
                }
                continue;
            }
            if c.try_delete() {
                return true;
            }
            // Lost the unlink race at this level; re-examine.
            // INVARIANT: I10
            c.resume();
        }
    }

    fn find_impl<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        let mut c = self.descend(None, |c| {
            c.find_from(by_key(key));
        });
        if c.find_from(by_key(key)) {
            c.get().map(|(_, v)| f(v))
        } else {
            None
        }
    }

    /// Runs `f` on the value stored under `key`, without cloning.
    pub fn with_value<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.find_impl(key, f)
    }

    /// Keys currently present (level-0 scan), in sorted order.
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        self.level_keys(0)
    }

    /// Visits every entry with key in `[lo, hi)`, in key order, using the
    /// skip structure to reach `lo` in O(log n).
    pub fn for_each_range(&self, lo: &K, hi: &K, mut f: impl FnMut(&K, &V)) {
        let mut c = self.descend(None, |c| {
            c.find_from(by_key(lo));
        });
        c.find_from(by_key(lo));
        while !c.is_at_end() {
            if let Some((k, v)) = c.get() {
                if k >= hi {
                    break;
                }
                if k >= lo {
                    f(k, v);
                }
            }
            if !c.next() {
                break;
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

    /// Total CAS retries across operations (the §4.1 O(p log n) extra-work
    /// measure — experiment E5): failed link and unlink attempts plus
    /// `TryDelete` chain-cleanup retries, summed over every level's
    /// [`ListStats`].
    pub fn retry_count(&self) -> u64 {
        let s = self.list_stats();
        s.insert_retries() + s.delete_retries() + s.chain_cleanup_retries
    }

    /// List-operation counters summed over every level (cursor hops,
    /// auxiliary-node skips, back-link resumes, `TryInsert`/`TryDelete`
    /// attempts).
    pub fn list_stats(&self) -> ListStats {
        self.levels.stats()
    }

    /// Memory-protocol counters (§5 traffic).
    pub fn mem_stats(&self) -> MemStats {
        self.levels.mem_stats()
    }

    /// Quiescent invariant check (testing hook): every level a
    /// well-formed §3 chain ([`List::check_structure`]) and strictly
    /// sorted, and every upper-level key present at level 0.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check_invariants(&mut self) -> Result<(), String>
    where
        K: Clone,
    {
        for lvl in 0..MAX_LEVELS {
            self.levels
                .check_structure(lvl)
                .map_err(|e| format!("level {lvl}: {e}"))?;
        }
        let keys0 = self.keys();
        if keys0.windows(2).any(|w| w[0] >= w[1]) {
            return Err("level 0 keys not strictly sorted".into());
        }
        for lvl in 1..MAX_LEVELS {
            let keys = self.level_keys(lvl);
            if keys.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("level {lvl} keys not strictly sorted"));
            }
            for k in &keys {
                if keys0.binary_search(k).is_err() {
                    return Err(format!("level {lvl} contains key missing from level 0"));
                }
            }
        }
        Ok(())
    }

    /// Quiescent reference-count audit over every level's links
    /// ([`List::audit_refcounts`]): each node's count must equal its
    /// in-degree over all `next[lvl]`/`back_link[lvl]` links plus the
    /// two roots.
    ///
    /// # Errors
    ///
    /// Describes the first mismatching node.
    pub fn audit_refcounts(&mut self) -> Result<(), String> {
        self.levels.audit_refcounts()
    }

    fn level_keys(&self, lvl: usize) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        let mut c = self.levels.level_cursor(lvl);
        while !c.is_at_end() {
            if let Some((k, _)) = c.get() {
                out.push(k.clone());
            }
            if !c.next() {
                break;
            }
        }
        out
    }
}

impl<K, V> Default for SkipListDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Dictionary<K, V> for SkipListDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        self.insert_with_height(key, value, self.random_level())
    }

    fn remove(&self, key: &K) -> bool {
        self.remove_impl(key)
    }

    fn find(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.find_impl(key, V::clone)
    }

    fn contains(&self, key: &K) -> bool {
        self.find_impl(key, |_| ()).is_some()
    }

    fn len(&self) -> usize {
        self.levels.len()
    }
}

impl<K, V> fmt::Debug for SkipListDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipListDict")
            .field("len", &self.len())
            .field("retries", &self.retry_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let d: SkipListDict<u64, u64> = SkipListDict::new();
        for k in 0..200 {
            assert!(d.insert(k, k * 3), "insert {k}");
        }
        for k in 0..200 {
            assert_eq!(d.find(&k), Some(k * 3), "find {k}");
        }
        assert_eq!(d.len(), 200);
        for k in (0..200).step_by(2) {
            assert!(d.remove(&k), "remove {k}");
        }
        assert_eq!(d.len(), 100);
        for k in 0..200 {
            assert_eq!(d.contains(&k), k % 2 == 1);
        }
    }

    #[test]
    fn duplicates_rejected() {
        let d: SkipListDict<u32, &str> = SkipListDict::new();
        assert!(d.insert(1, "a"));
        assert!(!d.insert(1, "b"));
        assert_eq!(d.find(&1), Some("a"));
    }

    #[test]
    fn random_order_stays_sorted() {
        let mut d: SkipListDict<u32, ()> = SkipListDict::new();
        let keys = [17u32, 3, 99, 42, 8, 64, 1, 55, 23, 77];
        for &k in &keys {
            d.insert(k, ());
        }
        let mut expected: Vec<u32> = keys.to_vec();
        expected.sort_unstable();
        assert_eq!(d.keys(), expected);
        d.check_invariants().unwrap();
    }

    #[test]
    fn remove_absent_returns_false() {
        let d: SkipListDict<u32, u32> = SkipListDict::new();
        d.insert(5, 5);
        assert!(!d.remove(&4));
        assert!(d.remove(&5));
        assert!(!d.remove(&5));
    }

    #[test]
    fn reinsert_after_remove() {
        let mut d: SkipListDict<u32, u32> = SkipListDict::new();
        for round in 0..20 {
            assert!(d.insert(7, round), "round {round}");
            assert_eq!(d.find(&7), Some(round));
            assert!(d.remove(&7), "round {round}");
            assert_eq!(d.find(&7), None);
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn level_distribution_is_geometric() {
        let d: SkipListDict<u32, ()> = SkipListDict::new();
        let mut heights = [0usize; MAX_LEVELS + 1];
        for _ in 0..10_000 {
            heights[d.random_level()] += 1;
        }
        assert!(
            heights[1] > 4_000 && heights[1] < 6_000,
            "h=1: {}",
            heights[1]
        );
        assert!(
            heights[2] > 1_900 && heights[2] < 3_100,
            "h=2: {}",
            heights[2]
        );
        assert_eq!(heights[0], 0);
    }

    #[test]
    fn large_volume_roundtrip() {
        let mut d: SkipListDict<u32, u32> = SkipListDict::new();
        let n = 3_000u32;
        // Insert in an order that exercises all positions.
        for k in (0..n).map(|i| (i * 7919) % n) {
            d.insert(k, k);
        }
        assert_eq!(d.len() as u32, n, "modular stride visits every residue");
        for k in 0..n {
            assert_eq!(d.find(&k), Some(k));
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn range_uses_skip_descent() {
        let d: SkipListDict<u32, u32> = SkipListDict::new();
        for k in 0..500 {
            d.insert(k * 2, k);
        }
        let r = d.range(&100, &120);
        assert_eq!(
            r,
            vec![
                (100, 50),
                (102, 51),
                (104, 52),
                (106, 53),
                (108, 54),
                (110, 55),
                (112, 56),
                (114, 57),
                (116, 58),
                (118, 59)
            ]
        );
        assert!(d.range(&1001, &1001).is_empty());
        assert!(d.range(&2000, &1000).is_empty(), "inverted range empty");
    }

    #[test]
    fn memory_returns_to_empty_skeleton() {
        // After arbitrary churn and a full drain, the only live nodes are
        // the two dummies and one aux per level: every tower cell and
        // per-level aux was reclaimed through the free list.
        let mut d: SkipListDict<u32, u32> = SkipListDict::new();
        let mut x = 0xBADC0FFEu64;
        for _ in 0..3_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 64) as u32;
            if x & 2 == 0 {
                d.insert(k, k);
            } else {
                d.remove(&k);
            }
        }
        for k in 0..64 {
            d.remove(&k);
        }
        assert_eq!(d.len(), 0);
        assert_eq!(
            d.mem_stats().live_nodes(),
            2 + MAX_LEVELS as u64,
            "empty skeleton only: 2 dummies + one aux per level"
        );
        d.check_invariants().unwrap();
    }

    #[test]
    fn max_tower_drain_fits_reclaimed_links_cap() {
        // A full-height tower is the worst case for `Release`'s link drain:
        // 2 * MAX_LEVELS counted links from one node. `ReclaimedLinks`
        // panics past `valois_mem::MAX_LINKS`, so this must fit with room
        // to spare — silently relying on towers never reaching max height
        // would turn a rare geometric draw into a production abort.
        use valois_mem::Managed;
        let node: Tower<u32, u32> = Node::default();
        let sink: Tower<u32, u32> = Node::default();
        let target = &sink as *const _ as *mut Tower<u32, u32>;
        for l in node.links() {
            l.write(target);
        }
        let links = node.drain_links();
        assert_eq!(links.len(), 2 * MAX_LEVELS);
        assert!(links.len() <= valois_mem::MAX_LINKS);
        assert!(links.iter().all(|p| p == target));
    }

    #[test]
    fn drop_releases_all_values() {
        use valois_sync::shim::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let d: SkipListDict<u32, Probe> = SkipListDict::new();
            for k in 0..50 {
                d.insert(k, Probe);
            }
            for k in 0..10 {
                d.remove(&k);
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 50);
    }
}
