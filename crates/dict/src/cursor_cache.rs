//! Shared cached cursors (after Träff & Pöter, arXiv:2010.15755).
//!
//! Their `lsingly_cursor` observation: most operations on a sorted list
//! land near an earlier operation, so remembering recently visited
//! neighbourhoods converts the per-operation O(n) positioning scan into
//! O(distance-moved). Here a remembered position is a counted
//! [`CacheSlot`], re-pointed after every operation via
//! [`List::cache_entry`].
//!
//! The slots belong to no thread. Each save writes the slot at the
//! cache's own rotation position, advanced once per written save, so
//! the `k` slots in use hold the `k` most recent anchors of all threads,
//! and saves that interleave over several caches (the buckets of a hash
//! table) still cycle through every slot of each. Every open probes the
//! `k` slots ([`List::cursor_at_nearest`]) and starts at the nearest
//! usable anchor.
//!
//! The cost model. On uniform keys with `k` recent anchors the expected
//! walk is about n/(k + 2) cells at two counted reads per cell (the cell
//! and its auxiliary node). The probe counts nothing: inside a pin of
//! the arena's epoch domain it plain-loads each slot and compares that
//! anchor's key, and only the anchor it picks gets a counted reference.
//! So an operation costs about 2n/(k + 2) + 1 counted reads plus `k`
//! probe loads. `k` stays at round(√(2n)) − 2, the optimum when a probe
//! cost one counted read. Probes are cheaper now, but not uniformly so:
//! a hot 1,024-cell list measured a walked cell at 60 to 120 times a
//! probed slot (2 and 1 threads), which puts the optimum at the 64-slot
//! cap, yet with `k` at that optimum the 16-bucket hash fill of 10⁴ keys
//! ran slower (its 64 anchors per bucket miss in cache), so the formula
//! was left as it is (CHANGES.md has the numbers).
//!
//! So `k` follows the list: on every [`SAMPLE_EVERY`]-th save of a
//! thread, the cache reads the list's own length estimate
//! (`insert_successes − delete_successes` from [`List::stats`]) and
//! raises `k` to round(√(2n)) − 2, clamped to `[0, SLOTS]`. At `k = 0`
//! (lists of at most four cells, such as hash buckets at their usual
//! load) opens start at the list head and saves write nothing. `k` never
//! decreases: no slot ever leaves the rotation, so a save that read an
//! older, smaller `k` still writes a slot every open probes.
//!
//! Invalidation is the subtle part: the anchor cell may be deleted (or
//! the list arbitrarily reshaped) between operations. The slot's count
//! keeps the cell readable — cell persistence — and a count displaced
//! from a slot waits out the grace period of any probe pinned before
//! the write (invariant I12), so a probe always reads a cell. Invariant
//! I10 (docs/PROTOCOL.md) guarantees that a cursor reopened from *any*
//! held node, after [`Cursor::resume`], observes every cell that is
//! continuously present; who wrote the slot does not matter.
//! The one thing counts cannot preserve is key ordering relative to a
//! *new* search: a deleted anchor with key equal to the search key would
//! sit at-or-past the cells the search must inspect, so
//! [`CursorCache::open`] demands the caller's `usable` predicate hold on
//! the anchor (dictionaries pass `anchor.key < search_key`, strictly)
//! and falls back to the list head when no slot qualifies.
//!
//! A dead anchor leaves its slot in one of two ways: an open picks it
//! and re-points the slot at the live cell the resumed cursor landed
//! on, or the rotation overwrites it. Once `k` has stopped rising (it
//! rises at most [`SLOTS`] times), any `k` written saves write every
//! slot in use. A save skips only while its slot is busy or its
//! displaced count is inside its grace period, which ends once the
//! probes pinned at the displacement have finished. So no slot pins a
//! deleted anchor, and the `back_link` chain behind it, for the list's
//! lifetime, whether or not the thread that cached it is still running
//! and whether or not any search ever finds it usable; a probe stalled
//! inside its pin holds each slot at two counts until it unpins.

use std::cell::Cell;
use std::cmp::Ordering;

use valois_core::{CacheSlot, Cursor, EntryRoot, List, Reclaimer};
use valois_sync::pad::CachePadded;
use valois_sync::shim::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// Slot count: the largest `k`, reached at about 2,150 cells.
#[cfg(not(loom))]
pub(crate) const SLOTS: usize = 64;
/// Under the model checker two slots are enough for a save indexing
/// with a stale `k` to land on a different slot than a fresh one.
#[cfg(loom)]
pub(crate) const SLOTS: usize = 2;

/// Saves per thread between two reads of the list's length.
const SAMPLE_EVERY: usize = 64;

/// The cost model's optimum for a list of `n` cells: round(√(2n)) − 2,
/// clamped to `[0, SLOTS]`.
pub(crate) fn slots_for(n: u64) -> usize {
    let root = (2.0 * n as f64).sqrt().round() as usize;
    root.saturating_sub(2).min(SLOTS)
}

/// Shared cached list positions (see the module docs).
///
/// Slots hold counts on their anchors, which pins those cells (and the
/// `back_link` chains hanging off them) until the slot is re-pointed,
/// repaired or retired — owners must call [`CursorCache::retire_all`]
/// before the list is dropped, and may call it mid-flight to shed pinned
/// memory when a capped arena runs dry.
pub(crate) struct CursorCache<T: Send + Sync> {
    slots: Box<[CacheSlot<T>]>,
    /// Slots in use, `slots[..k]`; only ever raised.
    k: AtomicUsize,
    /// The rotation: the next position to write, before reduction
    /// modulo `k`. Advanced once per position some save wrote.
    next: CachePadded<AtomicUsize>,
}

impl<T: Send + Sync> CursorCache<T> {
    pub(crate) fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| CacheSlot::new()).collect(),
            k: AtomicUsize::new(0),
            next: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// The slots in use.
    fn in_use(&self) -> &[CacheSlot<T>] {
        &self.slots[..self.k.load(AtomicOrdering::Relaxed)]
    }

    /// Raises `k` to the cost model's optimum for `n` cells (never
    /// lowers it).
    pub(crate) fn fit(&self, n: u64) {
        let k = slots_for(n);
        if k > self.k.load(AtomicOrdering::Relaxed) {
            self.k.fetch_max(k, AtomicOrdering::Relaxed);
        }
    }

    /// Opens a cursor at the nearest usable cached position of *any*
    /// thread: every slot in use is probed (uncounted, under a pin),
    /// those whose anchor fails `usable` are skipped, and the cursor
    /// opens at the greatest of the rest under `order`, with one counted
    /// reference. `None` when no slot qualifies (caller falls back to
    /// [`List::cursor`]).
    ///
    /// The returned cursor has been [`Cursor::resume`]d: if the anchor
    /// was deleted, it already back-walked to an undeleted predecessor,
    /// and the slot has been re-pointed there (see
    /// [`List::cursor_at_nearest`]).
    // INVARIANT: I10
    pub(crate) fn open<'a, R: Reclaimer>(
        &self,
        list: &'a List<T, R>,
        usable: impl FnMut(&T) -> bool,
        order: impl FnMut(&T, &T) -> Ordering,
    ) -> Option<Cursor<'a, T, R>> {
        let slots = self.in_use();
        if slots.is_empty() {
            return None;
        }
        list.cursor_at_nearest(slots, usable, order)
    }

    /// Re-points the slot at the cache's rotation position at `cursor`'s
    /// anchor, and advances the rotation if this save wrote it. A save
    /// writes nothing when the cursor sits at the list head (nothing
    /// worth remembering), when `k` is 0, or when the slot skips it
    /// (busy, or its displaced count still in its grace period). Every
    /// [`SAMPLE_EVERY`]-th save of a thread first re-fits `k` to the
    /// list's length.
    pub(crate) fn save<R: Reclaimer>(&self, list: &List<T, R>, cursor: &Cursor<'_, T, R>) {
        thread_local! {
            static SAVES: Cell<usize> = const { Cell::new(0) };
        }
        let saves = SAVES.replace(SAVES.get().wrapping_add(1));
        if saves.is_multiple_of(SAMPLE_EVERY) {
            let stats = list.stats();
            self.fit(
                stats
                    .insert_successes
                    .saturating_sub(stats.delete_successes),
            );
        }
        let at = self.next.load(AtomicOrdering::Relaxed);
        if self.write(at, list, cursor) {
            // A failure means another save wrote this position and
            // advanced it already.
            let _ = self.next.compare_exchange(
                at,
                at.wrapping_add(1),
                AtomicOrdering::Relaxed,
                AtomicOrdering::Relaxed,
            );
        }
    }

    /// Writes `cursor`'s anchor to rotation position `at` modulo the
    /// current `k`. The `k` read may already be stale when the slot is
    /// written; the slot is then one below the old `k`, which every
    /// later open still probes (`k` only rises). Returns whether the
    /// slot was written.
    fn write<R: Reclaimer>(&self, at: usize, list: &List<T, R>, cursor: &Cursor<'_, T, R>) -> bool {
        let k = self.k.load(AtomicOrdering::Relaxed);
        k > 0 && list.cache_entry(&self.slots[at % k], cursor)
    }

    /// Empties every slot it can. Subsequent opens fall back to the head
    /// until positions are re-cached; used on teardown and, by a running
    /// insert, under allocation pressure. Racing opens and saves need no
    /// quiescence: slot writers are serialized by each slot's gate, a
    /// busy slot is skipped, and a count a pinned probe may still read
    /// stays displaced until a later write or retire. At quiescence
    /// every slot is emptied. `k` is left as it is.
    pub(crate) fn retire_all<R: Reclaimer>(&self, list: &List<T, R>) {
        for slot in self.slots.iter() {
            list.retire_cache(slot);
        }
    }

    /// Every slot's anchor root; slots at or above `k` are null.
    #[cfg(test)]
    pub(crate) fn anchors(&self) -> impl Iterator<Item = &EntryRoot<T>> {
        self.slots.iter().map(CacheSlot::anchor)
    }

    /// Every counted root of every slot — anchors and displaced counts —
    /// for refcount audits ([`List::audit_refcounts_with_entries`]).
    pub(crate) fn roots(&self) -> impl Iterator<Item = &EntryRoot<T>> {
        self.slots.iter().flat_map(CacheSlot::roots)
    }
}

impl<T: Send + Sync> Default for CursorCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Model 7 of the loom models (`--cfg loom` only; the others are in
/// `valois-core`'s `tests/loom_models.rs`): a save indexing with a stale
/// `k` while another thread raises `k`, racing an open's probe and
/// repair. Run with
/// `RUSTFLAGS="--cfg loom" cargo test -p valois-dict --lib cursor_cache::loom`.
#[cfg(all(test, loom))]
mod loom {
    use std::sync::Arc;

    use valois_core::{ArenaConfig, EntryRoot, List};
    use valois_sync::shim::atomic::{AtomicU64, Ordering::Relaxed};
    use valois_sync::shim::{thread, Builder};

    use super::{slots_for, CursorCache};

    /// The list starts as `[5, 10, 20, 30, 40]` with `k` = 1 and slot 0
    /// cached at `10`, which is then deleted, so the slot pins a dead
    /// anchor. Thread A saves its cursor (anchor `20`, opened from a
    /// private root) at rotation position 1: slot `1 % k`, which is slot
    /// 0 when A reads the stale `k` = 1 and slot 1 once `k` = 2. Thread
    /// B raises `k` to 2. Thread C opens the nearest usable slot for a
    /// search for `35`, probing `slots[..k]` for whichever `k` it reads;
    /// if it picks the dead `10`, it resumes back to `5` and re-points
    /// slot 0 there. On every interleaving A's anchor ends in exactly the
    /// slot its `k` read chose, or A's save skipped because C's repair
    /// held that slot, C's search reaches `40` (continuously present,
    /// I10), and the audit over every slot's roots and the private root
    /// is exact.
    #[test]
    fn stale_k_save_races_a_raise() {
        // Schedules in which A indexed with the stale and the raised `k`,
        // and in which A's save skipped, counted once every model thread
        // has joined.
        static STALE: AtomicU64 = AtomicU64::new(0);
        static FRESH: AtomicU64 = AtomicU64::new(0);
        static SKIPPED: AtomicU64 = AtomicU64::new(0);
        assert_eq!((slots_for(5), slots_for(8)), (1, 2));
        let explored = Builder::new().preemption_bound(1).check(|| {
            let shared: Arc<(List<u64>, CursorCache<u64>, EntryRoot<u64>)> = Arc::new((
                List::with_config(ArenaConfig::new().initial_capacity(16).max_nodes(16)),
                CursorCache::new(),
                EntryRoot::new(),
            ));
            {
                let (list, cache, at_20) = &*shared;
                for k in [40, 30, 20, 10, 5] {
                    list.cursor().insert(k).expect("seed cells");
                }
                cache.fit(5);
                let mut c = list.cursor();
                assert!(c.next() && c.get() == Some(&10));
                assert!(c.next() && c.get() == Some(&20));
                assert!(cache.write(0, list, &c), "slot 0 cached at 10");
                assert!(list.publish_entry(at_20, &c), "private root at 20");
                drop(c);
                let mut d = list.cursor();
                assert!(d.next() && d.try_delete(), "anchor 10 deleted");
                drop(d);
                // Collapse the deletion's aux chain now, so the repair is
                // the model's only swing.
                let mut walk = list.cursor();
                while walk.next() {}
            }

            let saver = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let (list, cache, at_20) = &*shared;
                    let c = list.cursor_at(at_20).expect("published");
                    cache.write(1, list, &c)
                })
            };
            let raiser = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || shared.1.fit(8))
            };
            let prober = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let (list, cache, _) = &*shared;
                    let mut c = cache
                        .open(list, |&k| k < 35, |a, b| a.cmp(b))
                        .expect("slot 0 always holds a usable anchor");
                    while c.get().is_some_and(|&k| k < 35) {
                        assert!(c.next());
                    }
                    assert_eq!(c.get(), Some(&40), "resumed cursor lost cell 40");
                })
            };
            let saved = saver.join().unwrap();
            raiser.join().unwrap();
            prober.join().unwrap();

            let (mut list, cache, at_20) = Arc::try_unwrap(shared).ok().expect("all joined");
            assert_eq!(cache.in_use().len(), 2, "the raise is never lost");
            let slots: Vec<Option<u64>> = cache
                .anchors()
                .map(|slot| list.with_entry(slot, |&k| k))
                .collect();
            match (saved, slots.as_slice()) {
                (true, [Some(20), None]) => STALE.fetch_add(1, Relaxed),
                (true, [Some(5 | 10), Some(20)]) => FRESH.fetch_add(1, Relaxed),
                (false, [Some(5), None]) => SKIPPED.fetch_add(1, Relaxed),
                other => panic!("A's anchor must sit in the slot its k chose: {other:?}"),
            };
            if let Err(e) = list.check_structure(0) {
                panic!("§3 invariant chain: {e}\nchain: {}", list.dump_chain());
            }
            list.audit_refcounts_with_entries(cache.roots().chain([&at_20]))
                .expect("exact counts — saves and the repair move only the slot's own count");
            cache.retire_all(&list);
            assert_eq!(cache.roots().filter(|r| r.is_published()).count(), 0);
            list.retire_entry(&at_20);
            list.audit_refcounts().expect("exact counts after retire");
            assert_eq!(list.iter().collect::<Vec<u64>>(), vec![5, 20, 30, 40]);
        });
        assert!(explored > 1, "model must branch, explored {explored}");
        let (stale, fresh) = (STALE.load(Relaxed), FRESH.load(Relaxed));
        assert!(
            stale > 0 && fresh > 0,
            "both k reads must be explored: stale in {stale}, fresh in {fresh} of {explored} \
             schedules"
        );
    }
}
