//! Shared cached cursors (after Träff & Pöter, arXiv:2010.15755).
//!
//! Their `lsingly_cursor` observation: most operations on a sorted list
//! land near an earlier operation, so remembering recently visited
//! neighbourhoods converts the per-operation O(n) positioning scan into
//! O(distance-moved). Here a remembered position is a counted
//! [`EntryRoot`] slot, re-pointed after every operation via
//! [`List::cache_entry`].
//!
//! The slots belong to no thread. Each save writes the next slot of a
//! per-thread rotation over the first `k` slots, starting at the
//! thread's [`thread_index`], so the `k` slots hold the `k` most recent
//! anchors of all threads, and two threads saving at the same rate
//! write different slots. Every open probes the `k` slots
//! ([`List::cursor_at_nearest`]) and starts at the nearest usable
//! anchor. On uniform keys with `k` recent anchors the expected walk is
//! about n/(k + 2) cells at two protected reads per cell (the cell and
//! its auxiliary node), so an operation costs about
//! 2n/(k + 2) + k protected reads, least at k = √(2n) − 2.
//!
//! So `k` follows the list: on every [`SAMPLE_EVERY`]-th save of a
//! thread, the cache reads the list's own length estimate
//! (`insert_successes − delete_successes` from [`List::stats`]) and
//! raises `k` to round(√(2n)) − 2, clamped to `[0, SLOTS]`. At `k = 0`
//! (lists of at most four cells, such as hash buckets at their usual
//! load) opens start at the list head and saves write nothing. `k` never
//! decreases: no slot ever leaves the rotation, so a save that read an
//! older, smaller `k` still writes a slot every open probes, and a list
//! that shrinks keeps its larger `k` cheap through the duplicate skip
//! below.
//!
//! A probe costs one protected read per *distinct* anchor: a slot whose
//! pointer equals one the open already probed is skipped before its
//! read. When a hot window leaves many slots naming the same few cells,
//! an open pays for those few, not for `k`.
//!
//! Invalidation is the subtle part: the anchor cell may be deleted (or
//! the list arbitrarily reshaped) between operations. The slot's count
//! keeps the cell readable — cell persistence — and invariant I10
//! (docs/PROTOCOL.md) guarantees that a cursor reopened from *any* held
//! node, after [`Cursor::resume`], observes every cell that is
//! continuously present; who wrote the slot does not matter.
//! The one thing counts cannot preserve is key ordering relative to a
//! *new* search: a deleted anchor with key equal to the search key would
//! sit at-or-past the cells the search must inspect, so
//! [`CursorCache::open`] demands the caller's `usable` predicate hold on
//! the anchor (dictionaries pass `anchor.key < search_key`, strictly)
//! and falls back to the list head when no slot qualifies.
//!
//! A dead anchor leaves its slot in one of two ways: an open picks it
//! and swings the slot to the live cell the resumed cursor landed on,
//! or the saving threads' rotations overwrite it. Once `k` has stopped
//! rising (it rises at most [`SLOTS`] times), any `k` consecutive saves
//! of one thread write every slot in use. So no slot pins a deleted
//! anchor, and the `back_link` chain behind it, for the list's lifetime,
//! whether or not the thread that cached it is still running and
//! whether or not any search ever finds it usable.

use std::cell::Cell;
use std::cmp::Ordering;

use valois_core::{Cursor, EntryRoot, List, Reclaimer};
use valois_sync::sharded::thread_index;
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

/// A thread's place in the shared rotation.
#[derive(Clone, Copy)]
struct Rotation {
    /// The next slot to write, before reduction modulo `k`; advances
    /// only when a save writes.
    next: usize,
    /// Saves so far, written or not; every [`SAMPLE_EVERY`]-th re-derives
    /// `k`.
    saves: usize,
}

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
    slots: Box<[EntryRoot<T>]>,
    /// Slots in use, `slots[..k]`; only ever raised.
    k: AtomicUsize,
}

impl<T: Send + Sync> CursorCache<T> {
    pub(crate) fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| EntryRoot::new()).collect(),
            k: AtomicUsize::new(0),
        }
    }

    /// The slots in use.
    fn in_use(&self) -> &[EntryRoot<T>] {
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
    /// thread: every slot in use is probed once per distinct anchor,
    /// those whose anchor fails `usable` are skipped, and the cursor
    /// opens at the greatest of the rest under `order`. `None` when no
    /// slot qualifies (caller falls back to [`List::cursor`]).
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

    /// Re-points the next slot of this thread's rotation at `cursor`'s
    /// anchor (no-op when the cursor sits at the list head — nothing
    /// worth remembering — or when `k` is 0; the rotation then stays
    /// put). Every [`SAMPLE_EVERY`]-th save of a thread first re-fits
    /// `k` to the list's length.
    pub(crate) fn save<R: Reclaimer>(&self, list: &List<T, R>, cursor: &Cursor<'_, T, R>) {
        thread_local! {
            static ROTATION: Cell<Option<Rotation>> = const { Cell::new(None) };
        }
        ROTATION.with(|cell| {
            let mut rot = cell.get().unwrap_or_else(|| Rotation {
                next: thread_index(),
                saves: 0,
            });
            if rot.saves % SAMPLE_EVERY == 0 {
                let stats = list.stats();
                self.fit(
                    stats
                        .insert_successes
                        .saturating_sub(stats.delete_successes),
                );
            }
            rot.saves = rot.saves.wrapping_add(1);
            if self.write(rot.next, list, cursor) {
                rot.next = rot.next.wrapping_add(1);
            }
            cell.set(Some(rot));
        });
    }

    /// Writes `cursor`'s anchor to rotation position `at` modulo the
    /// current `k`. The `k` read may already be stale when the slot is
    /// written; the slot is then one below the old `k`, which every
    /// later open still probes (`k` only rises). Returns whether a slot
    /// was written.
    fn write<R: Reclaimer>(&self, at: usize, list: &List<T, R>, cursor: &Cursor<'_, T, R>) -> bool {
        let k = self.k.load(AtomicOrdering::Relaxed);
        k > 0 && list.cache_entry(&self.slots[at % k], cursor)
    }

    /// Releases every slot's count. Subsequent opens fall back to the
    /// head until positions are re-cached; used on teardown and, by a
    /// running insert, under allocation pressure. Racing opens and saves
    /// need no quiescence: each slot is emptied by one atomic swap whose
    /// old count alone is released, a racing save's swap likewise
    /// releases only the count it took out, a racing repair's CAS fails
    /// against null, and a racing probe holds its own `SafeRead` count.
    /// `k` is left as it is.
    pub(crate) fn retire_all<R: Reclaimer>(&self, list: &List<T, R>) {
        for slot in self.slots.iter() {
            list.retire_entry(slot);
        }
    }

    /// Every slot, for refcount audits
    /// ([`List::audit_refcounts_with_entries`]); slots above `k` are
    /// null.
    pub(crate) fn roots(&self) -> impl Iterator<Item = &EntryRoot<T>> {
        self.slots.iter()
    }
}

impl<T: Send + Sync> Default for CursorCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Model 7 of the loom models (`--cfg loom` only; the other six are in
/// `valois-core`'s `tests/loom_models.rs`): a save indexing with a stale
/// `k` while another thread raises `k`, racing an open's probe and
/// repair swing. Run with
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
    /// if it picks the dead `10`, it resumes back to `5` and swings slot
    /// 0 there. On every interleaving A's anchor ends in exactly the slot
    /// its `k` read chose, C's search reaches `40` (continuously present,
    /// I10), and the audit over every slot and the private root is exact.
    #[test]
    fn stale_k_save_races_a_raise() {
        // Schedules in which A indexed with the stale and the raised `k`,
        // counted once every model thread has joined.
        static STALE: AtomicU64 = AtomicU64::new(0);
        static FRESH: AtomicU64 = AtomicU64::new(0);
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
                    assert!(cache.write(1, list, &c));
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
            saver.join().unwrap();
            raiser.join().unwrap();
            prober.join().unwrap();

            let (mut list, cache, at_20) = Arc::try_unwrap(shared).ok().expect("all joined");
            assert_eq!(cache.in_use().len(), 2, "the raise is never lost");
            let slots: Vec<Option<u64>> = cache
                .roots()
                .map(|slot| list.with_entry(slot, |&k| k))
                .collect();
            match slots.as_slice() {
                [Some(20), None] => STALE.fetch_add(1, Relaxed),
                [Some(5 | 10), Some(20)] => FRESH.fetch_add(1, Relaxed),
                other => panic!("A's anchor must sit in the slot its k chose: {other:?}"),
            };
            if let Err(e) = list.check_structure(0) {
                panic!("§3 invariant chain: {e}\nchain: {}", list.dump_chain());
            }
            list.audit_refcounts_with_entries(cache.roots().chain([&at_20]))
                .expect("exact counts — saves and the repair move only the slot's own count");
            cache.retire_all(&list);
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
