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
//! probe loads. Were a probe as dear as a counted read, the optimum
//! would be `k` = round(√(2n)) − 2. A hot 1,024-cell list measured a
//! walked cell at 60 to 120 times a probed slot (2 and 1 threads),
//! which puts it at round(√(60n)) − 2. But that price holds only while
//! the anchors stay in cache, and they do only when the walks are
//! spread over the list: an ascending fill lands every insert just past
//! the newest anchor, walks about one cell whatever `k` is, and pays
//! for every extra slot in misses on anchors it never uses.
//!
//! So `k` follows the list and the walks it measures. Every save at
//! `k` > 0 adds the cells its cursor walked ([`Cursor::hops`]) to a
//! tally on the rotation's cache line, and every [`SAMPLE_EVERY`]-th
//! save of the cache reads the list's own length estimate n
//! (`insert_successes − delete_successes` from [`List::stats`]) and
//! the tally's mean walk w. `k` rises to the floor, round(√(2n)) − 2
//! clamped to `[0, FIRST]`, and in one step to round(√(60n)) − 2
//! (clamped to `[0, SLOTS]` and to n) when the window was measured at a
//! `k` on the floor or above it and w ≥ n/(2(k + 2)), half of what
//! uniform traffic walks at that `k`. An ascending fill walks far less
//! and stays on the floor. At `k` = 0 (lists of at most
//! three cells, such as hash buckets at their usual load) opens start at
//! the list head, saves write nothing and tally nothing, and an open
//! that walked more than [`HEAD_WALK`] cells fits the floor at once.
//! `k` never decreases: no slot ever leaves the rotation, so a save
//! that read an older, smaller `k` still writes a slot every open
//! probes. The first [`FIRST`] slots are allocated with the cache; the
//! rest, one chunk, only by the first raise past them, which publishes
//! the chunk before `k` can count its slots.
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

use std::cmp::Ordering;

use valois_core::{CacheSlot, Cursor, EntryRoot, List, Reclaimer};
use valois_sync::pad::CachePadded;
use valois_sync::shim::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};

/// Slots allocated with the cache, and the floor's cap (reached at
/// about 2,150 cells).
#[cfg(not(loom))]
pub(crate) const FIRST: usize = 64;
/// Slot count: the largest `k`, which only a raised cache reaches.
#[cfg(not(loom))]
pub(crate) const SLOTS: usize = 256;
/// Under the model checker one slot floors and two raise, so a save
/// indexing with a stale `k` can land on a different slot than a fresh
/// one, and a raise allocates the chunk a racing probe may read.
#[cfg(loom)]
pub(crate) const FIRST: usize = 1;
#[cfg(loom)]
pub(crate) const SLOTS: usize = 2;

/// Slots in the chunk the first raise past [`FIRST`] allocates.
const REST: usize = SLOTS - FIRST;

/// Saves of a cache between two samples of its walk and its length.
const SAMPLE_EVERY: u64 = 64;

/// Cells an open at `k` = 0 may walk before its save fits the floor.
const HEAD_WALK: u64 = 4;

/// The walk tally holds the window's saves below this bit and the cells
/// they walked above it.
const SAVE_BITS: u32 = 16;
const SAVES: u64 = (1 << SAVE_BITS) - 1;

/// The floor for a list of `n` cells: round(√(2n)) − 2, clamped to
/// `[0, FIRST]`, the optimum when a probe cost one counted read.
pub(crate) fn floor_for(n: u64) -> usize {
    let root = (2.0 * n as f64).sqrt().round() as usize;
    root.saturating_sub(2).min(FIRST)
}

/// The raised count for a list of `n` cells: round(√(60n)) − 2, the
/// optimum for a plain-load probe, clamped to `[0, SLOTS]` and to `n`
/// (more slots than cells buy nothing).
pub(crate) fn raised_for(n: u64) -> usize {
    let root = (60.0 * n as f64).sqrt().round() as usize;
    root.saturating_sub(2)
        .min(SLOTS)
        .min(usize::try_from(n).unwrap_or(usize::MAX))
}

/// The list's length estimate: linked minus unlinked cells.
fn length<T: Send + Sync, R: Reclaimer>(list: &List<T, R>) -> u64 {
    let stats = list.stats();
    stats
        .insert_successes
        .saturating_sub(stats.delete_successes)
}

/// The state every written save touches, on one cache line.
struct Rotation {
    /// The next position to write, before reduction modulo `k`.
    /// Advanced once per position some save wrote.
    next: AtomicUsize,
    /// The current sample window: saves below [`SAVE_BITS`], the cells
    /// their cursors walked above.
    walk: AtomicU64,
}

/// Shared cached list positions (see the module docs).
///
/// Slots hold counts on their anchors, which pins those cells (and the
/// `back_link` chains hanging off them) until the slot is re-pointed,
/// repaired or retired — owners must call [`CursorCache::retire_all`]
/// before the list is dropped, and may call it mid-flight to shed pinned
/// memory when a capped arena runs dry.
pub(crate) struct CursorCache<T: Send + Sync> {
    /// Slots `0..FIRST`.
    first: Box<[CacheSlot<T>]>,
    /// Slots `FIRST..SLOTS`: null until the first raise past `FIRST`
    /// publishes them, then fixed until the cache drops.
    rest: AtomicPtr<[CacheSlot<T>; REST]>,
    /// Slots in use, `0..k`; only ever raised.
    k: AtomicUsize,
    rotation: CachePadded<Rotation>,
}

impl<T: Send + Sync> CursorCache<T> {
    pub(crate) fn new() -> Self {
        Self {
            first: (0..FIRST).map(|_| CacheSlot::new()).collect(),
            rest: AtomicPtr::new(std::ptr::null_mut()),
            k: AtomicUsize::new(0),
            rotation: CachePadded::new(Rotation {
                next: AtomicUsize::new(0),
                walk: AtomicU64::new(0),
            }),
        }
    }

    /// The slots in use.
    pub(crate) fn k(&self) -> usize {
        // ORDER: Acquire — pairs with `raise`'s Release, so a `k` past
        // `FIRST` comes with the published chunk.
        self.k.load(AtomicOrdering::Acquire)
    }

    /// The chunk of slots past [`FIRST`], once published.
    fn rest(&self) -> Option<&[CacheSlot<T>; REST]> {
        // ORDER: Acquire — pairs with the publishing CAS in `raise`, so
        // the chunk's slots are seen initialized.
        let rest = self.rest.load(AtomicOrdering::Acquire);
        // SAFETY: a non-null `rest` came from `Box::into_raw` in `raise`
        // and is freed only by `Drop`, which has `&mut self`.
        (!rest.is_null()).then(|| unsafe { &*rest })
    }

    /// The published chunk, for an index below a `k` past [`FIRST`].
    fn grown(&self) -> &[CacheSlot<T>; REST] {
        self.rest()
            .expect("a raise publishes the chunk before k counts its slots")
    }

    /// Slot `i`, which must be below the current `k`.
    fn slot(&self, i: usize) -> &CacheSlot<T> {
        match i.checked_sub(FIRST) {
            None => &self.first[i],
            Some(j) => &self.grown()[j],
        }
    }

    /// The slots in use, `0..k`.
    fn in_use(&self) -> impl Iterator<Item = &CacheSlot<T>> {
        let k = self.k();
        let grown: &[CacheSlot<T>] = if k > FIRST {
            &self.grown()[..k - FIRST]
        } else {
            &[]
        };
        self.first[..k.min(FIRST)].iter().chain(grown)
    }

    /// Every allocated slot, in use or not.
    fn all(&self) -> impl Iterator<Item = &CacheSlot<T>> {
        self.first.iter().chain(self.rest().into_iter().flatten())
    }

    /// Raises `k` to `to` (never lowers it). A raise past [`FIRST`]
    /// first publishes the chunk of further slots, so every `k` a reader
    /// can see counts only allocated slots.
    fn raise(&self, to: usize) {
        if to <= self.k.load(AtomicOrdering::Relaxed) {
            return;
        }
        if to > FIRST && self.rest().is_none() {
            let chunk = Box::into_raw(Box::new(std::array::from_fn(|_| CacheSlot::new())));
            // ORDER: AcqRel — Release publishes the chunk's slots to
            // `rest`'s Acquire; Acquire on failure sees the winner's.
            let lost = self.rest.compare_exchange(
                std::ptr::null_mut(),
                chunk,
                AtomicOrdering::AcqRel,
                AtomicOrdering::Acquire,
            );
            if lost.is_err() {
                // SAFETY: another raise published its chunk first, so
                // this one was never shared.
                drop(unsafe { Box::from_raw(chunk) });
            }
        }
        // ORDER: AcqRel — Release orders the chunk's publication (this
        // thread's CAS, or the Acquire that saw it) before the new `k`.
        self.k.fetch_max(to, AtomicOrdering::AcqRel);
    }

    /// Fits `k` to a list of `n` cells: the floor, or the raised count
    /// when a sample `window` of `(saves, cells walked)` walked at least
    /// half of what uniform traffic walks at the current `k`. A window
    /// measured at a `k` below the floor only lifts `k` to the floor: its
    /// walks priced too few slots, and the next window prices the floor.
    pub(crate) fn fit(&self, n: u64, window: Option<(u64, u64)>) {
        let k = self.k.load(AtomicOrdering::Relaxed);
        let floor = floor_for(n);
        let spread = k >= floor
            && window.is_some_and(|(saves, walked)| 2 * walked * (k as u64 + 2) >= n * saves);
        self.raise(if spread { raised_for(n) } else { floor });
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
        if self.k() == 0 {
            return None;
        }
        list.cursor_at_nearest(self.in_use(), usable, order)
    }

    /// Re-points the slot at the cache's rotation position at `cursor`'s
    /// anchor, and advances the rotation if this save wrote it. A save
    /// writes nothing when the cursor sits at the list head (nothing
    /// worth remembering), when `k` is 0, or when the slot skips it
    /// (busy, or its displaced count still in its grace period). A save
    /// at `k` = 0 whose cursor walked more than [`HEAD_WALK`] cells first
    /// fits the floor; a save at `k` > 0 then tallies its cursor's walk,
    /// and every [`SAMPLE_EVERY`]-th one re-fits `k`.
    pub(crate) fn save<R: Reclaimer>(&self, list: &List<T, R>, cursor: &Cursor<'_, T, R>) {
        let walked = cursor.hops();
        let tallied = self.k() > 0;
        if !tallied && walked > HEAD_WALK {
            self.fit(length(list), None);
        }
        let at = self.rotation.next.load(AtomicOrdering::Relaxed);
        if self.write(at, list, cursor) {
            // A failure means another save wrote this position and
            // advanced it already.
            let _ = self.rotation.next.compare_exchange(
                at,
                at.wrapping_add(1),
                AtomicOrdering::Relaxed,
                AtomicOrdering::Relaxed,
            );
        }
        if tallied {
            // Right after the rotation's CAS, while its line is still
            // this thread's.
            let tally = &self.rotation.walk;
            let before = tally.fetch_add((walked << SAVE_BITS) | 1, AtomicOrdering::Relaxed);
            if (before & SAVES) + 1 == SAMPLE_EVERY {
                let window = tally.swap(0, AtomicOrdering::Relaxed);
                self.fit(length(list), Some((window & SAVES, window >> SAVE_BITS)));
            }
        }
    }

    /// Writes `cursor`'s anchor to rotation position `at` modulo the
    /// current `k`. The `k` read may already be stale when the slot is
    /// written; the slot is then one below the old `k`, which every
    /// later open still probes (`k` only rises). Returns whether the
    /// slot was written.
    fn write<R: Reclaimer>(&self, at: usize, list: &List<T, R>, cursor: &Cursor<'_, T, R>) -> bool {
        let k = self.k();
        k > 0 && list.cache_entry(self.slot(at % k), cursor)
    }

    /// Empties every slot it can. Subsequent opens fall back to the head
    /// until positions are re-cached; used on teardown and, by a running
    /// insert, under allocation pressure. Racing opens and saves need no
    /// quiescence: slot writers are serialized by each slot's gate, a
    /// busy slot is skipped, and a count a pinned probe may still read
    /// stays displaced until a later write or retire. At quiescence
    /// every slot is emptied. `k` is left as it is.
    pub(crate) fn retire_all<R: Reclaimer>(&self, list: &List<T, R>) {
        for slot in self.all() {
            list.retire_cache(slot);
        }
    }

    /// Every allocated slot's anchor root; slots at or above `k` are
    /// null.
    #[cfg(test)]
    pub(crate) fn anchors(&self) -> impl Iterator<Item = &EntryRoot<T>> {
        self.all().map(CacheSlot::anchor)
    }

    /// Every counted root of every slot — anchors and displaced counts —
    /// for refcount audits ([`List::audit_refcounts_with_entries`]).
    pub(crate) fn roots(&self) -> impl Iterator<Item = &EntryRoot<T>> {
        self.all().flat_map(CacheSlot::roots)
    }
}

impl<T: Send + Sync> Drop for CursorCache<T> {
    fn drop(&mut self) {
        let rest = *self.rest.get_mut();
        if !rest.is_null() {
            // SAFETY: `rest` came from `Box::into_raw` in `raise`, and
            // `&mut self` leaves no other reference to it. The owner has
            // retired its slots (see the type docs).
            drop(unsafe { Box::from_raw(rest) });
        }
    }
}

impl<T: Send + Sync> Default for CursorCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Models 7 and 9 of the loom models (`--cfg loom` only; the others
/// are in `valois-core`'s `tests/loom_models.rs`): a save indexing with
/// a stale `k` while another thread raises `k`, racing an open's probe
/// and repair, and a probe racing the raise that grows the slot
/// storage. Run with
/// `RUSTFLAGS="--cfg loom" cargo test -p valois-dict --lib cursor_cache::loom`.
#[cfg(all(test, loom))]
mod loom {
    use std::sync::Arc;

    use valois_core::{ArenaConfig, EntryRoot, List};
    use valois_sync::shim::atomic::{AtomicU64, Ordering::Relaxed};
    use valois_sync::shim::{thread, Builder};

    use super::{floor_for, raised_for, CursorCache};

    /// The list starts as `[5, 10, 20, 30, 40]` with `k` = 1 and slot 0
    /// cached at `10`, which is then deleted, so the slot pins a dead
    /// anchor. Thread A saves its cursor (anchor `20`, opened from a
    /// private root) at rotation position 1: slot `1 % k`, which is slot
    /// 0 when A reads the stale `k` = 1 and slot 1 once `k` = 2. Thread
    /// B samples a window of walks long enough to raise `k` past the
    /// floor, to 2, which first publishes the chunk holding slot 1.
    /// Thread C opens the nearest usable slot for a
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
        assert_eq!((floor_for(5), raised_for(5)), (1, 2));
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
                cache.fit(5, None);
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
                thread::spawn(move || shared.1.fit(5, Some((1, 5))))
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
            assert_eq!(cache.in_use().count(), 2, "the raise is never lost");
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

    /// The list is `[10, 20, 30, 40]` with `k` = 1, the floor, and slot 0
    /// cached at `10`. Thread A samples a window of walks long enough to
    /// raise `k` to 2, which allocates and publishes the chunk holding
    /// slot 1, and then saves a cursor anchored at `20` to rotation
    /// position 1. Thread B opens the nearest usable slot for a search
    /// for `35`. On every interleaving the probe reads only allocated
    /// slots (reading the chunk before its publication panics in
    /// `CursorCache::grown`), starts at `20` when it saw A's save and at
    /// `10` otherwise, and reaches `40`; the audit over every slot's
    /// roots and the private root is exact.
    #[test]
    fn a_probe_never_reads_an_unpublished_chunk() {
        // Schedules in which B's probe started at the grown slot, and at
        // the first one.
        static GROWN: AtomicU64 = AtomicU64::new(0);
        static FIRST: AtomicU64 = AtomicU64::new(0);
        assert_eq!((floor_for(4), raised_for(4)), (1, 2));
        let explored = Builder::new().preemption_bound(1).check(|| {
            let shared: Arc<(List<u64>, CursorCache<u64>, EntryRoot<u64>)> = Arc::new((
                List::with_config(ArenaConfig::new().initial_capacity(16).max_nodes(16)),
                CursorCache::new(),
                EntryRoot::new(),
            ));
            {
                let (list, cache, at_20) = &*shared;
                for k in [40, 30, 20, 10] {
                    list.cursor().insert(k).expect("seed cells");
                }
                cache.fit(4, None);
                let mut c = list.cursor();
                assert!(c.next() && c.get() == Some(&20));
                assert!(cache.write(0, list, &c), "slot 0 cached at 10");
                assert!(list.publish_entry(at_20, &c), "private root at 20");
            }

            let grower = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let (list, cache, at_20) = &*shared;
                    cache.fit(4, Some((1, 4)));
                    let c = list.cursor_at(at_20).expect("published");
                    assert!(cache.write(1, list, &c), "slot 1 is free");
                })
            };
            let prober = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let (list, cache, _) = &*shared;
                    let mut c = cache
                        .open(list, |&k| k < 35, |a, b| a.cmp(b))
                        .expect("slot 0 always holds a usable anchor");
                    let start = c.get().copied();
                    while c.get().is_some_and(|&k| k < 35) {
                        assert!(c.next());
                    }
                    assert_eq!(c.get(), Some(&40), "the search lost cell 40");
                    start
                })
            };
            grower.join().unwrap();
            match prober.join().unwrap() {
                Some(30) => GROWN.fetch_add(1, Relaxed),
                Some(20) => FIRST.fetch_add(1, Relaxed),
                other => panic!("the probe must start at 10 or 20: {other:?}"),
            };

            let (mut list, cache, at_20) = Arc::try_unwrap(shared).ok().expect("all joined");
            assert_eq!(cache.in_use().count(), 2, "the raise is never lost");
            list.audit_refcounts_with_entries(cache.roots().chain([&at_20]))
                .expect("exact counts over both chunks");
            cache.retire_all(&list);
            assert_eq!(cache.roots().filter(|r| r.is_published()).count(), 0);
            list.retire_entry(&at_20);
            list.audit_refcounts().expect("exact counts after retire");
        });
        assert!(explored > 1, "model must branch, explored {explored}");
        let (grown, first) = (GROWN.load(Relaxed), FIRST.load(Relaxed));
        assert!(
            grown > 0 && first > 0,
            "the probe must start at both slots: grown in {grown}, first in {first} of \
             {explored} schedules"
        );
    }
}
