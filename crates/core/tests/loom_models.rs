//! Model-checked verification of the three core Valois protocols
//! (`--cfg loom` only). The scheduler in `valois_sync::shim::sched`
//! exhaustively explores thread interleavings (sequentially-consistent,
//! preemption-bounded), so every assertion below holds on *every*
//! explored schedule, not just the ones the OS happens to produce.
//!
//! 1. SafeRead/Release with the claim bit (Figs. 15-18): a reader racing
//!    an unlink + reclaim + re-allocation never observes a freed or
//!    retyped cell while it holds a counted reference.
//! 2. Free-list Alloc/Reclaim (Figs. 17-18): concurrent pop/push never
//!    double-allocates a cell and never loses one.
//! 3. TryInsert/TryDelete through auxiliary nodes (Figs. 9-10): a
//!    concurrent insert and delete at the same position preserve the §3
//!    invariant chain (strict cell/aux alternation, exact refcounts).
//! 4. `Cursor::resume` racing deletions of its anchor *and* of the
//!    predecessor the back-walk resumes to: the walk must fall back
//!    further (never loop, never leak a count), and the resumed
//!    traversal must still observe every continuously-present cell
//!    (invariant I10).
//! 5. The cached-cursor repair (`List::cursor_at_nearest`) racing a
//!    writer's `List::cache_entry` on one `CacheSlot`: the writer's
//!    position wins unless the repair held the slot's gate, the prober
//!    still reaches every continuously present cell, and counts stay
//!    exact.
//! 6. The same repair racing *two* writers' `cache_entry`s on one
//!    `CacheSlot`, as when saves of several threads rotate onto one
//!    shared slot: the slot ends at the last write that landed, and
//!    counts stay exact.
//! 7. (In `valois-dict`'s `cursor_cache.rs`.)
//! 8. The uncounted probe's grace rule: a prober pinned before a save
//!    displaces its anchor reads that anchor while another thread
//!    deletes the cell and tries to release the displaced count. The
//!    count waits until the prober unpins, so the read never meets a
//!    reclaimed cell.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p valois-core --test loom_models`
#![cfg(loom)]

use std::ptr;
use std::sync::Arc;

use valois_core::{CacheSlot, EntryRoot, List};
use valois_mem::{Arena, ArenaConfig, Link, Managed, NodeHeader, ReclaimedLinks};
use valois_sync::shim::atomic::{AtomicUsize, Ordering};
use valois_sync::shim::{thread, Builder};

/// Tag values tracking a slot's life cycle for the reader model.
const TAG_FREE: usize = 0;
const TAG_CELL: usize = 1;
const TAG_RETYPED: usize = 2;

/// Minimal managed node: one drainable link (doubles as the free-list
/// link, exactly like the paper's cells) and an observable `tag` that
/// reclamation resets to [`TAG_FREE`].
#[derive(Default)]
struct Slot {
    header: NodeHeader,
    link: Link<Slot>,
    tag: AtomicUsize,
}

impl Managed for Slot {
    fn header(&self) -> &NodeHeader {
        &self.header
    }
    fn free_link(&self) -> &Link<Self> {
        &self.link
    }
    fn drain_links(&self) -> ReclaimedLinks<Self> {
        let mut links = ReclaimedLinks::new();
        links.push(self.link.swap(ptr::null_mut()));
        // The slot is dead: anyone who can still see a non-FREE tag is
        // holding a pointer the protocol should have protected.
        self.tag.store(TAG_FREE, Ordering::Release);
        links
    }
    fn links(&self) -> impl Iterator<Item = &Link<Self>> {
        std::iter::once(&self.link)
    }
    fn reset_for_alloc(&self) {
        self.link.write(ptr::null_mut());
    }
}

struct SlotCtx {
    arena: Arena<Slot>,
    root: Link<Slot>,
}

fn capped_slot_arena(cap: usize) -> Arena<Slot> {
    let arena = Arena::with_config(ArenaConfig::new().initial_capacity(cap).max_nodes(cap));
    // Force the (mutex-guarded) initial segment growth here, while the
    // model is still single-threaded: the threads below must contend on
    // the lock-free protocol paths only.
    let warm = arena.alloc().expect("warm-up alloc within cap");
    unsafe { arena.release(warm) };
    arena
}

/// Model 1 — SafeRead vs. unlink + reclaim + re-allocation.
///
/// Thread A SafeReads the shared root; thread B swings the root to null
/// (dropping the root's count) and then tries to re-allocate the cell
/// and retype it. On every interleaving, if A's SafeRead returns the
/// cell, the cell must still carry [`TAG_CELL`] for as long as A holds
/// its counted reference: B's alloc can only succeed after the count
/// reaches zero, which requires A's Release. A claim bit that is set
/// while A holds the node would mean reclamation overtook a live
/// reference — the exact bug class Figs. 15-16 exist to prevent.
#[test]
fn safe_read_never_observes_reclaimed_cell() {
    let explored = Builder::new().check(|| {
        let ctx = Arc::new(SlotCtx {
            arena: capped_slot_arena(1),
            root: Link::null(),
        });
        // Publish one live cell through the root.
        let x = ctx.arena.alloc().expect("capacity 1");
        unsafe {
            (*x).tag.store(TAG_CELL, Ordering::Release);
            ctx.arena.store_link(&ctx.root, x);
            ctx.arena.release(x);
        }

        let reader = {
            let ctx = Arc::clone(&ctx);
            thread::spawn(move || unsafe {
                let p = ctx.arena.safe_read(&ctx.root);
                if !p.is_null() {
                    // While we hold a counted reference the cell cannot be
                    // freed (tag -> FREE) or recycled (tag -> RETYPED).
                    let t1 = (*p).tag.load(Ordering::Acquire);
                    assert_eq!(t1, TAG_CELL, "reader observed a dead cell");
                    assert!(
                        !(*p).header.claim_is_set(),
                        "claim bit set under a live reference"
                    );
                    let t2 = (*p).tag.load(Ordering::Acquire);
                    assert_eq!(t2, TAG_CELL, "cell recycled under a live reference");
                    ctx.arena.release(p);
                }
            })
        };

        let deleter = {
            let ctx = Arc::clone(&ctx);
            thread::spawn(move || unsafe {
                // Unlink the cell from the root (releases the root's count).
                let x = ctx.arena.safe_read(&ctx.root);
                if !x.is_null() {
                    let swung = ctx.arena.swing(&ctx.root, x, ptr::null_mut());
                    assert!(swung, "only writer of the root");
                    ctx.arena.release(x);
                }
                // Recycle attempt: succeeds only once every counted
                // reference is gone. Failure means the reader still holds
                // the sole cell — equally legal.
                if let Ok(q) = ctx.arena.alloc() {
                    (*q).tag.store(TAG_RETYPED, Ordering::Release);
                    ctx.arena.release(q);
                }
            })
        };

        reader.join().unwrap();
        deleter.join().unwrap();

        // Conservation: all references released, so the single cell is
        // allocatable again and arrives reset.
        let q = ctx.arena.alloc().expect("cell returned to the free list");
        unsafe {
            assert_eq!((*q).tag.load(Ordering::Acquire), TAG_FREE);
            ctx.arena.release(q);
        }
        assert_eq!(ctx.arena.live_nodes(), 0);
    });
    assert!(explored > 1, "model must branch, explored {explored}");
}

/// Model 2 — free-list Alloc/Reclaim: no double-alloc, no lost cells.
///
/// Two threads pop from a two-cell free list, brand their cell, verify
/// the brand survives (a double allocation would let the other thread
/// overwrite it), and push it back. Afterwards the pool must hold
/// exactly two distinct cells — none lost, none duplicated.
#[test]
fn freelist_alloc_reclaim_conserves_cells() {
    let explored = Builder::new().check(|| {
        let ctx = Arc::new(SlotCtx {
            arena: capped_slot_arena(2),
            root: Link::null(),
        });

        let mut handles = Vec::new();
        for id in 1..=2usize {
            let ctx = Arc::clone(&ctx);
            handles.push(thread::spawn(move || unsafe {
                let p = ctx.arena.alloc().expect("two cells for two threads");
                (*p).tag.store(id, Ordering::Release);
                let seen = (*p).tag.load(Ordering::Acquire);
                assert_eq!(seen, id, "double allocation: cell branded by both threads");
                ctx.arena.release(p);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        // Conservation: exactly two distinct cells remain allocatable.
        let a = ctx.arena.alloc().expect("first cell conserved");
        let b = ctx.arena.alloc().expect("second cell conserved");
        assert_ne!(a, b, "free list duplicated a cell");
        assert!(ctx.arena.alloc().is_err(), "free list grew a phantom cell");
        unsafe {
            ctx.arena.release(a);
            ctx.arena.release(b);
        }
        assert_eq!(ctx.arena.live_nodes(), 0);
    });
    assert!(explored > 1, "model must branch, explored {explored}");
}

/// Model 3 — TryInsert racing TryDelete through auxiliary nodes.
///
/// The list starts as `[10]`. Thread A inserts `5` at the first
/// position; thread B deletes the cell `10` — the same neighbourhood, so
/// the Fig. 9 insertion CAS and the Fig. 10 deletion CAS contend for
/// `pre_aux^.next`. On every interleaving the final list must be exactly
/// `[5]`, the §3 invariant chain (strict cell/aux alternation between
/// the dummies) must hold, and the refcounts must be exact.
#[test]
fn try_insert_vs_try_delete_preserves_invariant_chain() {
    let explored = Builder::new().preemption_bound(2).check(|| {
        let list: Arc<List<u64>> = Arc::new(List::with_config(
            ArenaConfig::new().initial_capacity(16).max_nodes(16),
        ));
        list.cursor().insert(10).expect("seed cell");

        let inserter = {
            let list = Arc::clone(&list);
            thread::spawn(move || {
                // Fig. 12 retry loop: prepare once, CAS until it lands.
                list.cursor().insert(5).expect("pool sized for both ops");
            })
        };

        let deleter = {
            let list = Arc::clone(&list);
            thread::spawn(move || {
                let mut c = list.cursor();
                loop {
                    match c.get() {
                        Some(&10) => {
                            // Fig. 13 retry: a failed TryDelete means a
                            // concurrent op invalidated the cursor.
                            if c.try_delete() {
                                break;
                            }
                            c.update();
                        }
                        Some(_) => {
                            // The inserter only adds cells *before* 10, so
                            // walking forward must reach it.
                            assert!(c.next(), "walked past cell 10");
                        }
                        None => panic!("cell 10 vanished without our delete"),
                    }
                }
            })
        };

        inserter.join().unwrap();
        deleter.join().unwrap();

        let mut list = Arc::try_unwrap(list).expect("all threads joined");
        if let Err(e) = list.check_structure(0) {
            panic!("§3 invariant chain: {e}\nchain: {}", list.dump_chain());
        }
        list.audit_refcounts().expect("exact counts");
        assert_eq!(list.iter().collect::<Vec<u64>>(), vec![5]);
        // After collecting the deleted cell's residue the arena must hold
        // exactly the quiescent shape: 3 dummies/roots + 2 per live cell.
        list.quiescent_collect();
        list.check_structure(0)
            .expect("§3 invariant chain after collect");
        assert_eq!(list.mem_stats().live_nodes(), 3 + 2);
    });
    assert!(explored > 1, "model must branch, explored {explored}");
}

/// Model 4 — resume-from-backlink with the resumed-to predecessor itself
/// deleted mid-resume.
///
/// The list starts as `[10, 20, 30]`. Thread A deletes `20` (its cursor
/// anchored at `10`), thread B deletes `10` — so A's retry/recovery
/// back-walk can land on a predecessor that B deletes under it. Thread C
/// advances a cursor to `30` (anchor `20`, soon deleted by A), calls
/// `resume`, and must still reach `30`: it is continuously present, so
/// by I10 no interleaving of the back-walks may skip it, loop, or leak
/// a count (the post-join audit checks exactness).
#[test]
fn resume_survives_predecessor_deleted_mid_resume() {
    let explored = Builder::new().preemption_bound(2).check(|| {
        let list: Arc<List<u64>> = Arc::new(List::with_config(
            ArenaConfig::new().initial_capacity(16).max_nodes(16),
        ));
        for k in [30, 20, 10] {
            list.cursor().insert(k).expect("seed cells");
        }

        let delete = |key: u64| {
            let list = Arc::clone(&list);
            thread::spawn(move || {
                let mut c = list.cursor();
                loop {
                    match c.get() {
                        Some(&k) if k == key => {
                            if c.try_delete() {
                                break;
                            }
                            // The other deleter may have removed our
                            // anchor: back_link-guided retry.
                            c.resume();
                        }
                        Some(_) => assert!(c.next(), "walked past the key"),
                        // Only this thread deletes `key`, so by I10 the
                        // walk cannot reach the end without finding it.
                        None => panic!("cell {key} vanished without our delete"),
                    }
                }
            })
        };
        let deleter_20 = delete(20);
        let deleter_10 = delete(10);

        let resumer = {
            let list = Arc::clone(&list);
            thread::spawn(move || {
                let mut c = list.cursor();
                // Position at 30 (anchor: whatever precedes it right now).
                while c.get() != Some(&30) {
                    assert!(c.next(), "30 is never deleted");
                }
                // Resume after the anchor may have died — and keep
                // resuming: 30 stays continuously present, so every
                // re-walk must find it again (I10).
                for _ in 0..2 {
                    c.resume();
                    while c.get() != Some(&30) {
                        assert!(c.next(), "resumed cursor lost cell 30");
                    }
                }
            })
        };

        deleter_20.join().unwrap();
        deleter_10.join().unwrap();
        resumer.join().unwrap();

        let mut list = Arc::try_unwrap(list).expect("all threads joined");
        if let Err(e) = list.check_structure(0) {
            panic!("§3 invariant chain: {e}\nchain: {}", list.dump_chain());
        }
        list.audit_refcounts()
            .expect("exact counts — no leaked resume");
        assert_eq!(list.iter().collect::<Vec<u64>>(), vec![30]);
        list.quiescent_collect();
        list.check_structure(0)
            .expect("§3 invariant chain after collect");
        assert_eq!(list.mem_stats().live_nodes(), 3 + 2);
    });
    assert!(explored > 1, "model must branch, explored {explored}");
}

/// Model 5 — a writer's `cache_entry` racing another thread's probe and
/// repair on the same `CacheSlot`.
///
/// The list starts as `[5, 10, 20, 30]` with the slot cached at `10`,
/// which is then deleted, so the slot pins a dead anchor. Thread A
/// re-caches the slot at `20`; thread B opens the nearest usable
/// entry for a search for `25`. If B probes the dead `10`, its cursor
/// resumes back to `5` and B re-points the slot from `10` to `5`; if
/// A's write landed first, the repair finds `20` and does nothing; if A
/// wrote after, it displaces B's `5`. A write that finds the slot's
/// gate held by the other skips. On every interleaving the slot ends at
/// `20` when A's write landed and at `5` when it skipped, B's search
/// reaches `30` (continuously present, I10), and the audit over the
/// anchor and the displaced count is exact.
#[test]
fn repair_swing_races_owner_recache() {
    // Schedules in which the prober opened at the dead anchor (and so
    // ran the repair); counted outside the model.
    static REPAIRS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let explored = Builder::new().preemption_bound(2).check(|| {
        let shared: Arc<(List<u64>, CacheSlot<u64>)> = Arc::new((
            List::with_config(ArenaConfig::new().initial_capacity(16).max_nodes(16)),
            CacheSlot::new(),
        ));
        {
            let (list, slot) = &*shared;
            for k in [30, 20, 10, 5] {
                list.cursor().insert(k).expect("seed cells");
            }
            let mut c = list.cursor();
            assert!(c.next() && c.get() == Some(&10));
            assert!(c.next() && c.get() == Some(&20));
            assert!(list.cache_entry(slot, &c), "anchor 10 cached");
            let mut d = list.cursor();
            assert!(d.next() && d.try_delete(), "anchor 10 deleted");
        }

        let owner = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (list, slot) = &*shared;
                let mut c = list.cursor();
                while c.get() != Some(&30) {
                    assert!(c.next(), "30 is never deleted");
                }
                list.cache_entry(slot, &c)
            })
        };
        let prober = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (list, slot) = &*shared;
                let mut c = list
                    .cursor_at_nearest(std::slice::from_ref(slot), |&k| k < 25, |a, b| a.cmp(b))
                    .expect("the slot always holds a usable anchor");
                while c.get().is_some_and(|&k| k < 25) {
                    assert!(c.next());
                }
                assert_eq!(c.get(), Some(&30), "resumed cursor lost cell 30");
            })
        };
        let saved = owner.join().unwrap();
        prober.join().unwrap();

        let (mut list, slot) = Arc::try_unwrap(shared).ok().expect("all threads joined");
        let repaired = list.stats().resumes > 0;
        if repaired {
            REPAIRS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        assert!(saved || repaired, "only the repair can hold the gate");
        assert_eq!(
            list.with_entry(slot.anchor(), |&k| k),
            Some(if saved { 20 } else { 5 }),
            "the writer's write wins unless it skipped"
        );
        if let Err(e) = list.check_structure(0) {
            panic!("§3 invariant chain: {e}\nchain: {}", list.dump_chain());
        }
        list.audit_refcounts_with_entries(slot.roots())
            .expect("exact counts — writes move only the slot's own counts");
        assert!(
            list.retire_cache(&slot),
            "a quiescent retire empties the slot"
        );
        list.audit_refcounts().expect("exact counts after retire");
        assert_eq!(list.iter().collect::<Vec<u64>>(), vec![5, 20, 30]);
        list.quiescent_collect();
        assert_eq!(list.mem_stats().live_nodes(), 3 + 2 * 3);
    });
    assert!(explored > 1, "model must branch, explored {explored}");
    let repairs = REPAIRS.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        repairs > 0 && repairs < explored,
        "both orders must be explored: {repairs} of {explored} schedules repaired"
    );
}

/// Model 6 — two writers' `cache_entry`s racing a third thread's probe
/// and repair on one shared `CacheSlot`.
///
/// Cache slots belong to no thread: any thread's save may land on any
/// slot. The list starts as `[5, 10, 20, 30, 40]` with the shared slot
/// cached at `10`, which is then deleted, so the slot pins a dead
/// anchor. Thread A caches the slot at `20` and thread B at `30`, each
/// opening its cursor from a private root so that a save is one open
/// and one write. Thread C opens the nearest usable entry for a search
/// for `35`. If C probes the dead `10`, its cursor resumes back to `5`
/// and C re-points the slot from `10` to `5`, which lands only ahead of
/// both writes. A write skips when another holds the slot's gate, or
/// when the count it would have to release was displaced while C was
/// pinned and C still is. On every interleaving the slot ends at the
/// last write that landed, C's search reaches `40` (continuously
/// present, I10), and the audit over the slot's two roots and the
/// private roots is exact.
#[test]
fn repair_swing_races_two_recaching_writers() {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    // Schedules in which C's repair landed last, or was overtaken;
    // counted outside the model.
    static REPAIR_WON: AtomicU64 = AtomicU64::new(0);
    static REPAIR_LOST: AtomicU64 = AtomicU64::new(0);
    // One preemption already reaches both orders (the repair ahead of
    // both writes, and a write between the probe and the repair); a
    // bound of 2 passes too but explores for minutes instead of seconds.
    let explored = Builder::new().preemption_bound(1).check(|| {
        let shared: Arc<(List<u64>, CacheSlot<u64>, [EntryRoot<u64>; 2])> = Arc::new((
            List::with_config(ArenaConfig::new().initial_capacity(16).max_nodes(16)),
            CacheSlot::new(),
            [EntryRoot::new(), EntryRoot::new()],
        ));
        let setup = {
            let (list, slot, [at_20, at_30]) = &*shared;
            for k in [40, 30, 20, 10, 5] {
                list.cursor().insert(k).expect("seed cells");
            }
            let mut c = list.cursor();
            assert!(c.next() && c.get() == Some(&10));
            assert!(c.next() && c.get() == Some(&20));
            assert!(list.cache_entry(slot, &c), "anchor 10 cached");
            assert!(list.publish_entry(at_20, &c), "private root at 20");
            assert!(c.next() && c.get() == Some(&30));
            assert!(list.publish_entry(at_30, &c), "private root at 30");
            drop(c);
            let mut d = list.cursor();
            assert!(d.next() && d.try_delete(), "anchor 10 deleted");
            drop(d);
            // Collapse the deletion's aux chain now, so the cursors make
            // no structural swing.
            let mut walk = list.cursor();
            while walk.next() {}
            drop(walk);
            list.mem_stats()
        };

        let writer = |private: usize| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (list, slot, roots) = &*shared;
                let c = list.cursor_at(&roots[private]).expect("published");
                list.cache_entry(slot, &c)
            })
        };
        let a = writer(0);
        let b = writer(1);
        let prober = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (list, slot, _) = &*shared;
                let mut c = list
                    .cursor_at_nearest(std::slice::from_ref(slot), |&k| k < 35, |a, b| a.cmp(b))
                    .expect("the slot always holds a usable anchor");
                while c.get().is_some_and(|&k| k < 35) {
                    assert!(c.next());
                }
                assert_eq!(c.get(), Some(&40), "resumed cursor lost cell 40");
            })
        };
        let (a_saved, b_saved) = (a.join().unwrap(), b.join().unwrap());
        prober.join().unwrap();

        let (mut list, slot, roots) = Arc::try_unwrap(shared).ok().expect("all threads joined");
        let delta = list.mem_stats().since(&setup);
        assert_eq!(
            delta.swings, 0,
            "the slot changes by gated writes only: {delta:?}"
        );
        let last = list.with_entry(slot.anchor(), |&k| k);
        let repaired = list.stats().resumes > 0;
        let landed = [(a_saved, 20), (b_saved, 30), (repaired, 5)];
        assert!(
            landed.iter().any(|&(wrote, k)| wrote && last == Some(k)),
            "the slot holds the last write that landed: {last:?}, writes {landed:?}"
        );
        if repaired {
            if last == Some(5) {
                REPAIR_WON.fetch_add(1, Relaxed);
            } else {
                REPAIR_LOST.fetch_add(1, Relaxed);
            }
        }
        if let Err(e) = list.check_structure(0) {
            panic!("§3 invariant chain: {e}\nchain: {}", list.dump_chain());
        }
        list.audit_refcounts_with_entries(slot.roots().into_iter().chain(&roots))
            .expect("exact counts — writes and the repair move only the slot's own counts");
        assert!(
            list.retire_cache(&slot),
            "a quiescent retire empties the slot"
        );
        for root in &roots {
            list.retire_entry(root);
        }
        list.audit_refcounts().expect("exact counts after retire");
        assert_eq!(list.iter().collect::<Vec<u64>>(), vec![5, 20, 30, 40]);
        list.quiescent_collect();
        assert_eq!(list.mem_stats().live_nodes(), 3 + 2 * 4);
    });
    assert!(explored > 1, "model must branch, explored {explored}");
    let (won, lost) = (REPAIR_WON.load(Relaxed), REPAIR_LOST.load(Relaxed));
    assert!(
        won > 0 && lost > 0,
        "both write-vs-repair orders must be explored: the repair won in {won} and lost in \
         {lost} of {explored} schedules"
    );
}

/// Model 8 — the uncounted probe's grace rule: a prober pinned before a
/// save displaces its anchor reads that anchor while another thread
/// deletes the cell and tries to release the displaced count.
///
/// The list starts as `[10, 20, 30]` with the slot cached at `10`.
/// Thread P opens the nearest usable slot anchor for a search for `35`:
/// it pins, loads the slot and reads the anchor's key without a count.
/// Thread S saves a cursor anchored at `20` into the slot, displacing
/// `10`'s count. Thread D deletes `10` and then retires the slot, which
/// releases the displaced count only once its grace period has elapsed.
/// Once `10` is deleted, that count is the last one, so releasing it
/// while P may still read `10` would reclaim the cell under P's read
/// (the read's `kind() == Cell` assertion in `Node::item` catches it).
/// On every interleaving P reads a cell, its walk reaches `30`
/// (continuously present, I10), and the audit over the slot's roots is
/// exact before the final retire and after it.
#[test]
fn displaced_anchor_outlives_a_pinned_probe() {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    // Schedules in which P read the anchor `10` after S displaced it.
    static LATE_READS: AtomicU64 = AtomicU64::new(0);
    let explored = Builder::new().preemption_bound(1).check(|| {
        let shared: Arc<(List<u64>, CacheSlot<u64>, EntryRoot<u64>)> = Arc::new((
            List::with_config(ArenaConfig::new().initial_capacity(16).max_nodes(16)),
            CacheSlot::new(),
            EntryRoot::new(),
        ));
        {
            let (list, slot, at_20) = &*shared;
            for k in [30, 20, 10] {
                list.cursor().insert(k).expect("seed cells");
            }
            let mut c = list.cursor();
            assert!(c.get() == Some(&10) && c.next() && c.get() == Some(&20));
            assert!(list.cache_entry(slot, &c), "anchor 10 cached");
            assert!(list.publish_entry(at_20, &c), "private root at 20");
        }

        let prober = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (list, slot, _) = &*shared;
                if let Some(mut c) =
                    list.cursor_at_nearest(std::slice::from_ref(slot), |&k| k < 35, |a, b| a.cmp(b))
                {
                    while c.get().is_some_and(|&k| k < 30) {
                        assert!(c.next());
                    }
                    assert_eq!(c.get(), Some(&30), "resumed cursor lost cell 30");
                }
            })
        };
        let saver = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (list, slot, at_20) = &*shared;
                let c = list.cursor_at(at_20).expect("published");
                list.cache_entry(slot, &c)
            })
        };
        let deleter = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (list, slot, _) = &*shared;
                let mut d = list.cursor();
                assert!(d.get() == Some(&10) && d.try_delete(), "anchor 10 deleted");
                drop(d);
                list.retire_cache(slot);
            })
        };
        prober.join().unwrap();
        let saved = saver.join().unwrap();
        deleter.join().unwrap();

        let (mut list, slot, at_20) = Arc::try_unwrap(shared).ok().expect("all threads joined");
        if saved && list.stats().resumes > 0 {
            LATE_READS.fetch_add(1, Relaxed);
        }
        if let Err(e) = list.check_structure(0) {
            panic!("§3 invariant chain: {e}\nchain: {}", list.dump_chain());
        }
        list.audit_refcounts_with_entries(slot.roots().into_iter().chain([&at_20]))
            .expect("exact counts — the displaced count is declared");
        assert!(
            list.retire_cache(&slot),
            "a quiescent retire empties the slot"
        );
        list.retire_entry(&at_20);
        list.audit_refcounts().expect("exact counts after retire");
        assert_eq!(list.iter().collect::<Vec<u64>>(), vec![20, 30]);
    });
    assert!(explored > 1, "model must branch, explored {explored}");
    assert!(
        LATE_READS.load(Relaxed) > 0,
        "some schedule must open at the displaced anchor: {explored} explored"
    );
}
