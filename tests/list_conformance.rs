//! One conformance battery for the §3 list. Every body is generic over
//! the arena's [`Reclaimer`] and runs twice, as `refcount::<name>` and
//! `epoch::<name>` (the `battery!` macro at the bottom), so a regression
//! in either backend, or in the cursor code above the reclamation
//! boundary, fails by arm name.
//!
//! The bodies cover:
//!
//! * the Fig. 4 layout and the Figs. 5–10 cursor operations, prepared
//!   inserts, `retain`, capped pools and the operation counters;
//! * cell persistence (§2.2), including cursors parked on a cell that
//!   another thread deletes, and Fig. 12's lost-race exit;
//! * the Fig. 2 lost-insert and Fig. 3 undone-delete hazards, the §3
//!   theorem that auxiliary chains exist only during a `TryDelete`,
//!   §5's exact counts after churn and the return of every node to the
//!   free list, with `check_invariants` sampled live during the storms;
//! * live statistics, seeded scripts against a vector model, and a
//!   Miri-sized `smoke_` set
//!   (`cargo +nightly miri test --test list_conformance smoke_`).
//!
//! Every body ends with [`settle`]: the exact link-count audit, the
//! quiescent sweep, the strict shape check and the audit again, except
//! `values_drop_exactly_once`, which audits and then drops its lists
//! unswept so that the teardown meets pending garbage.
//!
//! Two tests run on one backend only, after the arms:
//! `many_cursors_on_same_position` is refcount-only because it hands
//! cloned cursors to other threads and `Cursor<_, Epoch>` is `!Send` (its
//! pin lives in the creating thread's slot); `epoch_arm_reports_epoch_traffic`
//! checks the epoch counters, which read zero under `RefCount`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

use valois::core::{ArenaConfig, Cursor, List, Reclaimer};
use valois::sync::rng::SmallRng;

mod common;
use common::{capped_config, threads};

/// The quiescent end of every body. The audit runs first, so a leaked or
/// double-released count on unreachable garbage (a deleted cell, a limbo
/// node, a back-link cycle) fails before the sweep frees it. Then the
/// sweep (draining limbo first under `Epoch`), the strict §3 shape and
/// the audit again. Returns how many nodes the sweep freed, which is
/// zero unless back-link cycles formed.
fn settle<T: Send + Sync, R: Reclaimer>(list: &mut List<T, R>) -> usize {
    list.audit_refcounts()
        .unwrap_or_else(|e| panic!("before the sweep: {e}"));
    let swept = list.quiescent_collect();
    list.check_structure(0).unwrap();
    list.audit_refcounts()
        .unwrap_or_else(|e| panic!("after sweeping {swept}: {e}"));
    swept
}

fn items<R: Reclaimer>(list: &List<u64, R>) -> Vec<u64> {
    list.iter().collect()
}

fn capped<T: Send + Sync, R: Reclaimer>(nodes: usize) -> List<T, R> {
    List::with_config(capped_config(nodes))
}

/// Samples the instantaneous §3/§5 invariants on the calling thread until
/// every worker has finished.
fn check_live<T: Send + Sync, R: Reclaimer>(
    list: &List<T, R>,
    workers: &[ScopedJoinHandle<'_, ()>],
) {
    while !workers.iter().all(|w| w.is_finished()) {
        list.check_invariants().expect("invariants mid-storm");
    }
}

/// Fig. 13's retry loop: walks `c` from the front to `v` and deletes it.
fn delete_value<R: Reclaimer>(c: &mut Cursor<'_, u64, R>, v: u64) {
    c.seek_first();
    loop {
        match c.get() {
            Some(&x) if x == v => {
                if c.try_delete() {
                    return;
                }
                c.resume();
            }
            Some(_) => assert!(c.next(), "walked past {v}"),
            None => panic!("{v} vanished without our delete"),
        }
    }
}

/// Counts its drops in a shared counter.
struct Probe(Arc<AtomicUsize>);

impl Drop for Probe {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Sequential behaviour: layout (Fig. 4), traversal (Figs. 5-7),
// insertion (Figs. 8-9), deletion (Fig. 10), persistence (§2.2).
// ---------------------------------------------------------------------

/// An empty list is two dummies separated by one auxiliary node, and a
/// cursor on it is at the end: it can neither advance nor delete.
fn empty_list_layout_fig4<R: Reclaimer>() {
    let mut list: List<u64, R> = List::new();
    list.audit_refcounts().unwrap();
    assert!(list.is_empty());
    assert_eq!(list.len(), 0);
    let report = list.aux_chain_report();
    assert_eq!((report.cells, report.aux, report.runs_ge2), (0, 1, 0));
    {
        let mut cur = list.cursor();
        assert!(cur.is_at_end());
        assert!(cur.get().is_none());
        assert!(!cur.next(), "Next at end must return false (Fig. 7 line 2)");
        assert!(!cur.try_delete(), "cannot delete the end position");
        cur.insert(1).unwrap();
        cur.update();
        assert!(cur.try_delete());
    }
    assert_eq!(settle(&mut list), 0);
}

/// An insert lands before the visited position, so inserting at the end
/// position appends. A successful insert leaves the cursor invalid until
/// `update`, which visits the new cell.
fn insert_before_position_and_append<R: Reclaimer>() {
    let mut list: List<u64, R> = List::new();
    {
        let mut cur = list.cursor();
        cur.insert(10).unwrap();
        cur.update();
        assert_eq!(cur.get(), Some(&10));
        list.cursor().insert(20).unwrap();
        assert_eq!(items(&list), [20, 10]);
        for i in 0..5 {
            while cur.next() {}
            cur.insert(i).unwrap();
            cur.update();
        }
    }
    assert_eq!(items(&list), [20, 10, 0, 1, 2, 3, 4]);
    settle(&mut list);
}

/// `FromIterator`, `iter`, `for_each`, `len` and `&List: IntoIterator`
/// agree on order and count, and a clean list has nothing to sweep.
fn iteration_agrees<R: Reclaimer>() {
    let mut list: List<u64, R> = (0..100).collect();
    assert_eq!(items(&list), (0..100).collect::<Vec<_>>());
    assert_eq!(list.len(), 100);
    assert_eq!(list.len(), list.iter().count());
    let mut seen = Vec::new();
    list.for_each(|v| seen.push(*v));
    assert_eq!(seen, (0..100).collect::<Vec<_>>());
    let mut sum = 0;
    for v in &list {
        sum += v;
    }
    assert_eq!(sum, 4950);
    assert_eq!(settle(&mut list), 0, "a clean list has no garbage");
    assert_eq!(list.len(), 100);
}

/// Deleting the first, a middle and the last cell; deleting everything
/// returns the list to the Fig. 4 layout with no auxiliary chain left
/// (the §3 theorem).
fn delete_positions_fig10<R: Reclaimer>() {
    for (n, v, want) in [
        (3, 0, vec![1, 2]),
        (5, 2, vec![0, 1, 3, 4]),
        (4, 3, vec![0, 1, 2]),
    ] {
        let mut list: List<u64, R> = (0..n).collect();
        let mut cur = list.cursor();
        while cur.get() != Some(&v) {
            assert!(cur.next());
        }
        assert!(cur.try_delete());
        drop(cur);
        assert_eq!(items(&list), want);
        settle(&mut list);
    }
    let mut list: List<u64, R> = (0..10).collect();
    loop {
        let mut cur = list.cursor();
        if cur.is_at_end() {
            break;
        }
        assert!(cur.try_delete());
    }
    assert!(list.is_empty());
    let report = list.aux_chain_report();
    assert_eq!(
        report.aux, 1,
        "empty list must be back to a single aux node"
    );
    assert_eq!(report.runs_ge2, 0);
    settle(&mut list);
}

/// Cell persistence (§2.2): a cursor visiting a cell another cursor
/// deleted still reads its contents and keeps traversing to live items.
fn deleted_cell_remains_readable_through_cursor<R: Reclaimer>() {
    let mut list: List<String, R> = ["a", "b", "c"].into_iter().map(String::from).collect();
    {
        let mut observer = list.cursor();
        assert!(observer.next());
        assert_eq!(observer.get().map(String::as_str), Some("b"));
        let mut deleter = list.cursor();
        while deleter.get().map(String::as_str) != Some("b") {
            assert!(deleter.next());
        }
        assert!(deleter.try_delete());
        drop(deleter);
        assert_eq!(observer.get().map(String::as_str), Some("b"));
        assert!(observer.next());
        assert_eq!(observer.get().map(String::as_str), Some("c"));
    }
    assert_eq!(list.iter().collect::<Vec<_>>(), ["a", "c"]);
    settle(&mut list);
}

/// A cursor made stale by another's delete fails `try_delete`, and
/// `try_insert` hands the prepared pair back; after `update` both land.
fn stale_cursor_fails_until_update<R: Reclaimer>() {
    let mut list: List<u64, R> = (0..4).collect();
    {
        let mut a = list.cursor();
        let mut b = list.cursor();
        assert!(b.try_delete());
        drop(b);
        // `a`'s CAS expects the old successor.
        assert!(!a.try_delete());
        let prepared = list.prepare_insert(99).unwrap();
        let Err(prepared) = a.try_insert(prepared) else {
            panic!("insert through a stale cursor must fail");
        };
        assert_eq!(*prepared.value(), 99);
        a.update();
        assert_eq!(a.get(), Some(&1));
        assert!(a.try_delete(), "after update the delete must succeed");
        a.update();
        a.try_insert(prepared)
            .expect("valid cursor insert succeeds");
    }
    assert_eq!(items(&list), [99, 2, 3]);
    settle(&mut list);
}

/// An unused `PreparedInsert` gives its two nodes back when dropped, and
/// a prepared pair can be published from another thread.
fn prepared_inserts<R: Reclaimer>() {
    let mut list: List<u64, R> = List::new();
    let live_before = list.mem_stats().live_nodes();
    drop(list.prepare_insert(7).unwrap());
    assert_eq!(
        settle(&mut list),
        0,
        "the dropped pair was freed, not leaked"
    );
    assert_eq!(list.mem_stats().live_nodes(), live_before);
    let prepared = list.prepare_insert(5).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            list.cursor()
                .try_insert(prepared)
                .expect("insert from another thread");
        });
    });
    assert_eq!(items(&list), [5]);
    settle(&mut list);
}

/// A capped pool reports exhaustion as an error and a delete frees
/// capacity again; 100 insert/delete cycles through 16 nodes are only
/// possible with recycling.
fn capped_pool_exhaustion_and_recycling<R: Reclaimer>() {
    let mut list: List<u64, R> = capped(8);
    {
        // 3 nodes for the empty list; each item needs 2, so 2 items fit.
        let mut cur = list.cursor();
        cur.insert(1).unwrap();
        cur.insert(2).unwrap();
        assert!(list.prepare_insert(3).is_err());
        cur.seek_first();
        assert!(cur.try_delete());
    }
    assert!(list.prepare_insert(3).is_ok());
    settle(&mut list);

    // Under `Epoch` each round's garbage chains onto the last (a retired
    // aux holds the next one's count), a chain frees one link per grace
    // period, and an operation's own pin lets at most one epoch advance
    // happen inside it. A refused insert follows the backend contract
    // (`Arena::shed_memory`): drop the cursor, shed, retry. One shed must
    // always suffice, and the counted backend, which recycles at once,
    // must never need it.
    let mut list: List<u64, R> = capped(16);
    let mut sheds = 0;
    for round in 0..100 {
        let mut cur = list.cursor();
        if cur.insert(round).is_err() {
            drop(cur);
            sheds += 1;
            list.shed_memory();
            cur = list.cursor();
            cur.insert(round).expect("one shed frees the pool");
        }
        cur.update();
        assert!(cur.try_delete());
    }
    assert!(
        sheds == 0 || !R::COUNTED_READS,
        "{sheds} sheds under RefCount"
    );
    assert_eq!(list.node_capacity(), 16);
    assert!(list.mem_stats().allocs >= 200);
    settle(&mut list);
}

/// `seek_first` repositions at the first item; a clone keeps its own
/// position and can delete there.
fn seek_first_and_clone<R: Reclaimer>() {
    let mut list: List<u64, R> = (0..4).collect();
    {
        let mut a = list.cursor();
        let mut b = a.clone();
        assert!(a.next());
        assert_eq!(a.get(), Some(&1));
        assert!(a.next());
        assert_eq!(a.get(), Some(&2));
        assert_eq!(b.get(), Some(&0), "clone keeps its own position");
        a.seek_first();
        assert_eq!(a.get(), Some(&0));
        assert!(b.try_delete());
    }
    assert_eq!(items(&list), [1, 2, 3]);
    settle(&mut list);
}

fn stats_count_operations<R: Reclaimer>() {
    let mut list: List<u64, R> = List::new();
    {
        let mut cur = list.cursor();
        cur.insert(1).unwrap();
        cur.update(); // a successful insert leaves the cursor invalid
        cur.insert(2).unwrap();
        cur.update();
        assert!(cur.try_delete());
        // The cursor batches its events; flush before sampling.
        cur.flush_stats();
        let stats = list.stats();
        assert_eq!(stats.insert_successes, 2);
        assert_eq!(stats.delete_successes, 1);
        assert!(stats.updates >= 3);
        assert_eq!(
            stats.insert_retries(),
            0,
            "sequential inserts through a revalidated cursor never retry"
        );
    }
    settle(&mut list);
}

/// The scenario that looks as if it should leak: delete b through a
/// cursor whose pre_cell is a (so b's back-link points at a), then
/// delete a. DESIGN.md §1 note 3 argues no reference cycle can form (the
/// deletion CAS severs the unique next-edge into the dying cell): the
/// sweep finds nothing, so counting alone reclaimed everything.
fn adjacent_stale_deletions_leave_no_garbage<R: Reclaimer>() {
    let mut list: List<u64, R> = (0..2).collect();
    {
        let mut at_b = list.cursor();
        assert!(at_b.next());
        assert_eq!(at_b.get(), Some(&1));
        let mut at_a = list.cursor();
        assert_eq!(at_a.get(), Some(&0));
        assert!(at_b.try_delete(), "delete b (back_link -> a)");
        assert!(at_a.try_delete(), "delete a");
    }
    assert!(list.is_empty());
    assert_eq!(settle(&mut list), 0, "no cycle garbage");
    assert_eq!(list.mem_stats().live_nodes(), 3, "only the empty skeleton");
    // The reclaimed nodes are reusable.
    let mut cur = list.cursor();
    for i in 0..4 {
        cur.insert(i).unwrap();
        cur.update();
    }
    drop(cur);
    assert_eq!(list.len(), 4);
    settle(&mut list);
}

/// A cursor whose pre_cell was deleted can still delete its target: its
/// pre_aux link is intact, so the CAS lands and the back-link walk (Fig.
/// 10 lines 7-11) recovers through the deleted predecessor.
fn stale_cursor_delete_after_predecessor_removed<R: Reclaimer>() {
    let mut list: List<u64, R> = (0..3).collect();
    let mut at_b = list.cursor();
    assert!(at_b.next()); // pre_cell = a, target = b
    assert!(list.cursor().try_delete(), "delete a out from under at_b");
    assert!(at_b.try_delete(), "stale-pre_cell delete must succeed");
    drop(at_b);
    assert_eq!(items(&list), [2]);
    assert_eq!(settle(&mut list), 0, "still no garbage");
    assert_eq!(list.mem_stats().live_nodes(), 3 + 2);
}

fn retain_keeps_matching_items<R: Reclaimer>() {
    let mut list: List<u64, R> = (0..20).collect();
    assert_eq!(list.retain(|v| v % 3 == 0), 13);
    assert_eq!(items(&list), [0, 3, 6, 9, 12, 15, 18]);
    assert_eq!(list.retain(|_| true), 0);
    assert_eq!(list.len(), 7);
    assert_eq!(list.retain(|_| false), 7);
    assert!(list.is_empty());
    settle(&mut list);
}

fn refcount_audit_clean_after_sequential_ops<R: Reclaimer>() {
    let mut list: List<u64, R> = (0..32).collect();
    let mut cur = list.cursor();
    for _ in 0..10 {
        assert!(cur.try_delete());
        cur.update();
        cur.insert(99).unwrap();
        cur.update();
    }
    drop(cur);
    settle(&mut list);
}

/// Every value drops exactly once, whether through a delete or at the
/// list's drop: sequentially with half the cells deleted, then after a
/// four-thread insert/delete run. Each list is audited and dropped
/// unswept, so the teardown (the root-release cascade and its final
/// sweep) meets what the deletes left pending: under `Epoch`, cells
/// still parked in limbo.
fn values_drop_exactly_once<R: Reclaimer>() {
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let mut list: List<Probe, R> = List::new();
        let mut c = list.cursor();
        for _ in 0..50 {
            c.insert(Probe(drops.clone())).unwrap();
        }
        c.seek_first();
        for _ in 0..25 {
            assert!(c.try_delete());
            c.update();
        }
        drop(c);
        if R::COUNTED_READS {
            assert_eq!(
                drops.load(Ordering::Relaxed),
                25,
                "counted deletes drop at once"
            );
        } else {
            assert!(
                list.mem_stats().epoch_limbo_depth > 0,
                "the teardown must meet limbo"
            );
        }
        list.audit_refcounts().unwrap();
    }
    assert_eq!(
        drops.load(Ordering::Relaxed),
        50,
        "deleted and remaining values dropped"
    );

    drops.store(0, Ordering::Relaxed);
    let inserted = AtomicUsize::new(0);
    {
        let mut list: List<Probe, R> = List::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut cur = list.cursor();
                    for i in 0..500 {
                        cur.insert(Probe(drops.clone())).unwrap();
                        inserted.fetch_add(1, Ordering::Relaxed);
                        cur.update();
                        if i % 3 == 0 {
                            cur.seek_first();
                            cur.try_delete();
                        }
                    }
                });
            }
        });
        list.audit_refcounts().unwrap();
    }
    assert_eq!(
        drops.load(Ordering::Relaxed),
        inserted.load(Ordering::Relaxed),
        "every value dropped exactly once across delete and teardown"
    );
}

// ---------------------------------------------------------------------
// Cursors parked on a cell another thread deletes.
// ---------------------------------------------------------------------

/// A cursor visiting the head cell, or the tail cell, keeps working after
/// another thread deletes that cell: the value persists until `update`,
/// which lands on the new head, or on the end position.
fn parked_cursor_survives_concurrent_delete_of_target<R: Reclaimer>() {
    for target in [1, 3] {
        let mut list: List<u64, R> = (1..=3).collect();
        let mut c = list.cursor();
        while c.get() != Some(&target) {
            assert!(c.next(), "{target} must be reachable");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                delete_value(&mut list.cursor(), target);
                list.check_invariants().expect("invariants after delete");
            });
        });
        assert_eq!(
            c.get(),
            Some(&target),
            "deleted cell must persist for its cursor"
        );
        list.check_invariants()
            .expect("invariants with a stale cursor alive");
        c.update();
        if target == 1 {
            assert_eq!(c.get(), Some(&2));
        } else {
            assert_eq!(c.get(), None, "cursor past the deleted tail is at the end");
            assert!(c.is_at_end());
            assert!(!c.try_delete(), "nothing to delete at the end position");
        }
        drop(c);
        assert_eq!(
            items(&list),
            (1..=3).filter(|&v| v != target).collect::<Vec<_>>()
        );
        settle(&mut list);
    }
}

/// Inserting through a cursor whose target another thread deleted: the
/// Fig. 12 retry loop repositions and lands the insertion exactly once.
fn insert_through_cursor_with_deleted_target_lands_once<R: Reclaimer>() {
    let mut list: List<u64, R> = (1..=3).collect();
    let mut c = list.cursor();
    assert!(c.next(), "position on the middle cell");
    assert_eq!(c.get(), Some(&2));
    std::thread::scope(|s| {
        s.spawn(|| delete_value(&mut list.cursor(), 2));
    });
    c.insert(99).expect("pool is uncapped");
    list.check_invariants()
        .expect("invariants after stale-cursor insert");
    drop(c);
    let mut all = items(&list);
    all.sort_unstable();
    assert_eq!(all, [1, 3, 99]);
    settle(&mut list);
}

/// Draining the whole list out from under a parked head cursor: the
/// stale cursor's reposition reaches the end position cleanly.
fn head_cursor_survives_full_concurrent_drain<R: Reclaimer>() {
    let mut list: List<u64, R> = (1..=16).collect();
    let mut c = list.cursor();
    assert_eq!(c.get(), Some(&1));
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut d = list.cursor();
                loop {
                    d.seek_first();
                    if d.is_at_end() {
                        break;
                    }
                    d.try_delete();
                }
            });
        }
        for _ in 0..64 {
            list.check_invariants().expect("invariants mid-drain");
        }
    });
    c.update();
    assert!(c.is_at_end(), "drained list leaves only the end position");
    drop(c);
    assert!(list.is_empty());
    settle(&mut list);
}

/// Fig. 12's lost-race exit, made deterministic on one thread: cursor A
/// positions for `20`, cursor B links `20` first, and A's
/// `insert_unique` must fail its CAS, resume, find B's item and return
/// `false`, dropping A's prepared cell without leaking a count.
fn insert_unique_lost_race_drops_prepared_cell<R: Reclaimer>() {
    let mut list: List<u64, R> = [10, 30].into_iter().collect();
    {
        let mut a = list.cursor();
        assert!(!a.find_from(|x| x.cmp(&20)));
        let prepared = list.prepare_insert(20).expect("pool is uncapped");

        let mut b = list.cursor();
        assert!(!b.find_from(|x| x.cmp(&20)));
        let winner = list.prepare_insert(20).expect("pool is uncapped");
        assert!(b.insert_unique(winner, |x, new| x.cmp(new)));
        drop(b);

        assert!(
            !a.insert_unique(prepared, |x, new| x.cmp(new)),
            "an equal item won the race"
        );
        assert_eq!(a.get(), Some(&20), "the loser visits the winner's item");
    }
    assert_eq!(items(&list), [10, 20, 30]);
    settle(&mut list);
}

// ---------------------------------------------------------------------
// Concurrent behaviour: the Fig. 2/3 hazards must not occur, the §3
// theorem holds at quiescence, and §5 keeps counts exact under churn.
// ---------------------------------------------------------------------

/// The Fig. 2 hazard: an insert concurrent with structural changes being
/// lost. Two runs at full thread count: every thread revalidates after
/// each insert, then every thread inserts through an invalid cursor and
/// goes back to the front every 16 inserts.
fn concurrent_inserts_lose_nothing<R: Reclaimer>() {
    let (threads, per) = (threads(), 500u64);
    for revalidate in [true, false] {
        let mut list: List<u64, R> = List::new();
        std::thread::scope(|s| {
            for t in 0..threads {
                let list = &list;
                s.spawn(move || {
                    let mut cur = list.cursor();
                    for i in 0..per {
                        cur.insert(t * per + i).unwrap();
                        if revalidate {
                            cur.update();
                        } else if i % 16 == 0 {
                            cur.seek_first();
                        }
                    }
                });
            }
        });
        let mut all = items(&list);
        all.sort_unstable();
        assert_eq!(
            all,
            (0..threads * per).collect::<Vec<_>>(),
            "no insert may be lost (Fig. 2), revalidate = {revalidate}"
        );
        settle(&mut list);
    }
}

/// The Fig. 3 hazard: concurrent deletion of adjacent cells resurrecting
/// one of them. Four threads repeatedly delete the first item: every
/// item is deleted exactly once and nothing reappears.
fn concurrent_adjacent_deletes_do_not_undo_each_other<R: Reclaimer>() {
    for _ in 0..20 {
        let n = 64u64;
        let mut list: List<u64, R> = (0..n).collect();
        let deleted = AtomicU64::new(0);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut cur = list.cursor();
                        loop {
                            cur.seek_first();
                            if cur.is_at_end() {
                                break;
                            }
                            if cur.try_delete() {
                                deleted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            check_live(&list, &workers);
        });
        assert_eq!(
            deleted.load(Ordering::Relaxed),
            n,
            "every item deleted exactly once (Fig. 3)"
        );
        assert!(list.is_empty());
        settle(&mut list);
    }
}

/// Two churns on one list, invariants sampled live through both. First
/// each thread owns 32 keys and inserts them, then finds and deletes
/// them, for 40 rounds: the list ends empty. Then three inserters append
/// while two deleters remove from the front: inserted = deleted +
/// remaining.
fn insert_delete_churn_is_conserved<R: Reclaimer>() {
    let mut list: List<u64, R> = List::new();
    let (keys_per, rounds) = (32u64, 40u64);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads())
            .map(|t| {
                let list = &list;
                s.spawn(move || {
                    for round in 0..rounds {
                        let mut c = list.cursor();
                        for key in t * keys_per..(t + 1) * keys_per {
                            if round % 2 == 0 {
                                c.insert(key).unwrap();
                            } else {
                                delete_value(&mut c, key);
                            }
                        }
                    }
                })
            })
            .collect();
        check_live(&list, &workers);
    });
    // rounds is even, so every key's last round was a delete.
    assert!(list.is_empty(), "{} items survived", list.len());

    let (inserted, deleted) = (AtomicU64::new(0), AtomicU64::new(0));
    let rounds = 2_000u64;
    std::thread::scope(|s| {
        let mut workers: Vec<_> = (0..3u64)
            .map(|t| {
                let (list, inserted) = (&list, &inserted);
                s.spawn(move || {
                    let mut cur = list.cursor();
                    for i in 0..rounds {
                        cur.insert(t * rounds + i).unwrap();
                        inserted.fetch_add(1, Ordering::Relaxed);
                        cur.update();
                    }
                })
            })
            .collect();
        workers.extend((0..2).map(|_| {
            s.spawn(|| {
                let mut cur = list.cursor();
                for _ in 0..rounds {
                    cur.seek_first();
                    if !cur.is_at_end() && cur.try_delete() {
                        deleted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        }));
        check_live(&list, &workers);
    });
    assert_eq!(
        inserted.load(Ordering::Relaxed),
        deleted.load(Ordering::Relaxed) + list.len() as u64,
        "conservation: inserted = deleted + remaining"
    );
    settle(&mut list);
}

/// §3 theorem: chains of two or more auxiliary nodes exist only while a
/// `TryDelete` is in progress. Four threads each delete one residue mod
/// 4, forcing adjacent concurrent deletions; after they join, no chain
/// remains.
fn aux_chain_theorem_holds_at_quiescence<R: Reclaimer>() {
    for _ in 0..10 {
        let mut list: List<u64, R> = (0..128).collect();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = &list;
                s.spawn(move || {
                    let mut cur = list.cursor();
                    loop {
                        let mut deleted_any = false;
                        cur.seek_first();
                        loop {
                            match cur.get().copied() {
                                Some(v) if v % 4 == t => {
                                    deleted_any |= cur.try_delete();
                                    cur.update();
                                }
                                Some(_) if cur.next() => {}
                                _ => break,
                            }
                        }
                        if !deleted_any {
                            break;
                        }
                    }
                });
            }
        });
        assert!(list.is_empty(), "all items residue-deleted");
        let report = list.aux_chain_report();
        assert_eq!(
            report.runs_ge2, 0,
            "no auxiliary chains after deletions complete (§3)"
        );
        assert_eq!(report.aux, 1, "empty list has exactly one auxiliary node");
        settle(&mut list);
    }
}

/// After a heavy mixed run with every cursor dropped and the cycles
/// swept, the live nodes are exactly the reachable structure and every
/// count equals its node's in-degree.
fn reference_counts_are_exact_after_churn<R: Reclaimer>() {
    let mut list: List<u64, R> = List::with_config(ArenaConfig::new().initial_capacity(4096));
    std::thread::scope(|s| {
        for t in 0..threads() {
            let list = &list;
            s.spawn(move || {
                let mut cur = list.cursor();
                for i in 0..2_000u64 {
                    if i % 3 < 2 {
                        cur.insert(t * 10_000 + i).unwrap();
                        cur.update();
                    } else {
                        cur.seek_first();
                        if !cur.is_at_end() {
                            cur.try_delete();
                        }
                    }
                }
            });
        }
    });
    let swept = settle(&mut list);
    // Two dummies, then one aux per item plus the trailing one.
    assert_eq!(
        list.mem_stats().live_nodes(),
        3 + 2 * list.len() as u64,
        "after sweeping {swept}, live nodes must be exactly the reachable structure"
    );
}

/// The leak test for the batching layers: after mixed
/// insert/delete/traverse stress, deleting everything and flushing the
/// per-thread magazines returns every node to the free structure with a
/// count of exactly 1, the free list's incoming link. A node parked in a
/// magazine, an undrained deferred release, or a leaked or double count
/// all fail the audit.
fn nodes_return_to_free_list_with_exact_counts<R: Reclaimer>() {
    let mut list: List<u64, R> = List::with_config(ArenaConfig::new().initial_capacity(512));
    std::thread::scope(|s| {
        for t in 0..threads() {
            let list = &list;
            s.spawn(move || {
                let mut cur = list.cursor();
                for i in 0..1_500u64 {
                    match i % 4 {
                        0 | 1 => {
                            cur.insert(t * 10_000 + i).unwrap();
                            cur.update();
                        }
                        2 => {
                            // A stretch of hops: the deferred-release path.
                            let mut hops = 0;
                            while cur.next() && hops < 32 {
                                hops += 1;
                            }
                            cur.seek_first();
                        }
                        _ => {
                            if !cur.is_at_end() {
                                cur.try_delete();
                            }
                            cur.update();
                        }
                    }
                }
                // Dropping the cursor drains its deferred buffer.
            });
        }
    });
    list.retain(|_| false);
    assert_eq!(list.len(), 0);
    settle(&mut list);
    assert_eq!(
        list.mem_stats().live_nodes(),
        3,
        "only the empty skeleton (2 dummies + 1 aux) stays checked out"
    );
    list.check_invariants().unwrap();
}

/// Two retains with complementary predicates race: `try_delete`
/// arbitrates, so together they delete every item exactly once.
fn concurrent_retain_partitions_exactly<R: Reclaimer>() {
    for _ in 0..20 {
        let mut list: List<u64, R> = (0..128).collect();
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for parity in 0..2 {
                let (list, total) = (&list, &total);
                s.spawn(move || {
                    total.fetch_add(list.retain(|v| v % 2 == parity), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 128);
        assert!(list.is_empty());
        settle(&mut list);
    }
}

/// Values are `(x, !x)` pairs: a torn read, or a cell reclaimed and
/// reused under a reader, breaks the pair. Two phases of two writers,
/// each under three readers that walk until both writers are done.
/// First the writers open a fresh cursor per insert (so the epoch arm
/// can recycle under the readers), one deleting from the front after
/// every insert, the other after every second. Then each writer keeps
/// one cursor, revalidating it with `update`, and deletes after every
/// second insert.
fn readers_never_see_torn_values<R: Reclaimer>() {
    let mut list: List<(u64, u64), R> = List::new();
    let write = |c: &mut Cursor<'_, (u64, u64), R>, v: u64, delete: bool| {
        c.insert((v, !v)).unwrap();
        c.update();
        if delete {
            c.seek_first();
            if !c.is_at_end() {
                c.try_delete();
            }
        }
    };
    for long_lived in [false, true] {
        let stop = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (list, stop) = (&list, &stop);
                s.spawn(move || {
                    let values = t * 3_000..(t + 1) * 3_000;
                    if long_lived {
                        let mut c = list.cursor();
                        values.for_each(|v| write(&mut c, v, v % 2 == 0));
                    } else {
                        values.for_each(|v| write(&mut list.cursor(), v, t == 0 || v % 2 == 0));
                    }
                    stop.fetch_add(1, Ordering::Release);
                });
            }
            for _ in 0..3 {
                s.spawn(|| {
                    while stop.load(Ordering::Acquire) < 2 {
                        list.for_each(|&(a, b)| {
                            assert_eq!(b, !a, "torn or recycled-under-read value")
                        });
                    }
                });
            }
        });
    }
    settle(&mut list);
}

/// A 64-node pool under four threads of inserts and deletes: inserts may
/// fail, but the pool never grows.
fn capped_pool_under_concurrency_never_over_allocates<R: Reclaimer>() {
    let mut list: List<u64, R> = capped(64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut cur = list.cursor();
                for i in 0..1_000u64 {
                    if cur.insert(i).is_ok() {
                        cur.update();
                    }
                    cur.seek_first();
                    if !cur.is_at_end() {
                        cur.try_delete();
                    }
                }
            });
        }
    });
    assert_eq!(list.node_capacity(), 64, "capped pool must not grow");
    settle(&mut list);
}

/// A pool far smaller than the op count (1600 ops of ~2 nodes against
/// 1024): every round's cells must come back through the backend's
/// reclamation path (the Reclaim cascade under `RefCount`; retire, grace
/// period, drain under `Epoch`). The pool leaves epoch headroom: the
/// grace period legitimately parks about two epochs' worth of
/// retirements per thread in limbo.
fn capped_pool_recycles_through_churn<R: Reclaimer>() {
    let mut list: List<u64, R> = capped(1024);
    let (threads, skipped) = (4u64, AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..threads {
            let (list, skipped) = (&list, &skipped);
            s.spawn(move || {
                'ops: for i in 0..400u64 {
                    // Transient exhaustion is legal mid-churn (magazines
                    // and in-flight retirements park nodes). The service
                    // contract applies: close the protection window, shed,
                    // and retry. The yield lets a descheduled pinned
                    // thread run and unpin, or no epoch can advance.
                    let mut attempts = 0;
                    let mut c = loop {
                        let mut c = list.cursor();
                        if c.insert(t * 1_000_000 + i).is_ok() {
                            break c;
                        }
                        drop(c);
                        attempts += 1;
                        if attempts > 16 {
                            skipped.fetch_add(1, Ordering::Relaxed);
                            continue 'ops;
                        }
                        list.shed_memory();
                        std::thread::yield_now();
                    };
                    c.update();
                    while !c.try_delete() {
                        c.resume();
                    }
                }
            });
        }
    });
    assert!(list.is_empty());
    assert_eq!(list.node_capacity(), 1024, "capped pool must not grow");
    let skipped = skipped.load(Ordering::Relaxed);
    assert!(
        skipped < threads * 200,
        "reclamation must keep the pool usable: {skipped}/{} ops skipped",
        threads * 400
    );
    settle(&mut list);
}

// ---------------------------------------------------------------------
// Live statistics: a cursor batches its tallies, and a periodic
// auto-flush publishes them while it is still alive (a monitoring
// thread sampling a long-lived cursor once read counters frozen at the
// cursor's creation).
// ---------------------------------------------------------------------

/// A long-lived cursor walks far past the 256-update auto-flush window;
/// the shared counters advance before it drops.
fn live_stats_advance_mid_operation<R: Reclaimer>() {
    let mut list: List<u64, R> = (0..2048).collect();
    let ops_before = list.stats();
    let mem_before = list.mem_stats();
    let mut cur = list.cursor();
    for _ in 0..1500 {
        assert!(cur.next());
    }
    // At least 1500 - 255 steps are guaranteed visible.
    let live = list.stats().since(&ops_before);
    assert!(
        live.next_steps >= 1024,
        "live counters stale while cursor alive: only {} next_steps visible",
        live.next_steps
    );
    assert!(live.updates >= 1024, "updates stale: {}", live.updates);
    if R::COUNTED_READS {
        let mem_live = list.mem_stats().since(&mem_before);
        assert!(
            mem_live.safe_reads >= 1024,
            "protocol counters stale while cursor alive: {} safe_reads",
            mem_live.safe_reads
        );
    }
    assert!(cur.get().is_some(), "cursor still positioned on an item");
    // Drop publishes the remainder.
    drop(cur);
    let total = list.stats().since(&ops_before);
    assert!(total.next_steps >= 1500, "lost steps: {}", total.next_steps);
    settle(&mut list);
}

/// Mutation counters advance live too.
fn live_mutation_counters_advance<R: Reclaimer>() {
    let mut list: List<u64, R> = List::new();
    let before = list.stats();
    let mut cur = list.cursor();
    for i in 0..400 {
        cur.insert(i).unwrap();
        cur.update();
        assert!(cur.try_delete());
        cur.update();
    }
    let live = list.stats().since(&before);
    assert!(
        live.insert_successes >= 256,
        "live insert counters stale: {}",
        live.insert_successes
    );
    assert!(
        live.delete_successes >= 256,
        "live delete counters stale: {}",
        live.delete_successes
    );
    drop(cur);
    let total = list.stats().since(&before);
    assert_eq!(total.insert_successes, 400);
    assert_eq!(total.delete_successes, 400);
    settle(&mut list);
}

/// `flush_stats` forces everything out at once, and resets the
/// auto-flush window rather than double-counting.
fn explicit_flush_still_exact<R: Reclaimer>() {
    let mut list: List<u64, R> = (0..64).collect();
    let before = list.stats();
    let mut cur = list.cursor();
    for _ in 0..10 {
        assert!(cur.next());
    }
    cur.flush_stats();
    assert_eq!(list.stats().since(&before).next_steps, 10);
    drop(cur);
    assert_eq!(
        list.stats().since(&before).next_steps,
        10,
        "drop after flush must not double-count"
    );
    settle(&mut list);
}

// ---------------------------------------------------------------------
// Seeded scripts (fixed seeds; a failure names its case number).
// ---------------------------------------------------------------------

enum ListOp {
    /// Move the cursor n steps forward (saturating at the end).
    Advance(u8),
    SeekFirst,
    /// Insert before the cursor position.
    Insert(u16),
    /// Delete the item at the cursor position.
    Delete,
}

fn random_script(rng: &mut SmallRng) -> Vec<ListOp> {
    let len = rng.gen_range(1..150usize);
    (0..len)
        .map(|_| match rng.gen_range(0..4u8) {
            0 => ListOp::Advance(rng.gen_range(0..6u8)),
            1 => ListOp::SeekFirst,
            2 => ListOp::Insert(rng.next_u64() as u16),
            _ => ListOp::Delete,
        })
        .collect()
}

/// A cursor driven by random scripts agrees at every step with a
/// `Vec<u16>` and an index.
fn cursor_matches_vec_model<R: Reclaimer>() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x11F7_0001 ^ (case * 0x9E37));
        let mut list: List<u16, R> = List::new();
        let mut cursor = list.cursor();
        let mut model: Vec<u16> = Vec::new();
        let mut pos = 0; // model.len() at the end position
        for (i, op) in random_script(&mut rng).into_iter().enumerate() {
            match op {
                ListOp::Advance(n) => {
                    for _ in 0..n {
                        let moved = cursor.next();
                        assert_eq!(moved, pos < model.len(), "case {case} op {i}: next");
                        pos = (pos + 1).min(model.len());
                    }
                }
                ListOp::SeekFirst => {
                    cursor.seek_first();
                    pos = 0;
                }
                ListOp::Insert(v) => {
                    cursor.insert(v).unwrap();
                    model.insert(pos, v);
                    // Update repositions at the inserted cell (same index).
                    cursor.update();
                }
                ListOp::Delete => {
                    let deleted = cursor.try_delete();
                    assert_eq!(deleted, pos < model.len(), "case {case} op {i}: delete");
                    if deleted {
                        model.remove(pos);
                        cursor.update();
                    }
                }
            }
            assert_eq!(
                cursor.get().copied(),
                model.get(pos).copied(),
                "case {case} op {i}: value"
            );
            assert_eq!(
                cursor.is_at_end(),
                pos >= model.len(),
                "case {case} op {i}: end state"
            );
        }
        drop(cursor);
        assert_eq!(
            list.iter().collect::<Vec<_>>(),
            model,
            "case {case}: final contents"
        );
        settle(&mut list);
    }
}

/// After any edit script the structure is well-formed, nothing needs
/// sweeping, and every node is accounted for.
fn structure_and_memory_conserved<R: Reclaimer>() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x11F7_0002 ^ (case * 0x9E37));
        let mut list: List<u16, R> = List::with_config(ArenaConfig::new().initial_capacity(64));
        let mut cursor = list.cursor();
        for op in random_script(&mut rng) {
            match op {
                ListOp::Advance(n) => {
                    for _ in 0..n {
                        cursor.next();
                    }
                }
                ListOp::SeekFirst => cursor.seek_first(),
                ListOp::Insert(v) => {
                    cursor.insert(v).unwrap();
                    cursor.update();
                }
                ListOp::Delete => {
                    if cursor.try_delete() {
                        cursor.update();
                    }
                }
            }
        }
        drop(cursor);
        let swept = settle(&mut list);
        assert_eq!(
            swept, 0,
            "case {case}: sequential scripts never create cycles"
        );
        // Dummies (2), cells and their aux nodes, and the trailing aux.
        assert_eq!(
            list.mem_stats().live_nodes(),
            3 + 2 * list.len() as u64,
            "case {case}: node conservation"
        );
    }
}

fn collect_roundtrip<R: Reclaimer>() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x11F7_0003 ^ (case * 0x9E37));
        let len = rng.gen_range(0..100usize);
        let values: Vec<u16> = (0..len).map(|_| rng.next_u64() as u16).collect();
        let mut list: List<u16, R> = values.iter().copied().collect();
        assert_eq!(list.iter().collect::<Vec<_>>(), values, "case {case}");
        settle(&mut list);
    }
}

// ---------------------------------------------------------------------
// Miri-sized smoke set: tens of operations and at most two threads,
// still driving alloc, SafeRead/Release (or pins), swings, TryInsert,
// TryDelete with its back-link walk, reclamation and recycling. Under
// Miri they check the unsafe protocol code for use-after-free, invalid
// provenance, uninitialised value reads and data races on the few
// non-atomic fields (docs/VERIFICATION.md, § Miri).
// ---------------------------------------------------------------------

fn smoke_insert_iterate_delete<R: Reclaimer>() {
    let mut list: List<u64, R> = List::new();
    let mut c = list.cursor();
    for v in [3, 2, 1] {
        c.insert(v).unwrap();
    }
    drop(c);
    assert_eq!(items(&list), [1, 2, 3]);
    let mut c = list.cursor();
    while c.get() != Some(&2) {
        assert!(c.next());
    }
    assert!(c.try_delete());
    drop(c);
    assert_eq!(items(&list), [1, 3]);
    settle(&mut list);
}

/// A capped pool: repeated insert/delete recycles the same cells through
/// Alloc/Reclaim rather than growing.
fn smoke_free_list_recycles_nodes<R: Reclaimer>() {
    let mut list: List<u64, R> = capped(8);
    for round in 0..4u64 {
        let mut c = list.cursor();
        c.insert(round).unwrap();
        c.update();
        assert_eq!(c.get(), Some(&round));
        assert!(c.try_delete());
        drop(c);
        settle(&mut list);
        assert!(list.is_empty());
    }
}

/// The deleting cursor still reads the value it deleted (§2.2).
fn smoke_cursor_persistence_across_delete<R: Reclaimer>() {
    let mut list: List<u64, R> = std::iter::once(7).collect();
    let mut c = list.cursor();
    assert!(c.try_delete());
    assert_eq!(c.get(), Some(&7), "deleted cell persists for its cursor");
    c.update();
    assert!(c.is_at_end());
    drop(c);
    settle(&mut list);
}

/// The smallest contended workload: two inserting threads.
fn smoke_two_thread_insert_contention<R: Reclaimer>() {
    let mut list: List<u64, R> = List::new();
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let list = &list;
            s.spawn(move || {
                let mut c = list.cursor();
                for i in 0..8 {
                    c.insert(t * 8 + i).unwrap();
                    c.update();
                }
            });
        }
    });
    let mut all = items(&list);
    all.sort_unstable();
    assert_eq!(all, (0..16).collect::<Vec<_>>());
    settle(&mut list);
}

/// One inserter and one deleter in the same neighbourhood: Fig. 9 and
/// Fig. 10 CAS contention in miniature (the loom models explore it
/// exhaustively; Miri checks one interleaving for UB).
fn smoke_two_thread_insert_delete_race<R: Reclaimer>() {
    let mut list: List<u64, R> = std::iter::once(10).collect();
    std::thread::scope(|s| {
        s.spawn(|| list.cursor().insert(5).unwrap());
        s.spawn(|| delete_value(&mut list.cursor(), 10));
    });
    assert_eq!(items(&list), [5]);
    settle(&mut list);
}

/// Instantiates every body once per backend, as `refcount::<name>` and
/// `epoch::<name>`.
macro_rules! battery {
    ($($name:ident),+ $(,)?) => {
        mod refcount {
            $(#[test] fn $name() { super::$name::<valois::core::RefCount>(); })+
        }
        mod epoch {
            $(#[test] fn $name() { super::$name::<valois::core::Epoch>(); })+
        }
    };
}

battery!(
    empty_list_layout_fig4,
    insert_before_position_and_append,
    iteration_agrees,
    delete_positions_fig10,
    deleted_cell_remains_readable_through_cursor,
    stale_cursor_fails_until_update,
    prepared_inserts,
    capped_pool_exhaustion_and_recycling,
    seek_first_and_clone,
    stats_count_operations,
    adjacent_stale_deletions_leave_no_garbage,
    stale_cursor_delete_after_predecessor_removed,
    retain_keeps_matching_items,
    refcount_audit_clean_after_sequential_ops,
    values_drop_exactly_once,
    parked_cursor_survives_concurrent_delete_of_target,
    insert_through_cursor_with_deleted_target_lands_once,
    head_cursor_survives_full_concurrent_drain,
    insert_unique_lost_race_drops_prepared_cell,
    concurrent_inserts_lose_nothing,
    concurrent_adjacent_deletes_do_not_undo_each_other,
    insert_delete_churn_is_conserved,
    aux_chain_theorem_holds_at_quiescence,
    reference_counts_are_exact_after_churn,
    nodes_return_to_free_list_with_exact_counts,
    concurrent_retain_partitions_exactly,
    readers_never_see_torn_values,
    capped_pool_under_concurrency_never_over_allocates,
    capped_pool_recycles_through_churn,
    live_stats_advance_mid_operation,
    live_mutation_counters_advance,
    explicit_flush_still_exact,
    cursor_matches_vec_model,
    structure_and_memory_conserved,
    collect_roundtrip,
    smoke_insert_iterate_delete,
    smoke_free_list_recycles_nodes,
    smoke_cursor_persistence_across_delete,
    smoke_two_thread_insert_contention,
    smoke_two_thread_insert_delete_race,
);

/// Refcount-only (see the module docs): every cursor is a clone of one
/// targeting the same cell, handed to its own thread; exactly one
/// `try_delete` wins.
#[test]
fn many_cursors_on_same_position() {
    for _ in 0..50 {
        let mut list: List<u64> = (0..4).collect();
        let wins = AtomicU64::new(0);
        let shared = list.cursor();
        let cursors: Vec<_> = (0..6).map(|_| shared.clone()).collect();
        drop(shared);
        std::thread::scope(|s| {
            for mut cur in cursors {
                let wins = &wins;
                s.spawn(move || {
                    if cur.try_delete() {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1, "exactly one deleter wins");
        assert_eq!(list.len(), 3);
        settle(&mut list);
    }
}

/// The epoch arm really exercises the epoch machinery: cursors pin,
/// deletes retire through limbo, and the quiescent sweep drains it.
#[test]
fn epoch_arm_reports_epoch_traffic() {
    let mut list: List<u64, valois::core::Epoch> = List::new();
    let mut c = list.cursor();
    for i in 0..32 {
        c.insert(i).unwrap();
    }
    drop(c);
    list.retain(|&v| v % 2 == 0);
    settle(&mut list);
    let stats = list.mem_stats();
    assert!(stats.epoch_pins > 0, "cursors must pin");
    assert!(
        stats.epoch_retires >= 16,
        "deletes must retire through limbo"
    );
    assert!(
        stats.epoch_frees >= 16,
        "quiescent collect must drain the limbo list, freed only {}",
        stats.epoch_frees
    );
    assert_eq!(
        stats.epoch_limbo_depth, 0,
        "no garbage parked at quiescence"
    );
}
