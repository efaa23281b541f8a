//! Sequential behaviour of the §3 list: layout (Fig. 4), traversal
//! (Figs. 5-7), insertion (Figs. 8-9), deletion (Fig. 10), and cell
//! persistence (§2.2).

use valois_core::{ArenaConfig, List};

#[test]
fn empty_list_layout_fig4() {
    // An empty list is two dummies separated by one auxiliary node.
    let mut list: List<u32> = List::new();
    assert!(list.is_empty());
    assert_eq!(list.len(), 0);
    let report = list.aux_chain_report();
    assert_eq!(report.cells, 0);
    assert_eq!(report.aux, 1);
    assert_eq!(report.runs_ge2, 0);
    list.check_structure(0).unwrap();
}

#[test]
fn cursor_on_empty_list_is_at_end() {
    let list: List<u32> = List::new();
    let mut cur = list.cursor();
    assert!(cur.is_at_end());
    assert!(cur.get().is_none());
    assert!(!cur.next(), "Next at end must return false (Fig. 7 line 2)");
    assert!(!cur.try_delete(), "cannot delete the end position");
}

#[test]
fn insert_before_cursor_position() {
    let list: List<u32> = List::new();
    let mut cur = list.cursor();
    cur.insert(10).unwrap();
    // Insertion happens before the visited position; cursor must be made
    // valid again to see it.
    cur.update();
    assert_eq!(cur.get(), Some(&10));
    // Insert another before 10: order becomes [20, 10] when inserting at
    // the first position again.
    let mut cur2 = list.cursor();
    cur2.insert(20).unwrap();
    let items: Vec<u32> = list.iter().collect();
    assert_eq!(items, vec![20, 10]);
}

#[test]
fn insert_at_end_appends() {
    let list: List<u32> = List::new();
    let mut cur = list.cursor();
    for i in 0..5 {
        // Walk to the end position, then insert before it (= append).
        while cur.next() {}
        cur.insert(i).unwrap();
        cur.update();
    }
    let items: Vec<u32> = list.iter().collect();
    assert_eq!(items, vec![0, 1, 2, 3, 4]);
}

#[test]
fn from_iterator_preserves_order() {
    let mut list: List<u32> = (0..100).collect();
    let items: Vec<u32> = list.iter().collect();
    assert_eq!(items, (0..100).collect::<Vec<_>>());
    assert_eq!(list.len(), 100);
    list.check_structure(0).unwrap();
}

#[test]
fn traversal_visits_every_item_once() {
    let list: List<u32> = (0..50).collect();
    let mut seen = Vec::new();
    list.for_each(|v| seen.push(*v));
    assert_eq!(seen, (0..50).collect::<Vec<_>>());
}

#[test]
fn delete_first_item() {
    let mut list: List<u32> = (0..3).collect();
    let mut cur = list.cursor();
    assert_eq!(cur.get(), Some(&0));
    assert!(cur.try_delete());
    drop(cur);
    let items: Vec<u32> = list.iter().collect();
    assert_eq!(items, vec![1, 2]);
    list.check_structure(0).unwrap();
}

#[test]
fn delete_middle_item() {
    let mut list: List<u32> = (0..5).collect();
    let mut cur = list.cursor();
    while cur.get() != Some(&2) {
        assert!(cur.next());
    }
    assert!(cur.try_delete());
    drop(cur);
    let items: Vec<u32> = list.iter().collect();
    assert_eq!(items, vec![0, 1, 3, 4]);
    list.check_structure(0).unwrap();
}

#[test]
fn delete_last_item() {
    let mut list: List<u32> = (0..4).collect();
    let mut cur = list.cursor();
    while cur.get() != Some(&3) {
        assert!(cur.next());
    }
    assert!(cur.try_delete());
    drop(cur);
    let items: Vec<u32> = list.iter().collect();
    assert_eq!(items, vec![0, 1, 2]);
    list.check_structure(0).unwrap();
}

#[test]
fn delete_all_items_returns_to_fig4_layout() {
    let mut list: List<u32> = (0..10).collect();
    loop {
        let mut cur = list.cursor();
        if cur.is_at_end() {
            break;
        }
        assert!(cur.try_delete());
    }
    assert!(list.is_empty());
    // The §3 theorem: no extra auxiliary nodes once all deletions complete.
    let report = list.aux_chain_report();
    assert_eq!(
        report.aux, 1,
        "empty list must be back to a single aux node"
    );
    assert_eq!(report.runs_ge2, 0);
    list.check_structure(0).unwrap();
}

#[test]
fn deleted_cell_remains_readable_through_cursor() {
    // Cell persistence (§2.2): a cursor visiting a deleted cell can still
    // read its contents and continue traversing.
    let list: List<String> = ["a", "b", "c"].into_iter().map(String::from).collect();
    let mut observer = list.cursor();
    assert!(observer.next()); // visiting "b"
    assert_eq!(observer.get().map(String::as_str), Some("b"));

    // Another cursor deletes "b".
    let mut deleter = list.cursor();
    while deleter.get().map(String::as_str) != Some("b") {
        assert!(deleter.next());
    }
    assert!(deleter.try_delete());
    drop(deleter);

    // The observer still reads the deleted value...
    assert_eq!(observer.get().map(String::as_str), Some("b"));
    // ...and can keep traversing to live items.
    assert!(observer.next());
    assert_eq!(observer.get().map(String::as_str), Some("c"));
    let items: Vec<String> = list.iter().collect();
    assert_eq!(items, vec!["a".to_string(), "c".to_string()]);
}

#[test]
fn cursor_invalidation_and_update() {
    let list: List<u32> = (0..3).collect();
    let mut a = list.cursor(); // visiting 0
    let mut b = list.cursor(); // visiting 0
    assert!(b.try_delete());
    drop(b);
    // `a` is now stale; try_delete must fail (its CAS expects the old
    // successor), and update must revalidate onto the new first item.
    assert!(!a.try_delete());
    a.update();
    assert_eq!(a.get(), Some(&1));
    assert!(a.try_delete(), "after update the delete must succeed");
}

#[test]
fn insert_failure_hands_back_prepared_pair() {
    let list: List<u32> = (0..3).collect();
    let mut a = list.cursor();
    let mut b = list.cursor();
    assert!(b.try_delete());
    drop(b);
    // `a` is stale: try_insert must fail and return the pair for reuse.
    let prepared = list.prepare_insert(99).unwrap();
    let prepared = match a.try_insert(prepared) {
        Ok(()) => panic!("insert through a stale cursor must fail"),
        Err(back) => back,
    };
    assert_eq!(*prepared.value(), 99);
    a.update();
    a.try_insert(prepared)
        .expect("valid cursor insert succeeds");
    let items: Vec<u32> = list.iter().collect();
    assert_eq!(items, vec![99, 1, 2]);
}

#[test]
fn dropping_unused_prepared_insert_reclaims_nodes() {
    let list: List<u32> = List::new();
    let live_before = list.mem_stats().live_nodes();
    let prepared = list.prepare_insert(7).unwrap();
    drop(prepared);
    assert_eq!(list.mem_stats().live_nodes(), live_before);
}

#[test]
fn capped_pool_reports_exhaustion() {
    let list: List<u32> = List::with_config(ArenaConfig::new().initial_capacity(8).max_nodes(8));
    let mut cur = list.cursor();
    // 3 nodes for the empty list; each item needs 2 → 2 items fit, the
    // third insert must fail cleanly.
    cur.insert(1).unwrap();
    cur.insert(2).unwrap();
    assert!(list.prepare_insert(3).is_err());
    // Deleting frees capacity again.
    cur.seek_first();
    assert!(cur.try_delete());
    drop(cur);
    assert!(list.prepare_insert(3).is_ok());
}

#[test]
fn seek_first_repositions() {
    let list: List<u32> = (0..4).collect();
    let mut cur = list.cursor();
    assert!(cur.next());
    assert!(cur.next());
    assert_eq!(cur.get(), Some(&2));
    cur.seek_first();
    assert_eq!(cur.get(), Some(&0));
}

#[test]
fn cloned_cursor_is_independent() {
    let list: List<u32> = (0..4).collect();
    let mut a = list.cursor();
    let mut b = a.clone();
    assert!(a.next());
    assert_eq!(a.get(), Some(&1));
    assert_eq!(b.get(), Some(&0), "clone keeps its own position");
    assert!(b.try_delete());
}

#[test]
fn stats_count_operations() {
    let list: List<u32> = List::new();
    let mut cur = list.cursor();
    cur.insert(1).unwrap();
    cur.update(); // a successful insert leaves the cursor invalid
    cur.insert(2).unwrap();
    cur.update();
    assert!(cur.try_delete());
    // The cursor batches its events; flush before sampling the counters.
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

#[test]
fn drop_reclaims_all_values() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Probe(#[allow(dead_code)] u32);
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }
    {
        let list: List<Probe> = List::new();
        let mut cur = list.cursor();
        for i in 0..10 {
            cur.insert(Probe(i)).unwrap();
        }
        // Delete a few so some probes drop via deletion+release...
        cur.seek_first();
        assert!(cur.try_delete());
        cur.update();
        assert!(cur.try_delete());
        drop(cur);
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
        // ...and the rest drop when the list is dropped.
    }
    assert_eq!(DROPS.load(Ordering::Relaxed), 10);
}

#[test]
fn len_and_iter_agree() {
    let list: List<u32> = (0..37).collect();
    assert_eq!(list.len(), list.iter().count());
}

#[test]
fn memory_is_recycled_across_insert_delete_cycles() {
    let list: List<u32> = List::with_config(ArenaConfig::new().initial_capacity(16).max_nodes(16));
    for round in 0..100 {
        let mut cur = list.cursor();
        cur.insert(round).unwrap();
        cur.update();
        assert!(cur.try_delete());
    }
    // 100 cycles through a 16-node pool is only possible with recycling.
    assert_eq!(list.node_capacity(), 16);
    assert!(list.mem_stats().allocs >= 200);
}

#[test]
fn adjacent_stale_deletions_leave_no_garbage() {
    // The scenario that *looks* like it should leak: delete b through a
    // cursor whose pre_cell is a (so b.back_link -> a), then delete a.
    // DESIGN.md §1 note 3 argues reference cycles cannot form (the
    // deletion CAS severs the unique next-edge into the dying cell);
    // this test checks the argument end to end: counting alone reclaims
    // everything, and the defensive sweep finds nothing.
    let mut list: List<u32> = (0..2).collect(); // cells a=0, b=1

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

    // Pure counting must have reclaimed every node already...
    assert_eq!(
        list.mem_stats().live_nodes(),
        3,
        "no garbage beyond the empty-list structure"
    );
    // ...so the defensive sweep finds nothing.
    assert_eq!(list.quiescent_collect(), 0);
    list.check_structure(0).unwrap();

    // And the reclaimed nodes are reusable.
    let mut cur = list.cursor();
    for i in 0..4 {
        cur.insert(i).unwrap();
        cur.update();
    }
    drop(cur);
    assert_eq!(list.len(), 4);
}

#[test]
fn stale_cursor_delete_after_predecessor_removed() {
    // A cursor positioned before its pre_cell was deleted can still
    // succeed: its pre_aux's link is intact, so the deletion CAS lands and
    // the back-link walk (Fig. 10 lines 7-11) recovers through the deleted
    // predecessor.
    let mut list: List<u32> = (0..3).collect(); // a=0, b=1, c=2
    let mut at_b = list.cursor();
    assert!(at_b.next()); // pre_cell = a, target = b

    // Delete a out from under at_b.
    let mut at_a = list.cursor();
    assert!(at_a.try_delete());
    drop(at_a);

    // at_b's pre_cell (a) is now deleted, but pre_aux.next == b still.
    assert!(at_b.try_delete(), "stale-pre_cell delete must succeed");
    drop(at_b);
    let items: Vec<u32> = list.iter().collect();
    assert_eq!(items, vec![2]);
    list.check_structure(0).unwrap();
    assert_eq!(list.quiescent_collect(), 0, "still no garbage");
    assert_eq!(list.mem_stats().live_nodes(), 3 + 2);
}

#[test]
fn quiescent_collect_on_clean_list_is_noop() {
    let mut list: List<u32> = (0..10).collect();
    assert_eq!(list.quiescent_collect(), 0);
    assert_eq!(list.len(), 10);
    list.check_structure(0).unwrap();
}

#[test]
fn retain_keeps_matching_items() {
    let mut list: List<u32> = (0..20).collect();
    let removed = list.retain(|v| v % 3 == 0);
    assert_eq!(removed, 13);
    let items: Vec<u32> = list.iter().collect();
    assert_eq!(items, vec![0, 3, 6, 9, 12, 15, 18]);
    list.check_structure(0).unwrap();
}

#[test]
fn retain_all_and_none() {
    let list: List<u32> = (0..5).collect();
    assert_eq!(list.retain(|_| true), 0);
    assert_eq!(list.len(), 5);
    assert_eq!(list.retain(|_| false), 5);
    assert!(list.is_empty());
}

#[test]
fn concurrent_retain_partitions_exactly() {
    // Two retains with complementary predicates: together they must
    // delete everything exactly once.
    use std::sync::atomic::{AtomicUsize, Ordering};
    for _ in 0..20 {
        let mut list: List<u32> = (0..128).collect();
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let list = &list;
            let total = &total;
            s.spawn(move || {
                total.fetch_add(list.retain(|v| v % 2 == 1), Ordering::Relaxed);
            });
            s.spawn(move || {
                total.fetch_add(list.retain(|v| v % 2 == 0), Ordering::Relaxed);
            });
        });
        // Each retain deletes its complement; both may race on the same
        // cell but try_delete arbitrates: every item dies exactly once.
        assert_eq!(total.load(Ordering::Relaxed), 128);
        assert!(list.is_empty());
        list.check_structure(0).unwrap();
    }
}

#[test]
fn refcount_audit_clean_after_sequential_ops() {
    let mut list: List<u32> = (0..32).collect();
    let mut cur = list.cursor();
    for _ in 0..10 {
        assert!(cur.try_delete());
        cur.update();
        cur.insert(99).unwrap();
        cur.update();
    }
    drop(cur);
    list.audit_refcounts().expect("counts must be exact");
}

#[test]
fn refcount_audit_clean_on_fresh_and_empty() {
    let mut list: List<u32> = List::new();
    list.audit_refcounts().unwrap();
    let mut cur = list.cursor();
    cur.insert(1).unwrap();
    cur.update();
    assert!(cur.try_delete());
    drop(cur);
    list.audit_refcounts().unwrap();
}

#[test]
fn into_iterator_for_ref_list() {
    let list: List<u32> = (0..5).collect();
    let mut sum = 0;
    for v in &list {
        sum += v;
    }
    assert_eq!(sum, 10);
}

#[test]
fn prepared_insert_can_move_threads() {
    let list: List<u32> = List::new();
    let prepared = list.prepare_insert(5).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut cur = list.cursor();
            cur.try_insert(prepared)
                .expect("insert from another thread");
        });
    });
    assert_eq!(list.iter().collect::<Vec<_>>(), vec![5]);
}
