//! The §2.2 anomalies, side by side: the naive CAS list corrupts under the
//! Fig. 2 / Fig. 3 interleavings; the auxiliary-node list survives the
//! equivalent logical schedules.

use valois::baseline::naive::NaiveList;
use valois::List;

/// Fig. 2 on the naive list: an insert whose predecessor is concurrently
/// deleted is silently lost.
#[test]
fn naive_list_loses_insert_fig2() {
    let naive: NaiveList<u32> = NaiveList::new();
    for v in [1, 2, 4] {
        naive.insert(v);
    }
    // Process 1 prepares to insert 3 after 2 (reads 2.next = 4)...
    let (b, d) = naive.locate(&3);
    let c = naive.make_node(3);
    // ...process 2 deletes 2...
    assert!(naive.remove(&2));
    // ...process 1 completes: the CAS succeeds on the unreachable node.
    // SAFETY: nodes of a NaiveList are never freed while it lives.
    assert!(unsafe { naive.cas_next(b, d, c) });
    assert!(!naive.contains(&3), "Fig. 2: the insert was lost");
}

/// The same logical schedule against the Valois list: the insert CAS lands
/// on the *auxiliary node*, which the deletion also rewires — so the stale
/// insert fails loudly (retry signal) instead of losing data.
#[test]
fn valois_list_refuses_stale_insert() {
    let list: List<u32> = (0..3).collect(); // [0, 1, 2]
                                            // Process 1 positions a cursor at 1 (like reading B.next).
    let mut inserter = list.cursor();
    assert!(inserter.next());
    assert_eq!(inserter.get(), Some(&1));
    // Process 2 deletes 1 out from under it.
    let mut deleter = list.cursor();
    assert!(deleter.next());
    assert!(deleter.try_delete());
    drop(deleter);
    // Process 1 tries to insert before its (now stale) position: the
    // TryInsert CAS fails — nothing is lost, the caller revalidates.
    let prepared = list.prepare_insert(99).unwrap();
    let prepared = inserter
        .try_insert(prepared)
        .expect_err("stale insert must fail, not vanish");
    inserter.update();
    inserter.try_insert(prepared).expect("valid retry succeeds");
    let items: Vec<u32> = list.iter().collect();
    assert!(items.contains(&99), "nothing lost after retry: {items:?}");
    assert!(!items.contains(&1), "the delete stands: {items:?}");
}

/// Fig. 3 on the naive list: adjacent deletes undo each other.
#[test]
fn naive_list_undoes_adjacent_delete_fig3() {
    let naive: NaiveList<u32> = NaiveList::new();
    for v in [1, 2, 3, 4] {
        naive.insert(v);
    }
    let (a, b) = naive.locate(&2);
    let (_, c) = naive.locate(&3);
    // SAFETY: nodes of a NaiveList are never freed while it lives.
    let d = unsafe { naive.next_of(c) };
    // Delete 2, then the stale delete of 3 "succeeds" on the removed node.
    unsafe {
        assert!(naive.cas_next(a, b, c));
        assert!(naive.cas_next(b, c, d));
    }
    assert!(
        naive.contains(&3),
        "Fig. 3: the second deletion was undone — 3 resurfaced"
    );
}

/// The same schedule against the Valois list: both deletions take effect
/// exactly once, every time.
#[test]
fn valois_list_adjacent_deletes_both_stand() {
    for _ in 0..200 {
        let mut list: List<u32> = (1..=4).collect();
        // Two cursors on adjacent cells 2 and 3, prepared before either
        // deletion (the Fig. 3 setup).
        let mut at2 = list.cursor();
        assert!(at2.next());
        assert_eq!(at2.get(), Some(&2));
        let mut at3 = at2.clone();
        assert!(at3.next());
        assert_eq!(at3.get(), Some(&3));
        // Run the two deletions concurrently.
        std::thread::scope(|s| {
            let h2 = s.spawn(move || {
                let mut c = at2;
                while !c.try_delete() {
                    c.update();
                    if c.get() != Some(&2) {
                        return false;
                    }
                }
                true
            });
            let h3 = s.spawn(move || {
                let mut c = at3;
                while !c.try_delete() {
                    c.update();
                    if c.get() != Some(&3) {
                        return false;
                    }
                }
                true
            });
            assert!(h2.join().unwrap(), "delete of 2 must succeed");
            assert!(h3.join().unwrap(), "delete of 3 must succeed");
        });
        let items: Vec<u32> = list.iter().collect();
        assert_eq!(items, vec![1, 4], "both deletions stand");
        list.check_structure(0).unwrap();
    }
}
