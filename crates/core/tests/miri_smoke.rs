//! Miri smoke subset: `cargo +nightly miri test -p valois-core smoke_`.
//!
//! Miri interprets every load/store, so it is orders of magnitude slower
//! than native execution — these tests are deliberately tiny (tens of
//! operations, at most two threads) while still driving every protocol
//! path: alloc, SafeRead/Release, swing, TryInsert, TryDelete with
//! back-link walk, reclamation cascade, and free-list recycling.
//!
//! What Miri checks here that native tests cannot: undefined behaviour in
//! the unsafe protocol code — use-after-free, invalid pointer provenance,
//! uninitialized `value` slot reads, and data races on the few non-atomic
//! fields. Known arena limitations under Miri are documented in
//! docs/VERIFICATION.md (§ Miri).

use valois_core::{ArenaConfig, List};

#[test]
fn smoke_insert_iterate_delete() {
    let mut list: List<u64> = List::new();
    let mut c = list.cursor();
    for v in [3, 2, 1] {
        c.insert(v).unwrap();
    }
    drop(c);
    assert_eq!(list.iter().collect::<Vec<u64>>(), vec![1, 2, 3]);

    let mut c = list.cursor();
    c.seek_first();
    while c.get() != Some(&2) {
        assert!(c.next());
    }
    assert!(c.try_delete());
    drop(c);
    assert_eq!(list.iter().collect::<Vec<u64>>(), vec![1, 3]);

    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}

#[test]
fn smoke_free_list_recycles_nodes() {
    // A capped pool: repeated insert/delete must recycle the same cells
    // through Alloc/Reclaim rather than grow.
    let mut list: List<u64> =
        List::with_config(ArenaConfig::new().initial_capacity(8).max_nodes(8));
    for round in 0..4u64 {
        let mut c = list.cursor();
        c.insert(round).unwrap();
        c.update();
        assert_eq!(c.get(), Some(&round));
        assert!(c.try_delete());
        drop(c);
        list.quiescent_collect();
        assert!(list.is_empty());
    }
    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}

#[test]
fn smoke_cursor_persistence_across_delete() {
    // Cell persistence (§4): the deleting cursor still reads the value.
    let list: List<u64> = std::iter::once(7).collect();
    let mut c = list.cursor();
    c.seek_first();
    assert!(c.try_delete());
    assert_eq!(c.get(), Some(&7), "deleted cell persists for its cursor");
    c.update();
    assert!(c.is_at_end());
}

#[test]
fn smoke_two_thread_insert_contention() {
    // The smallest genuinely contended workload: two threads, one shared
    // neighbourhood, a handful of CAS retries.
    let mut list: List<u64> = List::new();
    std::thread::scope(|s| {
        let list = &list;
        for t in 0..2u64 {
            s.spawn(move || {
                let mut c = list.cursor();
                for i in 0..8 {
                    c.insert(t * 8 + i).unwrap();
                    c.update();
                }
            });
        }
    });
    let mut items: Vec<u64> = list.iter().collect();
    items.sort_unstable();
    assert_eq!(items, (0..16).collect::<Vec<u64>>());
    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}

#[test]
fn smoke_two_thread_insert_delete_race() {
    // One inserter, one deleter, same neighbourhood — the Fig. 9 / Fig. 10
    // CAS contention in miniature (the loom models explore it exhaustively;
    // Miri checks one OS interleaving for UB).
    let mut list: List<u64> = std::iter::once(10).collect();
    std::thread::scope(|s| {
        let list = &list;
        s.spawn(move || {
            list.cursor().insert(5).unwrap();
        });
        s.spawn(move || {
            let mut c = list.cursor();
            loop {
                match c.get() {
                    Some(&10) => {
                        if c.try_delete() {
                            break;
                        }
                        c.update();
                    }
                    Some(_) => assert!(c.next()),
                    None => panic!("cell 10 vanished"),
                }
            }
        });
    });
    assert_eq!(list.iter().collect::<Vec<u64>>(), vec![5]);
    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}
