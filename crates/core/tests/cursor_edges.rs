//! Cursor edge cases around concurrent `TryDelete`: a cursor parked at
//! the head or tail of the list while another thread deletes the very
//! cell it is visiting. The §5 protocol promises *cell persistence* — the
//! deleted cell's value stays readable through the stale cursor until it
//! repositions — and the instantaneous invariants
//! ([`List::check_invariants`]) must stay clean throughout.
//!
//! The last group pins the shared Fig. 12 loop
//! ([`Cursor::insert_unique`](valois_core::Cursor::insert_unique)) once
//! per reclamation backend, as `refcount::…` / `epoch::…`.

use valois_core::{List, Reclaimer};

/// A cursor visiting the **head** cell keeps working after a concurrent
/// `TryDelete` removes that cell: the value persists until `update`, and
/// the cursor then lands on the new head.
#[test]
fn head_cursor_survives_concurrent_delete_of_target() {
    let mut list: List<u64> = (1..=3).collect();
    let mut c = list.cursor();
    c.seek_first();
    assert_eq!(c.get(), Some(&1));

    std::thread::scope(|s| {
        let list = &list;
        s.spawn(move || {
            let mut d = list.cursor();
            d.seek_first();
            // Fig. 13 retry loop: delete the head cell `1`.
            while d.get() == Some(&1) {
                if d.try_delete() {
                    break;
                }
                d.update();
            }
            list.check_invariants()
                .expect("invariants after head delete");
        });
    });

    // Cell persistence: the deleted cell is still visited and readable.
    assert_eq!(
        c.get(),
        Some(&1),
        "deleted cell must persist for its cursor"
    );
    list.check_invariants()
        .expect("invariants with a stale cursor alive");
    // Repositioning abandons the deleted cell and finds the new head.
    c.update();
    assert_eq!(c.get(), Some(&2));
    drop(c);

    assert_eq!(list.iter().collect::<Vec<u64>>(), vec![2, 3]);
    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}

/// A cursor visiting the **tail** cell (the last cell before the end
/// position) survives a concurrent delete of that cell; after `update` it
/// sits at the end position.
#[test]
fn tail_cursor_survives_concurrent_delete_of_target() {
    let mut list: List<u64> = (1..=3).collect();
    let mut c = list.cursor();
    c.seek_first();
    while c.get() != Some(&3) {
        assert!(c.next(), "tail cell must be reachable");
    }

    std::thread::scope(|s| {
        let list = &list;
        s.spawn(move || {
            let mut d = list.cursor();
            d.seek_first();
            loop {
                match d.get() {
                    Some(&3) => {
                        if d.try_delete() {
                            break;
                        }
                        d.update();
                    }
                    Some(_) => assert!(d.next(), "walked past the tail"),
                    None => panic!("tail cell vanished without our delete"),
                }
            }
            list.check_invariants()
                .expect("invariants after tail delete");
        });
    });

    assert_eq!(
        c.get(),
        Some(&3),
        "deleted tail must persist for its cursor"
    );
    c.update();
    assert_eq!(c.get(), None, "cursor past the deleted tail is at the end");
    assert!(c.is_at_end());
    assert!(!c.try_delete(), "nothing to delete at the end position");
    drop(c);

    assert_eq!(list.iter().collect::<Vec<u64>>(), vec![1, 2]);
    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}

/// Inserting through a cursor whose target was concurrently deleted: the
/// Fig. 12 retry loop must reposition and land the insertion exactly once.
#[test]
fn insert_through_cursor_with_deleted_target_lands_once() {
    let mut list: List<u64> = (1..=3).collect();
    let mut c = list.cursor();
    c.seek_first();
    assert!(c.next(), "position on the middle cell");
    assert_eq!(c.get(), Some(&2));

    std::thread::scope(|s| {
        let list = &list;
        s.spawn(move || {
            let mut d = list.cursor();
            d.seek_first();
            loop {
                match d.get() {
                    Some(&2) => {
                        if d.try_delete() {
                            break;
                        }
                        d.update();
                    }
                    Some(_) => assert!(d.next(), "walked past cell 2"),
                    None => panic!("cell 2 vanished without our delete"),
                }
            }
        });
    });

    // The cursor's target is gone; insert must retry via update and land.
    c.insert(99).expect("pool is uncapped");
    list.check_invariants()
        .expect("invariants after stale-cursor insert");
    drop(c);

    let mut items: Vec<u64> = list.iter().collect();
    items.sort_unstable();
    assert_eq!(items, vec![1, 3, 99]);
    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}

/// Draining the whole list out from under a parked head cursor: every
/// reposition from the stale cursor must reach the end position cleanly.
#[test]
fn head_cursor_survives_full_concurrent_drain() {
    let mut list: List<u64> = (1..=16).collect();
    let mut c = list.cursor();
    c.seek_first();
    assert_eq!(c.get(), Some(&1));

    std::thread::scope(|s| {
        let list = &list;
        for _ in 0..2 {
            s.spawn(move || {
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
        s.spawn(move || {
            for _ in 0..64 {
                list.check_invariants().expect("invariants mid-drain");
            }
        });
    });

    c.update();
    assert!(c.is_at_end(), "drained list leaves only the end position");
    drop(c);

    assert!(list.is_empty());
    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}

/// Fig. 12's lost-race exit, made deterministic on one thread: cursor A
/// positions for `20`, cursor B links `20` first, and A's
/// `insert_unique` must fail its CAS, resume, find B's item and return
/// `false` — dropping A's prepared cell without leaking a count.
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
    assert_eq!(list.iter().collect::<Vec<u64>>(), vec![10, 20, 30]);
    list.quiescent_collect();
    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}

/// Instantiates each generic test body once per backend, as
/// `refcount::<name>` and `epoch::<name>` (the `backend_matrix.rs`
/// naming).
macro_rules! backend_matrix {
    ($($name:ident),+ $(,)?) => {
        mod refcount {
            $(
                #[test]
                fn $name() {
                    super::$name::<valois_core::RefCount>();
                }
            )+
        }
        mod epoch {
            $(
                #[test]
                fn $name() {
                    super::$name::<valois_core::Epoch>();
                }
            )+
        }
    };
}

backend_matrix!(insert_unique_lost_race_drops_prepared_cell);
