//! Backend-parameterized list battery: every test body is generic over
//! the arena's [`Reclaimer`] and instantiated twice — once per backend —
//! by the `backend_matrix!` macro at the bottom. A regression in either
//! backend (or in the shared cursor/list code above the reclamation
//! boundary) fails the matching arm by name (`refcount::…` /
//! `epoch::…`).
//!
//! Every arm ends with the exact link-count audit (`audit_refcounts`):
//! at quiescence no process reference is outstanding under either
//! backend, so each count is exactly the node's link in-degree.
//!
//! One deliberate asymmetry, a consequence of the backend contract
//! (docs/DESIGN.md "Choosing a reclamation backend"): cursors never
//! cross threads. `Cursor<'_, T, Epoch>` is `!Send` (its pin lives in
//! the creating thread's slot), so every thread opens its own cursors.
//! The refcount-only clone-handoff pattern is covered by
//! `concurrency.rs::many_cursors_on_same_position`.
//!
//! The `smoke_` pair is Miri-sized (tens of operations, two threads):
//! `cargo +nightly miri test -p valois-core smoke_` drives the epoch
//! pin/retire/drain path under the interpreter alongside the counted
//! protocol's existing smoke set.

use valois_core::{ArenaConfig, List, Reclaimer};

fn thread_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 8)
}

/// Quiesces `list`, then checks its structure and its exact link counts.
fn quiesce_and_check<R: Reclaimer>(list: &mut List<u64, R>) {
    list.quiescent_collect();
    list.check_structure(0).unwrap();
    list.audit_refcounts().unwrap();
}

fn concurrent_inserts_lose_nothing<R: Reclaimer>() {
    let mut list: List<u64, R> = List::new();
    let threads = thread_count() as u64;
    let per = 200u64;
    std::thread::scope(|s| {
        let list = &list;
        for t in 0..threads {
            s.spawn(move || {
                let mut c = list.cursor();
                for i in 0..per {
                    c.insert(t * per + i).unwrap();
                    if i % 16 == 0 {
                        c.seek_first();
                    }
                }
            });
        }
    });
    let mut items: Vec<u64> = list.iter().collect();
    items.sort_unstable();
    assert_eq!(items, (0..threads * per).collect::<Vec<u64>>());
    quiesce_and_check(&mut list);
}

fn insert_delete_churn_is_conserved<R: Reclaimer>() {
    // Each thread owns a disjoint key range and inserts/deletes within
    // it; whatever survives must be exactly the keys whose final round
    // was an insert.
    let mut list: List<u64, R> = List::new();
    let threads = thread_count() as u64;
    let keys_per = 32u64;
    let rounds = 40u64;
    std::thread::scope(|s| {
        let list = &list;
        for t in 0..threads {
            s.spawn(move || {
                for round in 0..rounds {
                    let mut c = list.cursor();
                    for k in 0..keys_per {
                        let key = t * keys_per + k;
                        if round % 2 == 0 {
                            c.insert(key).unwrap();
                        } else {
                            // Delete `key`, scanning from the front.
                            c.seek_first();
                            loop {
                                match c.get() {
                                    Some(&v) if v == key => {
                                        if c.try_delete() {
                                            break;
                                        }
                                        c.resume();
                                    }
                                    Some(_) => {
                                        if !c.next() {
                                            panic!("key {key} not found for delete");
                                        }
                                    }
                                    None => {
                                        if !c.next() {
                                            panic!("key {key} not found for delete");
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    // rounds is even, so the last completed round per key was a delete.
    assert!(
        list.is_empty(),
        "even round count must leave the list empty, got {} items",
        list.len()
    );
    quiesce_and_check(&mut list);
}

fn readers_never_see_torn_values<R: Reclaimer>() {
    // Values are (x, !x) pairs; a reader observing a half-written or
    // reclaimed-and-reused cell would see a pair that fails the check.
    let mut list: List<(u64, u64), R> = List::new();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let list = &list;
        let stop = &stop;
        s.spawn(move || {
            for i in 0..3_000u64 {
                let mut c = list.cursor();
                c.insert((i, !i)).unwrap();
                c.seek_first();
                if c.get().is_some() {
                    c.try_delete();
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
        for _ in 0..2 {
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    list.for_each(|&(a, b)| {
                        assert_eq!(b, !a, "torn or recycled-under-read value");
                    });
                }
            });
        }
    });
    let mut list2: List<(u64, u64), R> = List::new();
    std::mem::swap(&mut list2, &mut list);
    list2.quiescent_collect();
    list2.check_structure(0).unwrap();
}

fn capped_pool_recycles_through_churn<R: Reclaimer>() {
    // A pool far smaller than the op count (1600 ops × ~2 nodes against
    // 1024): every round's cells must come back through the backend's
    // reclamation path (Reclaim cascade for refcount; retire → grace
    // period → drain for epoch). The pool is sized with epoch headroom:
    // the grace period legitimately parks up to about two epochs' worth
    // of retirements (~2 × COLLECT_EVERY per thread) in limbo.
    let mut list: List<u64, R> =
        List::with_config(ArenaConfig::new().initial_capacity(1024).max_nodes(1024));
    let threads = 4u64;
    let skipped = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        let list = &list;
        let skipped = &skipped;
        for t in 0..threads {
            s.spawn(move || {
                'ops: for i in 0..400u64 {
                    // Transient exhaustion is legal mid-churn (per-thread
                    // caches and in-flight retirements park nodes). The
                    // service contract applies: close this operation's
                    // protection window, shed (magazines + bounded limbo
                    // drain), and retry before giving up on the op. The
                    // yield matters on small machines: an epoch advance
                    // fails while any descheduled thread sits pinned, so
                    // give that thread a chance to run and unpin.
                    let mut attempts = 0;
                    let mut c = loop {
                        let mut c = list.cursor();
                        if c.insert(t * 1_000_000 + i).is_ok() {
                            break c;
                        }
                        drop(c);
                        attempts += 1;
                        if attempts > 16 {
                            skipped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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
    let skipped = skipped.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        skipped < threads * 200,
        "reclamation must keep the pool usable: {skipped}/{} ops skipped",
        threads * 400
    );
    quiesce_and_check(&mut list);
}

fn drop_with_leftover_items_reclaims_everything<R: Reclaimer>() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Probe(#[allow(dead_code)] u64);
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }
    DROPS.store(0, Ordering::Relaxed);
    {
        let list: List<Probe, R> = List::new();
        let mut c = list.cursor();
        for i in 0..50 {
            c.insert(Probe(i)).unwrap();
        }
        drop(c);
        // Half deleted (their values drop through reclamation), half
        // left for the teardown cascade — including, under epoch, any
        // cells still parked in limbo at drop time.
        let mut c = list.cursor();
        c.seek_first();
        for _ in 0..25 {
            assert!(c.try_delete());
            c.update();
        }
        drop(c);
    }
    assert_eq!(
        DROPS.load(Ordering::Relaxed),
        50,
        "every value must drop exactly once across delete and teardown"
    );
}

fn smoke_backend_roundtrip<R: Reclaimer>() {
    // Miri-sized: one capped pool, one recycle, one two-thread race.
    let mut list: List<u64, R> =
        List::with_config(ArenaConfig::new().initial_capacity(8).max_nodes(8));
    for round in 0..3u64 {
        let mut c = list.cursor();
        c.insert(round).unwrap();
        c.update();
        assert_eq!(c.get(), Some(&round));
        assert!(c.try_delete());
        drop(c);
        list.quiescent_collect();
        assert!(list.is_empty());
    }
    // The smallest contended workload, on its own grow-on-demand list.
    let mut race: List<u64, R> = List::new();
    std::thread::scope(|s| {
        let race = &race;
        for t in 0..2u64 {
            s.spawn(move || {
                let mut c = race.cursor();
                for i in 0..3 {
                    c.insert(t * 3 + i).unwrap();
                    c.update();
                }
            });
        }
    });
    let mut items: Vec<u64> = race.iter().collect();
    items.sort_unstable();
    assert_eq!(items, (0..6).collect::<Vec<u64>>());
    quiesce_and_check(&mut race);
}

/// Instantiates each generic test body once per backend, as
/// `refcount::<name>` and `epoch::<name>`.
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

backend_matrix!(
    concurrent_inserts_lose_nothing,
    insert_delete_churn_is_conserved,
    readers_never_see_torn_values,
    capped_pool_recycles_through_churn,
    drop_with_leftover_items_reclaims_everything,
    smoke_backend_roundtrip,
);

/// The epoch arm must actually exercise the epoch machinery — pins,
/// retirements, and grace-period frees all nonzero after churn.
#[test]
fn epoch_arm_reports_epoch_traffic() {
    let mut list: List<u64, valois_core::Epoch> = List::new();
    let mut c = list.cursor();
    for i in 0..32 {
        c.insert(i).unwrap();
    }
    drop(c);
    list.retain(|&v| v % 2 == 0);
    list.quiescent_collect();
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
