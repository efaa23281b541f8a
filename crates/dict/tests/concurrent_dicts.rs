//! Concurrent dictionary semantics, generic over every §4 implementation:
//! linearizable insert/remove accounting, uniqueness under insert races,
//! and quiescent structural invariants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use valois_dict::{BstDict, Dictionary, HashDict, ResizableHashDict, SkipListDict, SortedListDict};

fn threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get().clamp(4, 8) as u64)
        .unwrap_or(4)
}

/// Each thread owns a disjoint key range: all inserts and removes must
/// succeed exactly once — any failure indicates a lost or duplicated
/// operation.
fn disjoint_ranges<D: Dictionary<u64, u64>>(dict: &D) {
    let t = threads();
    let per = 300u64;
    std::thread::scope(|s| {
        for tid in 0..t {
            s.spawn(move || {
                let base = tid * per;
                for k in base..base + per {
                    assert!(dict.insert(k, k + 1), "insert {k} must succeed");
                }
                for k in base..base + per {
                    assert_eq!(dict.find(&k), Some(k + 1), "find {k}");
                }
                for k in (base..base + per).step_by(2) {
                    assert!(dict.remove(&k), "remove {k} must succeed");
                }
            });
        }
    });
    assert_eq!(dict.len() as u64, t * per / 2);
    for k in 0..t * per {
        assert_eq!(dict.contains(&k), k % 2 == 1, "parity of {k}");
    }
}

/// All threads race to insert the same keys: exactly one winner per key.
fn insert_races<D: Dictionary<u64, u64>>(dict: &D) {
    let wins = AtomicU64::new(0);
    let keys = 100u64;
    std::thread::scope(|s| {
        let wins = &wins;
        for tid in 0..threads() {
            s.spawn(move || {
                for k in 0..keys {
                    if dict.insert(k, tid) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(wins.load(Ordering::Relaxed), keys, "one winner per key");
    assert_eq!(dict.len() as u64, keys);
    // Every stored value must be a coherent winner's value.
    for k in 0..keys {
        let v = dict.find(&k).expect("key present");
        assert!(v < threads());
    }
}

/// All threads race to remove the same keys: exactly one winner per key.
fn remove_races<D: Dictionary<u64, u64>>(dict: &D) {
    let keys = 100u64;
    for k in 0..keys {
        assert!(dict.insert(k, k));
    }
    let wins = AtomicU64::new(0);
    std::thread::scope(|s| {
        let wins = &wins;
        for _ in 0..threads() {
            s.spawn(move || {
                for k in 0..keys {
                    if dict.remove(&k) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(wins.load(Ordering::Relaxed), keys, "one remover per key");
    assert!(dict.is_empty());
}

/// Mixed churn against a small key space; net count must balance.
fn churn_conservation<D: Dictionary<u64, u64>>(dict: &D) {
    let inserted = AtomicU64::new(0);
    let removed = AtomicU64::new(0);
    std::thread::scope(|s| {
        let inserted = &inserted;
        let removed = &removed;
        for tid in 0..threads() {
            s.spawn(move || {
                let mut x = tid.wrapping_mul(0x9E37_79B9) | 1;
                for _ in 0..2_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % 64;
                    if x & 1 == 0 {
                        if dict.insert(key, tid) {
                            inserted.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if dict.remove(&key) {
                        removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let net = inserted.load(Ordering::Relaxed) - removed.load(Ordering::Relaxed);
    assert_eq!(
        dict.len() as u64,
        net,
        "insert/remove accounting must balance"
    );
}

mod sorted_list {
    use super::*;

    #[test]
    fn disjoint_ranges_hold() {
        let d: SortedListDict<u64, u64> = SortedListDict::new();
        disjoint_ranges(&d);
    }

    #[test]
    fn insert_race_single_winner() {
        let mut d: SortedListDict<u64, u64> = SortedListDict::new();
        insert_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn remove_race_single_winner() {
        let mut d: SortedListDict<u64, u64> = SortedListDict::new();
        remove_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn churn_balances() {
        let mut d: SortedListDict<u64, u64> = SortedListDict::new();
        churn_conservation(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn retry_accounting_matches_analysis() {
        // §4.1: "each successfully completed operation can cause p−1
        // concurrent processes to have to retry". With p threads hammering
        // one hot key region, retries stay bounded by (ops × p).
        let d: SortedListDict<u64, u64> = SortedListDict::new();
        let p = threads();
        let ops_per_thread = 500u64;
        std::thread::scope(|s| {
            let d = &d;
            for tid in 0..p {
                s.spawn(move || {
                    for i in 0..ops_per_thread {
                        let k = i % 8;
                        if (i + tid) % 2 == 0 {
                            d.insert(k, tid);
                        } else {
                            d.remove(&k);
                        }
                    }
                });
            }
        });
        let stats = d.list_stats();
        let total_ops = p * ops_per_thread;
        let retries = stats.insert_retries() + stats.delete_retries();
        assert!(
            retries <= total_ops * p,
            "amortized bound: {retries} retries for {total_ops} ops at p={p}"
        );
    }
}

mod hash {
    use super::*;

    #[test]
    fn disjoint_ranges_hold() {
        let d: HashDict<u64, u64> = HashDict::with_buckets(32);
        disjoint_ranges(&d);
    }

    #[test]
    fn insert_race_single_winner() {
        let mut d: HashDict<u64, u64> = HashDict::with_buckets(16);
        insert_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn remove_race_single_winner() {
        let mut d: HashDict<u64, u64> = HashDict::with_buckets(16);
        remove_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn churn_balances() {
        let mut d: HashDict<u64, u64> = HashDict::with_buckets(8);
        churn_conservation(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    /// Operations per worker in `more_buckets_fewer_retries`.
    const HASH_CONTENTION_OPS: u64 = 20_000;

    #[test]
    fn more_buckets_fewer_retries() {
        // §4.1's hash-table claim in miniature: spreading a contended
        // workload over many buckets reduces retries vs one bucket. Each
        // worker inserts and removes its own 8 keys, interleaved with the
        // other workers' keys (`j * threads + tid`), so in one bucket every
        // cell a worker touches sits next to another worker's cells, while
        // 64 buckets mostly separate them. The workers start together on a
        // barrier and run long enough to overlap on a loaded host, so the
        // one-bucket run really contends.
        let run = |buckets: usize| -> u64 {
            let d: HashDict<u64, u64> = HashDict::with_buckets(buckets);
            let t = threads();
            let start = Barrier::new(t as usize);
            std::thread::scope(|s| {
                let (d, start) = (&d, &start);
                for tid in 0..t {
                    s.spawn(move || {
                        start.wait();
                        for i in 0..HASH_CONTENTION_OPS {
                            let k = (i / 2 % 8) * t + tid;
                            if i % 2 == 0 {
                                d.insert(k, tid);
                            } else {
                                d.remove(&k);
                            }
                        }
                    });
                }
            });
            d.total_retries()
        };
        let single = run(1);
        let many = run(64);
        // Not a hard guarantee per run, but overwhelmingly true; allow
        // equality for fast machines where contention is negligible.
        assert!(
            many <= single.max(1) * 2,
            "bucketing should not increase contention: 1 bucket {single} vs 64 buckets {many}"
        );
    }
}

mod resizable {
    use super::*;

    #[test]
    fn disjoint_ranges_hold() {
        // Start tiny so the disjoint-range fill drives several doublings
        // while the per-thread asserts race the bucket splits.
        let d: ResizableHashDict<u64, u64> = ResizableHashDict::with_initial_buckets(2);
        disjoint_ranges(&d);
        assert!(
            d.doublings() >= 3,
            "fill must resize: {} buckets",
            d.bucket_count()
        );
    }

    #[test]
    fn insert_race_single_winner() {
        let mut d: ResizableHashDict<u64, u64> = ResizableHashDict::with_initial_buckets(2);
        insert_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn remove_race_single_winner() {
        let mut d: ResizableHashDict<u64, u64> = ResizableHashDict::with_initial_buckets(2);
        remove_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn churn_balances() {
        let mut d: ResizableHashDict<u64, u64> = ResizableHashDict::with_initial_buckets(2);
        churn_conservation(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }
}

mod skiplist {
    use super::*;

    #[test]
    fn disjoint_ranges_hold() {
        let d: SkipListDict<u64, u64> = SkipListDict::new();
        disjoint_ranges(&d);
    }

    #[test]
    fn insert_race_single_winner() {
        let mut d: SkipListDict<u64, u64> = SkipListDict::new();
        insert_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn remove_race_single_winner() {
        let mut d: SkipListDict<u64, u64> = SkipListDict::new();
        remove_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn churn_balances() {
        let mut d: SkipListDict<u64, u64> = SkipListDict::new();
        churn_conservation(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn single_key_insert_remove_hammer_leaves_no_orphans() {
        // The hardest skip-list race: one key inserted and removed
        // concurrently. A remover passing level L before the inserter
        // links L would orphan the tower there. Two mechanisms prevent
        // any orphan surviving quiescence (check_invariants verifies the
        // level subset property): the inserter's fenced back_link[0]
        // check + self-undo, and the remover's post-delete
        // sweep_orphan_tower — see docs/PROTOCOL.md, "The orphan-tower
        // race", and the deterministic loom_skiplist model that pins the
        // interleaving this hammer used to lose to.
        //
        // VALOIS_HAMMER_ROUNDS overrides the round count (the nightly CI
        // job runs 500 consecutive rounds); with the `trace` feature on,
        // a failure dumps a merged .vtrace post-mortem for the artifact
        // upload.
        valois_trace::arm_panic_dump();
        let rounds: u64 = std::env::var("VALOIS_HAMMER_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        for round in 0..rounds {
            let mut d: SkipListDict<u64, u64> = SkipListDict::new();
            std::thread::scope(|s| {
                let d = &d;
                for t in 0..2u64 {
                    s.spawn(move || {
                        for i in 0..200u64 {
                            if (i + t) % 2 == 0 {
                                d.insert(7, i);
                            } else {
                                d.remove(&7);
                            }
                        }
                    });
                }
            });
            d.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            d.audit_refcounts()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            // Make the final state definite and re-verify.
            d.remove(&7);
            assert_eq!(d.find(&7), None);
            assert!(d.insert(7, 1), "key must be insertable after the storm");
            assert_eq!(d.find(&7), Some(1));
            d.check_invariants().unwrap();
            d.audit_refcounts().unwrap();
        }
    }

    #[test]
    fn concurrent_readers_during_churn() {
        let mut d: SkipListDict<u64, u64> = SkipListDict::new();
        for k in 0..256 {
            d.insert(k * 2, k);
        }
        let stop = AtomicU64::new(0);
        std::thread::scope(|s| {
            let d = &d;
            let stop = &stop;
            for tid in 0..2u64 {
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let k = (i * 7 + tid * 3) % 512;
                        if i % 2 == 0 {
                            d.insert(k, i);
                        } else {
                            d.remove(&k);
                        }
                    }
                    stop.fetch_add(1, Ordering::Release);
                });
            }
            for _ in 0..3 {
                s.spawn(move || {
                    while stop.load(Ordering::Acquire) < 2 {
                        for k in (0..512).step_by(17) {
                            // Must never crash or hang; result is free to
                            // be either under concurrency.
                            let _ = d.contains(&k);
                        }
                    }
                });
            }
        });
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }
}

mod bst {
    use super::*;

    #[test]
    fn disjoint_ranges_hold() {
        let d: BstDict<u64, u64> = BstDict::new();
        disjoint_ranges(&d);
    }

    #[test]
    fn insert_race_single_winner() {
        let mut d: BstDict<u64, u64> = BstDict::new();
        insert_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn remove_race_single_winner() {
        let mut d: BstDict<u64, u64> = BstDict::new();
        remove_races(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn churn_balances() {
        let mut d: BstDict<u64, u64> = BstDict::new();
        churn_conservation(&d);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn single_key_hammer_with_neighbours() {
        // Deleting an internal key between live neighbours exercises all
        // three BST deletion cases (leaf, one-child, Fig. 14 two-child)
        // under contention; in-order must stay exact.
        for round in 0..30 {
            let mut d: BstDict<u64, u64> = BstDict::new();
            d.insert(10, 0);
            d.insert(5, 0);
            d.insert(15, 0);
            std::thread::scope(|s| {
                let d = &d;
                for t in 0..2u64 {
                    s.spawn(move || {
                        for i in 0..200u64 {
                            if (i + t) % 2 == 0 {
                                d.insert(10, i);
                            } else {
                                d.remove(&10);
                            }
                        }
                    });
                }
            });
            d.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert!(d.contains(&5) && d.contains(&15), "neighbours intact");
            d.remove(&10);
            assert!(d.insert(10, 1));
            assert_eq!(d.find(&10), Some(1));
            d.check_invariants().unwrap();
        }
    }

    #[test]
    fn concurrent_readers_during_churn() {
        let d: BstDict<u64, u64> = BstDict::new();
        for k in 0..256u64 {
            d.insert(k * 2, k);
        }
        let stop = AtomicU64::new(0);
        std::thread::scope(|s| {
            let d = &d;
            let stop = &stop;
            for tid in 0..2u64 {
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let k = (i * 7 + tid * 3) % 512;
                        if i % 2 == 0 {
                            d.insert(k, i);
                        } else {
                            d.remove(&k);
                        }
                    }
                    stop.fetch_add(1, Ordering::Release);
                });
            }
            for _ in 0..3 {
                s.spawn(move || {
                    while stop.load(Ordering::Acquire) < 2 {
                        for k in (0..512).step_by(17) {
                            let _ = d.contains(&k);
                        }
                    }
                });
            }
        });
    }
}
