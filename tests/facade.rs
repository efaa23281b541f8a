//! Cross-crate integration through the `valois` facade: the public API a
//! downstream user sees, exercised end to end.

use valois::mem::AllocError;
use valois::{ArenaConfig, BstDict, Dictionary, HashDict, List, SkipListDict, SortedListDict};

#[test]
fn facade_reexports_are_usable() {
    let list: List<u32> = List::new();
    let mut cur = list.cursor();
    cur.insert(1).unwrap();
    assert_eq!(list.len(), 1);

    let d1: SortedListDict<u32, u32> = SortedListDict::new();
    let d2: HashDict<u32, u32> = HashDict::with_buckets(8);
    let d3: SkipListDict<u32, u32> = SkipListDict::new();
    let d4: BstDict<u32, u32> = BstDict::new();
    for d in [
        &d1 as &dyn Dictionary<u32, u32>,
        &d2 as &dyn Dictionary<u32, u32>,
        &d3 as &dyn Dictionary<u32, u32>,
        &d4 as &dyn Dictionary<u32, u32>,
    ] {
        assert!(d.insert(1, 10));
        assert!(!d.insert(1, 20));
        assert_eq!(d.find(&1), Some(10));
        assert!(d.remove(&1));
        assert!(d.is_empty());
    }
}

#[test]
fn sync_primitives_reachable() {
    use valois::{Backoff, Lock, LockKind, TasLock};
    let lock = TasLock::new();
    lock.acquire();
    lock.release();
    let mut b = Backoff::new();
    b.spin();
    for k in LockKind::ALL {
        let l = k.build();
        l.acquire();
        l.release();
    }
}

#[test]
fn every_dictionary_agrees_with_a_model_under_one_workload() {
    // One mixed workload applied to all four §4 dictionaries and a model;
    // any divergence is a cross-implementation semantic bug.
    use std::collections::BTreeMap;
    let sorted: SortedListDict<u64, u64> = SortedListDict::new();
    let hash: HashDict<u64, u64> = HashDict::with_buckets(16);
    let skip: SkipListDict<u64, u64> = SkipListDict::new();
    let bst: BstDict<u64, u64> = BstDict::new();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();

    let mut x = 0xDEADBEEFu64;
    for _ in 0..3_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 96;
        if x & 0b100 == 0 {
            let expect = !model.contains_key(&k);
            if expect {
                model.insert(k, k);
            }
            assert_eq!(sorted.insert(k, k), expect, "sorted insert {k}");
            assert_eq!(hash.insert(k, k), expect, "hash insert {k}");
            assert_eq!(skip.insert(k, k), expect, "skip insert {k}");
            assert_eq!(bst.insert(k, k), expect, "bst insert {k}");
        } else if x & 0b1000 == 0 {
            let expect = model.remove(&k).is_some();
            assert_eq!(sorted.remove(&k), expect, "sorted remove {k}");
            assert_eq!(hash.remove(&k), expect, "hash remove {k}");
            assert_eq!(skip.remove(&k), expect, "skip remove {k}");
            assert_eq!(bst.remove(&k), expect, "bst remove {k}");
        } else {
            let expect = model.get(&k).copied();
            assert_eq!(sorted.find(&k), expect, "sorted find {k}");
            assert_eq!(hash.find(&k), expect, "hash find {k}");
            assert_eq!(skip.find(&k), expect, "skip find {k}");
            assert_eq!(bst.find(&k), expect, "bst find {k}");
        }
    }
    assert_eq!(sorted.len(), model.len());
    assert_eq!(hash.len(), model.len());
    assert_eq!(skip.len(), model.len());
    assert_eq!(bst.len(), model.len());
}

#[test]
fn capped_arena_config_flows_through() {
    let d: SortedListDict<u64, u64> =
        SortedListDict::with_config(ArenaConfig::new().initial_capacity(16).max_nodes(16));
    // 3 structural nodes + 2 per item → 6 items fit.
    let mut inserted = 0;
    for k in 0..10 {
        match d.try_insert(k, k) {
            Ok(won) => {
                assert!(won, "key {k} is new");
                inserted += 1;
            }
            Err(AllocError) => break,
        }
    }
    assert!((5..=7).contains(&inserted), "inserted={inserted}");
    assert_eq!(d.try_insert(10, 10), Err(AllocError), "the pool stays full");
}

#[test]
fn readme_architecture_claim_nonblocking_under_stall() {
    // A thread parked mid-operation must not prevent others from finishing
    // (the non-blocking property, §2.1) — smoke version of experiment E2.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    let dict: SortedListDict<u64, u64> = SortedListDict::new();
    for k in 0..32 {
        dict.insert(k * 2, k);
    }
    let barrier = Barrier::new(2);
    let stalled = AtomicBool::new(false);
    std::thread::scope(|s| {
        let dict = &dict;
        let barrier = &barrier;
        let stalled = &stalled;
        // Thread A: opens a cursor *mid-list* (holding counted references)
        // and parks for a long time.
        s.spawn(move || {
            let mut cur = dict.as_list().cursor();
            cur.next();
            cur.next();
            barrier.wait();
            while !stalled.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            drop(cur);
        });
        // Thread B: completes hundreds of operations while A is parked.
        barrier.wait();
        for k in 0..200u64 {
            assert!(dict.insert(1_000 + k, k));
            assert!(dict.remove(&(1_000 + k)));
        }
        stalled.store(true, Ordering::Release);
    });
    assert_eq!(dict.len(), 32);
}
