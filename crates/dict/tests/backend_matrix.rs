//! Backend-parameterized dictionary battery: each arm instantiates the
//! same test bodies for a concrete `(dictionary, reclamation backend)`
//! pair, so a regression in either backend — or in dict code that is
//! generic over the backend — fails by arm name.
//!
//! Three layers:
//!
//! * **Oracle scripts** (proptest-style, seeded in-repo RNG — the
//!   offline build cannot fetch proptest): random insert/remove/find
//!   scripts run against the dictionary and a `BTreeMap` side by side;
//!   every return value and every post-script lookup must agree.
//! * **Concurrent stress**: disjoint-range accounting, same-key insert
//!   races (one winner per key), and mixed churn conservation.
//! * **`smoke_` twins**: Miri-sized single-threaded roundtrips
//!   (`cargo +nightly miri test -p valois-dict smoke_`).
//!
//! Exact refcount audits stay in the refcount-typed suites
//! (`concurrent_dicts.rs`, `resizable_stress.rs`): under `Epoch`,
//! traversal is uncounted, so only structural invariants are checked
//! here (see `epoch_invariants_hold_after_churn` below).

use std::collections::BTreeMap;
use std::hash::RandomState;
use std::sync::atomic::{AtomicU64, Ordering};

use valois_core::{Epoch, RefCount};
use valois_dict::{Dictionary, HashDict, ResizableHashDict, SkipListDict, SortedListDict};
use valois_sync::rng::SmallRng;

fn threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get().clamp(4, 8) as u64)
        .unwrap_or(4)
}

/// Runs seeded random scripts against `D` and a `BTreeMap` oracle.
/// Insert first-wins semantics: the dict refuses duplicates, so the
/// oracle inserts only when the key is vacant.
fn oracle_scripts_match_btreemap<D: Dictionary<u64, u64> + Default>() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1C7_0001 ^ (case * 0x9E37));
        let dict = D::default();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..300 {
            let x = rng.next_u64();
            let key = (x >> 8) % 48;
            match x & 3 {
                0 | 1 => {
                    let newly = !oracle.contains_key(&key);
                    assert_eq!(
                        dict.insert(key, x),
                        newly,
                        "case {case} step {step}: insert({key}) disagrees"
                    );
                    if newly {
                        oracle.insert(key, x);
                    }
                }
                2 => {
                    assert_eq!(
                        dict.remove(&key),
                        oracle.remove(&key).is_some(),
                        "case {case} step {step}: remove({key}) disagrees"
                    );
                }
                _ => {
                    assert_eq!(
                        dict.find(&key),
                        oracle.get(&key).copied(),
                        "case {case} step {step}: find({key}) disagrees"
                    );
                }
            }
        }
        assert_eq!(dict.len(), oracle.len(), "case {case}: length disagrees");
        for key in 0..48 {
            assert_eq!(
                dict.find(&key),
                oracle.get(&key).copied(),
                "case {case}: final find({key}) disagrees"
            );
            assert_eq!(dict.contains(&key), oracle.contains_key(&key));
        }
    }
}

/// Each thread owns a disjoint key range; every op must succeed exactly
/// once and the survivors are exactly the odd keys.
fn disjoint_ranges_hold<D: Dictionary<u64, u64> + Default>() {
    let dict = D::default();
    let t = threads();
    let per = 200u64;
    std::thread::scope(|s| {
        let dict = &dict;
        for tid in 0..t {
            s.spawn(move || {
                let base = tid * per;
                for k in base..base + per {
                    assert!(dict.insert(k, k + 1), "insert {k} must succeed");
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
fn insert_race_single_winner<D: Dictionary<u64, u64> + Default>() {
    let dict = D::default();
    let wins = AtomicU64::new(0);
    let keys = 80u64;
    std::thread::scope(|s| {
        let (dict, wins) = (&dict, &wins);
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
}

/// Mixed churn against a small key space; net accounting must balance.
fn churn_balances<D: Dictionary<u64, u64> + Default>() {
    let dict = D::default();
    let inserted = AtomicU64::new(0);
    let removed = AtomicU64::new(0);
    std::thread::scope(|s| {
        let (dict, inserted, removed) = (&dict, &inserted, &removed);
        for tid in 0..threads() {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xBAC6_0001 ^ tid);
                for _ in 0..1_500 {
                    let x = rng.next_u64();
                    let key = (x >> 8) % 64;
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
    assert_eq!(dict.len() as u64, net, "insert/remove accounting");
}

/// Miri-sized twin: a handful of operations, single-threaded.
fn smoke_roundtrip<D: Dictionary<u64, u64> + Default>() {
    let dict = D::default();
    for k in 0..12u64 {
        assert!(dict.insert(k, k * 10));
    }
    assert!(!dict.insert(5, 99), "duplicate refused");
    for k in (0..12).step_by(3) {
        assert!(dict.remove(&k));
    }
    for k in 0..12u64 {
        assert_eq!(dict.find(&k), (k % 3 != 0).then_some(k * 10));
    }
    assert_eq!(dict.len(), 8);
}

/// Instantiates the battery for one `(name, dictionary type)` pair.
macro_rules! dict_arms {
    ($arm:ident, $ty:ty) => {
        mod $arm {
            use super::*;

            #[test]
            fn oracle_scripts() {
                oracle_scripts_match_btreemap::<$ty>();
            }

            #[test]
            fn disjoint_ranges() {
                disjoint_ranges_hold::<$ty>();
            }

            #[test]
            fn insert_races() {
                insert_race_single_winner::<$ty>();
            }

            #[test]
            fn churn() {
                churn_balances::<$ty>();
            }

            #[test]
            fn smoke_dict_roundtrip() {
                smoke_roundtrip::<$ty>();
            }
        }
    };
}

dict_arms!(sorted_refcount, SortedListDict<u64, u64, RefCount>);
dict_arms!(sorted_epoch, SortedListDict<u64, u64, Epoch>);
dict_arms!(hash_refcount, HashDict<u64, u64, RandomState, RefCount>);
dict_arms!(hash_epoch, HashDict<u64, u64, RandomState, Epoch>);
dict_arms!(resizable_refcount, ResizableHashDict<u64, u64, RandomState, RefCount>);
dict_arms!(resizable_epoch, ResizableHashDict<u64, u64, RandomState, Epoch>);
dict_arms!(skip_refcount, SkipListDict<u64, u64>);

/// The epoch arms must hold the typed structural invariants too (the
/// trait-generic battery cannot reach `check_invariants`), and must
/// actually route reclamation through the epoch machinery.
#[test]
fn epoch_invariants_hold_after_churn() {
    let mut d: SortedListDict<u64, u64, Epoch> = SortedListDict::new();
    for k in 0..128 {
        d.insert(k, k);
    }
    for k in (0..128).step_by(2) {
        d.remove(&k);
    }
    d.check_invariants().unwrap();
    let stats = d.mem_stats();
    assert!(stats.epoch_pins > 0, "dict ops must pin");
    assert!(
        stats.epoch_retires >= 64,
        "removes must retire through limbo"
    );

    let mut r: ResizableHashDict<u64, u64, RandomState, Epoch> =
        ResizableHashDict::with_initial_buckets(2);
    for k in 0..128 {
        r.insert(k, k);
    }
    for k in (0..128).step_by(2) {
        r.remove(&k);
    }
    assert!(r.bucket_count() > 2, "table must have grown");
    r.check_invariants().unwrap();
}
