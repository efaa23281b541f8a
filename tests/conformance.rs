//! One conformance suite for every §4 dictionary. The same test bodies
//! run on eight arms — {sorted, hash, resizable} × {`RefCount`, `Epoch`},
//! plus the counted skip list and BST — so a regression in a dictionary,
//! or in dictionary code generic over the reclamation backend, fails by
//! arm name.
//!
//! Every arm runs:
//!
//! * seeded scripts against a `BTreeMap` oracle: every return value and
//!   every `len` must agree, and the invariants hold after every step;
//! * concurrent stress: disjoint ranges with finds, insert races with
//!   coherent values, remove races, churn conservation, readers during
//!   churn, and a single-key insert/remove hammer between live
//!   neighbours;
//! * a Miri-sized `smoke_` twin
//!   (`cargo +nightly miri test --test conformance smoke_`);
//! * on every arm but `HashDict`, which has no arena configuration of its
//!   own, the capped-arena contract of `Dictionary::try_insert`: a
//!   failed allocation sheds and retries once, and true exhaustion is an
//!   `Err` with nothing half-linked;
//! * on the two resizable arms, the batched `count_present` against
//!   per-key `contains`, under churn and as a `smoke_` twin.
//!
//! Every test ends with `check_invariants` and the exact link-count
//! audit, epoch arms included. Dictionary-specific tests follow the arms.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::hash::RandomState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

mod common;
use common::{capped_config, threads};

use valois::mem::{Epoch, Reclaimer, RefCount};
use valois::sync::rng::SmallRng;
use valois::{
    ArenaConfig, BstDict, Dictionary, HashDict, MemStats, ResizableHashDict, SkipListDict,
    SortedListDict,
};

/// What the suite needs beyond [`Dictionary`]: constructors and the
/// quiescent testing hooks every dictionary has as inherent methods.
trait Subject: Dictionary<u64, u64> + Sized {
    /// Reads are uncounted (epoch protection) and deletes park garbage
    /// in limbo.
    const EPOCH: bool = false;
    fn fresh() -> Self;
    /// On a capped arena; `None` for `HashDict`, which has no arena
    /// configuration of its own.
    fn capped(config: ArenaConfig) -> Option<Self>;
    fn check(&mut self) -> Result<(), String>;
    fn audit(&mut self) -> Result<(), String>;
    fn mem(&self) -> MemStats;
}

/// Implements [`Subject`]; `where R` marks a dictionary generic over its
/// reclamation backend `R`.
macro_rules! subject {
    ($ty:ty $(where $r:ident)?, $fresh:expr, $capped:expr) => {
        impl$(<$r: Reclaimer>)? Subject for $ty {
            $(const EPOCH: bool = !$r::COUNTED_READS;)?
            fn fresh() -> Self {
                $fresh
            }
            fn capped(config: ArenaConfig) -> Option<Self> {
                $capped(config)
            }
            fn check(&mut self) -> Result<(), String> {
                self.check_invariants()
            }
            fn audit(&mut self) -> Result<(), String> {
                self.audit_refcounts()
            }
            fn mem(&self) -> MemStats {
                self.mem_stats()
            }
        }
    };
}

subject!(SortedListDict<u64, u64, R> where R, Self::new(), |c| Some(Self::with_config(c)));
subject!(HashDict<u64, u64, RandomState, R> where R, Self::with_buckets(8), |_| None);
// Two buckets, so every test races the bucket splits.
subject!(
    ResizableHashDict<u64, u64, RandomState, R> where R,
    Self::with_initial_buckets(2),
    |c| Some(Self::with_settings(4, RandomState::new(), c))
);
subject!(SkipListDict<u64, u64>, Self::new(), |c| Some(Self::with_config(c)));
subject!(BstDict<u64, u64>, Self::new(), |c| Some(Self::with_config(c)));

/// A dictionary on an arena of exactly `nodes` nodes.
fn capped<D: Subject>(nodes: usize) -> D {
    D::capped(capped_config(nodes)).expect("arm has a capped constructor")
}

/// The quiescent end of every test: structural invariants, then the
/// exact link-count audit.
fn settle<D: Subject>(d: &mut D, what: impl Display) {
    d.check().unwrap_or_else(|e| panic!("{what}: {e}"));
    d.audit().unwrap_or_else(|e| panic!("{what}: {e}"));
}

/// One seeded script of `steps` operations over keys `0..keys` against a
/// `BTreeMap` oracle (first insert wins). Of every eight operations,
/// `inserts` are inserts and the rest split evenly over remove, find and
/// `len`. Every result must agree and the invariants hold after every
/// step; the script ends with a full comparison and the audit.
fn script<D: Subject>(d: &mut D, seed: u64, keys: u64, inserts: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for step in 0..steps {
        let x = rng.next_u64();
        let (k, v, r) = ((x >> 8) % keys, x >> 40, x % 8);
        let at = || format!("seed {seed:#x} step {step}, key {k}");
        if r < inserts {
            let vacant = !oracle.contains_key(&k);
            assert_eq!(d.insert(k, v), vacant, "{}: insert", at());
            oracle.entry(k).or_insert(v);
        } else {
            match (r - inserts) * 3 / (8 - inserts) {
                0 => assert_eq!(
                    d.remove(&k),
                    oracle.remove(&k).is_some(),
                    "{}: remove",
                    at()
                ),
                1 => assert_eq!(d.find(&k), oracle.get(&k).copied(), "{}: find", at()),
                _ => assert_eq!(d.len(), oracle.len(), "{}: len", at()),
            }
        }
        d.check().unwrap_or_else(|e| panic!("{}: {e}", at()));
    }
    assert_eq!(d.len(), oracle.len(), "seed {seed:#x}: final len");
    for k in 0..keys {
        let want = oracle.get(&k).copied();
        assert_eq!(d.find(&k), want, "seed {seed:#x}: find({k})");
        assert_eq!(d.contains(&k), oracle.contains_key(&k));
    }
    settle(d, format_args!("seed {seed:#x}"));
}

/// 64 scripts of 320 steps, over key spaces of 32, 48 and 128 and with a
/// half or a quarter of the operations inserts.
fn oracle_scripts<D: Subject>() {
    for case in 0..64u64 {
        let keys = [32, 48, 128][case as usize % 3];
        let inserts = [4, 2][case as usize % 2];
        let seed = 0xD1C7_0001 ^ (case * 0x9E37);
        script(&mut D::fresh(), seed, keys, inserts, 320);
    }
}

/// Each thread owns a disjoint key range: every insert, find and remove
/// succeeds exactly once, and the survivors are exactly the odd keys.
fn disjoint_ranges<D: Subject>(d: &mut D) {
    let (t, per) = (threads(), 300u64);
    std::thread::scope(|s| {
        let d = &*d;
        for tid in 0..t {
            s.spawn(move || {
                let base = tid * per;
                for k in base..base + per {
                    assert!(d.insert(k, k + 1), "insert {k} must succeed");
                }
                for k in base..base + per {
                    assert_eq!(d.find(&k), Some(k + 1), "find {k}");
                }
                for k in (base..base + per).step_by(2) {
                    assert!(d.remove(&k), "remove {k} must succeed");
                }
            });
        }
    });
    assert_eq!(d.len() as u64, t * per / 2);
    for k in 0..t * per {
        assert_eq!(d.contains(&k), k % 2 == 1, "parity of {k}");
    }
    settle(d, "disjoint ranges");
}

/// All threads race to insert the same keys: one winner per key, and
/// every stored value is a winner's.
fn insert_races<D: Subject>(d: &mut D) {
    let (wins, keys) = (AtomicU64::new(0), 100u64);
    std::thread::scope(|s| {
        let (d, wins) = (&*d, &wins);
        for tid in 0..threads() {
            s.spawn(move || {
                for k in 0..keys {
                    if d.insert(k, tid) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(wins.load(Ordering::Relaxed), keys, "one winner per key");
    assert_eq!(d.len() as u64, keys);
    for k in 0..keys {
        assert!(d.find(&k).expect("key present") < threads());
    }
    settle(d, "insert races");
}

/// All threads race to remove the same keys: one winner per key.
fn remove_races<D: Subject>(d: &mut D) {
    let (wins, keys) = (AtomicU64::new(0), 100u64);
    for k in 0..keys {
        assert!(d.insert(k, k));
    }
    std::thread::scope(|s| {
        let (d, wins) = (&*d, &wins);
        for _ in 0..threads() {
            s.spawn(move || {
                for k in 0..keys {
                    if d.remove(&k) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(wins.load(Ordering::Relaxed), keys, "one remover per key");
    assert!(d.is_empty());
    settle(d, "remove races");
}

/// Mixed churn on 64 keys: successful inserts minus successful removes
/// is the final length.
fn churn<D: Subject>(d: &mut D) {
    let (inserted, removed) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        let (d, inserted, removed) = (&*d, &inserted, &removed);
        for tid in 0..threads() {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xBAC6_0001 ^ tid);
                for _ in 0..2_000 {
                    let x = rng.next_u64();
                    let key = (x >> 8) % 64;
                    if x & 1 == 0 {
                        if d.insert(key, tid) {
                            inserted.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if d.remove(&key) {
                        removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let net = inserted.load(Ordering::Relaxed) - removed.load(Ordering::Relaxed);
    assert_eq!(d.len() as u64, net, "insert/remove accounting");
    settle(d, "churn");
}

/// Three readers probe while two writers churn: nothing crashes, hangs
/// or corrupts.
fn readers_during_churn<D: Subject>(d: &mut D) {
    for k in 0..256 {
        assert!(d.insert(k * 2, k));
    }
    let stop = AtomicU64::new(0);
    std::thread::scope(|s| {
        let (d, stop) = (&*d, &stop);
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
                        // Either answer is fine under concurrency.
                        let _ = d.contains(&k);
                    }
                }
            });
        }
    });
    settle(d, "readers during churn");
}

/// One key inserted and removed concurrently between two live
/// neighbours. For the skip list this is the orphan-tower race (a
/// remover passing level L before the inserter links L; see
/// docs/PROTOCOL.md, "The orphan-tower race"); for the BST it drives all
/// three deletion cases. `VALOIS_HAMMER_ROUNDS` overrides the 30 rounds
/// (the nightly job runs 500); with the `trace` feature a failure dumps
/// a merged `.vtrace` post-mortem.
fn single_key_hammer<D: Subject>() {
    valois_trace::arm_panic_dump();
    let rounds: u64 = std::env::var("VALOIS_HAMMER_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    for round in 0..rounds {
        let mut d = D::fresh();
        assert!(d.insert(5, 0) && d.insert(15, 0));
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
        settle(&mut d, format_args!("round {round}"));
        assert!(d.contains(&5) && d.contains(&15), "neighbours intact");
        // Make the final state definite and re-verify.
        d.remove(&10);
        assert_eq!(d.find(&10), None);
        assert!(d.insert(10, 1), "key must be insertable after the storm");
        assert_eq!(d.find(&10), Some(1));
        settle(&mut d, format_args!("round {round}, after"));
    }
}

/// Miri-sized twin: a dozen single-threaded operations.
fn smoke_roundtrip<D: Subject>(d: &mut D) {
    for k in 0..12u64 {
        assert!(d.insert(k, k * 10));
    }
    assert!(!d.insert(5, 99), "duplicate refused");
    for k in (0..12).step_by(3) {
        assert!(d.remove(&k));
    }
    for k in 0..12u64 {
        assert_eq!(d.find(&k), (k % 3 != 0).then_some(k * 10));
    }
    assert_eq!(d.len(), 8);
    settle(d, "smoke");
}

/// Inserts fresh keys from `from` up until the pool refuses one, and
/// returns the keys that went in.
fn fill<D: Subject>(d: &D, from: u64) -> Vec<u64> {
    let mut keys = Vec::new();
    for k in from.. {
        match d.try_insert(k, k) {
            Ok(won) => assert!(won, "key {k} is fresh"),
            Err(_) => break,
        }
        keys.push(k);
    }
    keys
}

/// Fill a capped pool to refusal, delete everything (parking garbage in
/// limbo under `Epoch`), then insert fresh keys: the shed-and-retry path
/// must find the memory a bare in-window allocation cannot.
fn capped_delete_burst_then_insert<D: Subject>() {
    let mut d: D = capped(128);
    let keys = fill(&d, 0);
    assert!(keys.len() >= 16, "capped pool too small");
    assert_eq!(d.len(), keys.len());
    for k in &keys {
        assert!(d.remove(k));
    }
    assert!(d.is_empty());
    if D::EPOCH {
        assert!(d.mem().epoch_limbo_depth > 0, "garbage parked in limbo");
    }
    let fresh = keys.len() as u64 / 2;
    for i in 0..fresh {
        let key = 1_000_000 + i;
        assert_eq!(d.try_insert(key, i), Ok(true), "post-shed {key}");
    }
    assert_eq!(d.len() as u64, fresh);
    settle(&mut d, "delete burst");
}

/// The infallible `Dictionary::insert` rides the same shed path.
fn capped_trait_insert_survives_delete_burst<D: Subject>() {
    let mut d: D = capped(96);
    let keys = fill(&d, 0);
    for k in &keys {
        assert!(d.remove(k));
    }
    for i in 0..keys.len() as u64 / 2 {
        assert!(d.insert(2_000_000 + i, i), "insert must not panic");
    }
    settle(&mut d, "trait insert");
}

/// A pool full of live nodes still reports the failure — as `Err`, not a
/// panic — and the dictionary stays usable and exact.
fn capped_true_exhaustion_surfaces<D: Subject>() {
    let mut d: D = capped(64);
    let keys = fill(&d, 0);
    assert!(d.try_insert(u64::MAX, 0).is_err());
    assert_eq!(d.len(), keys.len(), "a failed insert links nothing");
    assert_eq!(d.find(&keys[0]), Some(keys[0]));
    assert!(d.remove(&keys[0]));
    settle(&mut d, "true exhaustion");
}

/// `ResizableHashDict::count_present` (a hint pass, then `contains` on
/// each key) agrees with per-key `contains` on a fixed key set while two
/// threads churn a disjoint one through bucket splits and node reuse, so
/// the hint reads meet recycled nodes and unpublished buckets.
fn count_present_under_churn<R: Reclaimer>(d: &mut ResizableHashDict<u64, u64, RandomState, R>) {
    // Keys 0..STABLE, present iff divisible by 3; churn keys lie above.
    const STABLE: u64 = 3_000;
    for k in (0..STABLE).step_by(3) {
        assert!(d.insert(k, k));
    }
    let churners_done = AtomicU64::new(0);
    std::thread::scope(|s| {
        let (d, done) = (&*d, &churners_done);
        for tid in 0..2u64 {
            s.spawn(move || {
                let base = STABLE + tid * 10_000;
                for round in 0..4 {
                    for k in base..base + 2_000 {
                        assert!(d.insert(k, round));
                    }
                    for k in base..base + 2_000 {
                        assert!(d.remove(&k));
                    }
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        for tid in 0..2u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xC0DE_0001 ^ tid);
                let mut keys = Vec::new();
                let mut batches = 0;
                while done.load(Ordering::Acquire) < 2 || batches < 100 {
                    keys.clear();
                    let len = rng.gen_range(0..40usize);
                    keys.extend((0..len).map(|_| rng.gen_range(0..STABLE)));
                    let truth = keys.iter().filter(|&&k| k % 3 == 0).count();
                    let per_key = keys.iter().filter(|k| d.contains(k)).count();
                    assert_eq!(per_key, truth, "per-key contains of {keys:?}");
                    assert_eq!(d.count_present(&keys), truth, "count_present of {keys:?}");
                    batches += 1;
                }
            });
        }
    });
    assert_eq!(d.len() as u64, STABLE / 3);
    settle(d, "count_present under churn");
}

/// Miri-sized twin: `count_present` over prefixes that end inside, at
/// and past one hint round, against per-key `contains`.
fn smoke_count_present<R: Reclaimer>(d: &mut ResizableHashDict<u64, u64, RandomState, R>) {
    for k in 0..12u64 {
        assert!(d.insert(k, k));
    }
    for k in (0..12).step_by(3) {
        assert!(d.remove(&k));
    }
    let keys: Vec<u64> = (0..20).collect();
    for len in [0, 1, 16, 17, 20] {
        let want = keys[..len].iter().filter(|k| d.contains(k)).count();
        assert_eq!(d.count_present(&keys[..len]), want, "first {len} keys");
    }
    assert_eq!(d.count_present(&keys), 8);
    settle(d, "smoke count_present");
}

/// Instantiates the suite for one `(arm, dictionary type)` pair; `capped`
/// adds the capped-arena tests and `count_present` the resizable table's
/// batched lookup.
macro_rules! arm {
    ($arm:ident: $ty:ty $(, $extra:ident)*) => {
        mod $arm {
            use super::*;
            type D = $ty;
            #[test]
            fn oracle_scripts() {
                super::oracle_scripts::<D>();
            }
            #[test]
            fn disjoint_ranges() {
                super::disjoint_ranges(&mut D::fresh());
            }
            #[test]
            fn insert_races() {
                super::insert_races(&mut D::fresh());
            }
            #[test]
            fn remove_races() {
                super::remove_races(&mut D::fresh());
            }
            #[test]
            fn churn() {
                super::churn(&mut D::fresh());
            }
            #[test]
            fn readers_during_churn() {
                super::readers_during_churn(&mut D::fresh());
            }
            #[test]
            fn single_key_hammer() {
                super::single_key_hammer::<D>();
            }
            #[test]
            fn smoke_roundtrip() {
                super::smoke_roundtrip(&mut D::fresh());
            }
            $(arm!(@$extra);)*
        }
    };
    (@capped) => {
        #[test]
        fn capped_delete_burst_then_insert() {
            super::capped_delete_burst_then_insert::<D>();
        }
        #[test]
        fn capped_trait_insert_survives_delete_burst() {
            super::capped_trait_insert_survives_delete_burst::<D>();
        }
        #[test]
        fn capped_true_exhaustion_surfaces() {
            super::capped_true_exhaustion_surfaces::<D>();
        }
    };
    (@count_present) => {
        #[test]
        fn count_present_under_churn() {
            super::count_present_under_churn(&mut D::fresh());
        }
        #[test]
        fn smoke_count_present() {
            super::smoke_count_present(&mut D::fresh());
        }
    };
}

arm!(sorted_refcount: SortedListDict<u64, u64, RefCount>, capped);
arm!(sorted_epoch: SortedListDict<u64, u64, Epoch>, capped);
arm!(hash_refcount: HashDict<u64, u64, RandomState, RefCount>);
arm!(hash_epoch: HashDict<u64, u64, RandomState, Epoch>);
arm!(resizable_refcount: ResizableHashDict<u64, u64, RandomState, RefCount>, capped, count_present);
arm!(resizable_epoch: ResizableHashDict<u64, u64, RandomState, Epoch>, capped, count_present);
arm!(skip: SkipListDict<u64, u64>, capped);
arm!(bst: BstDict<u64, u64>, capped);

/// Range queries on a sorted structure agree with `BTreeMap::range`.
fn ranges_match<D: Dictionary<u64, u64>>(
    seed: u64,
    fresh: fn() -> D,
    range: impl Fn(&D, u64, u64) -> Vec<(u64, u64)>,
) {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ (case * 0x9E37));
        let d = fresh();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..320 {
            let x = rng.next_u64();
            let k = (x >> 8) % 128;
            if x & 1 == 0 {
                model.entry(k).or_insert(x >> 40);
                d.insert(k, x >> 40);
            } else {
                model.remove(&k);
                d.remove(&k);
            }
        }
        for _ in 0..8 {
            let lo = rng.gen_range(0..128u64);
            let hi = lo + rng.gen_range(0..64u64);
            let expected: Vec<_> = model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(range(&d, lo, hi), expected, "case {case}: range {lo}..{hi}");
        }
    }
}

#[test]
fn sorted_list_range_matches_btreemap() {
    ranges_match(0xD1C7_0007, SortedListDict::<u64, u64>::new, |d, lo, hi| {
        d.range(&lo, &hi)
    });
}

#[test]
fn skiplist_range_matches_btreemap() {
    ranges_match(0xD1C7_0008, SkipListDict::<u64, u64>::new, |d, lo, hi| {
        d.range(&lo, &hi)
    });
}

/// Insert-heavy scripts and a concurrent disjoint fill from two buckets:
/// every one crosses at least three doublings.
#[test]
fn resizable_across_doublings() {
    for case in 0..64u64 {
        let mut d: ResizableHashDict<u64, u64> = ResizableHashDict::with_initial_buckets(2);
        script(&mut d, 0xD1C7_000B ^ (case * 0x9E37), 128, 5, 320);
        assert!(d.doublings() >= 3, "case {case}: {d:?}");
    }
    let mut d: ResizableHashDict<u64, u64> = ResizableHashDict::with_initial_buckets(2);
    disjoint_ranges(&mut d);
    assert!(d.doublings() >= 3, "fill must resize: {d:?}");
}

/// §4.1: "each successfully completed operation can cause p−1 concurrent
/// processes to have to retry". With p threads hammering eight keys,
/// retries stay within ops × p.
#[test]
fn sorted_retries_within_the_amortized_bound() {
    let mut d: SortedListDict<u64, u64> = SortedListDict::new();
    let (p, ops) = (threads(), 500u64);
    std::thread::scope(|s| {
        let d = &d;
        for tid in 0..p {
            s.spawn(move || {
                for i in 0..ops {
                    if (i + tid) % 2 == 0 {
                        d.insert(i % 8, tid);
                    } else {
                        d.remove(&(i % 8));
                    }
                }
            });
        }
    });
    let stats = d.list_stats();
    let retries = stats.insert_retries() + stats.delete_retries();
    assert!(
        retries <= p * ops * p,
        "{retries} retries for {} ops at p={p}",
        p * ops
    );
    settle(&mut d, "retry bound");
}

/// §4.1's hash-table claim in miniature: spreading a contended workload
/// over many buckets does not raise retries. Each worker inserts and
/// removes its own 8 keys, interleaved with the other workers' keys
/// (`j * threads + tid`), so in one bucket every cell a worker touches
/// sits next to another worker's.
///
/// Retries need the workers to run at the same time, and a loaded host
/// (more runnable threads than cores) may run them one after another.
/// So both arms run in the same passes: every worker applies each
/// operation to the one-bucket and the 64-bucket table in turn, swapping
/// which goes first every window of 64 operations, so the two tables see
/// the same overlap. Each worker also publishes its progress and counts
/// the windows in which another worker advanced; passes repeat until
/// the workers have overlapped for `OVERLAP` windows in all.
#[test]
fn hash_more_buckets_fewer_retries() {
    const OPS: u64 = 20_000;
    const WINDOW: u64 = 64;
    const OVERLAP: u64 = 1_000;
    let (single, many): (HashDict<u64, u64>, HashDict<u64, u64>) =
        (HashDict::with_buckets(1), HashDict::with_buckets(64));
    let t = threads();
    let start = Barrier::new(t as usize);
    let progress: Vec<AtomicU64> = (0..t).map(|_| AtomicU64::new(0)).collect();
    let overlapped = AtomicU64::new(0);
    let mut passes = 0;
    while overlapped.load(Ordering::Relaxed) < OVERLAP {
        assert!(
            passes < 50,
            "workers overlapped for only {overlapped:?} windows in 50 passes"
        );
        passes += 1;
        std::thread::scope(|s| {
            let arms = [&single, &many];
            let (start, progress, overlapped) = (&start, &progress, &overlapped);
            for tid in 0..t {
                s.spawn(move || {
                    let others = || -> u64 {
                        let all = progress.iter().map(|p| p.load(Ordering::Relaxed));
                        all.sum::<u64>() - progress[tid as usize].load(Ordering::Relaxed)
                    };
                    start.wait();
                    let mut seen = others();
                    for i in 0..OPS {
                        let k = (i / 2 % 8) * t + tid;
                        let first = (i / WINDOW % 2) as usize;
                        for d in [arms[first], arms[1 - first]] {
                            if i % 2 == 0 {
                                d.insert(k, tid);
                            } else {
                                d.remove(&k);
                            }
                        }
                        if i % 4 == 3 {
                            progress[tid as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        if i % WINDOW == WINDOW - 1 {
                            let now = others();
                            if now != seen {
                                overlapped.fetch_add(1, Ordering::Relaxed);
                            }
                            seen = now;
                        }
                    }
                });
            }
        });
    }
    let (single, many) = (single.total_retries(), many.total_retries());
    // Not a hard guarantee, but overwhelmingly true once the workers
    // overlap; equality is allowed where contention is negligible.
    assert!(
        many <= single.max(1) * 2,
        "1 bucket {single} retries vs 64 buckets {many} ({passes} passes)"
    );
}

/// The epoch arms route reclamation through the epoch machinery: ops pin,
/// removes retire through limbo, and the resizable table still grows.
#[test]
fn epoch_pins_and_retires() {
    let mut d: SortedListDict<u64, u64, Epoch> = SortedListDict::new();
    let mut r: ResizableHashDict<u64, u64, RandomState, Epoch> =
        ResizableHashDict::with_initial_buckets(2);
    for k in 0..128 {
        d.insert(k, k);
        r.insert(k, k);
    }
    for k in (0..128).step_by(2) {
        d.remove(&k);
        r.remove(&k);
    }
    let stats = d.mem_stats();
    assert!(stats.epoch_pins > 0, "dict ops must pin");
    assert!(stats.epoch_retires >= 64, "removes retire through limbo");
    assert!(r.bucket_count() > 2, "table must have grown");
    settle(&mut d, "sorted epoch");
    settle(&mut r, "resizable epoch");
}
