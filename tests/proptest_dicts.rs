//! Randomized sequential equivalence for the ordered §4 dictionaries: the
//! sorted list, skip list and BST must behave exactly like `BTreeMap`
//! (presence semantics, first-insert-wins, ranges) over arbitrary
//! operation sequences, and keep their shape invariants. The conformance
//! suite (`tests/conformance.rs`) runs its own oracle scripts on every
//! dictionary and backend; these are the per-structure originals.
//!
//! Formerly proptest-based; the offline build environment cannot fetch
//! proptest, so the scripts come from the in-repo seeded RNG (fixed seeds
//! keep failures reproducible by case number).

use std::collections::BTreeMap;

use valois::sync::rng::SmallRng;
use valois::{BstDict, Dictionary, SkipListDict, SortedListDict};

#[derive(Debug, Clone)]
enum DictOp {
    Insert(u8, u16),
    Remove(u8),
    Find(u8),
    Len,
}

fn random_ops(rng: &mut SmallRng, max_len: usize) -> Vec<DictOp> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| match rng.gen_range(0..4u8) {
            0 => DictOp::Insert(rng.gen_range(0..32u8), rng.next_u64() as u16),
            1 => DictOp::Remove(rng.gen_range(0..32u8)),
            2 => DictOp::Find(rng.gen_range(0..32u8)),
            _ => DictOp::Len,
        })
        .collect()
}

fn run_against_model<D: Dictionary<u64, u64>>(dict: &D, ops: &[DictOp], case: u64) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            DictOp::Insert(k, v) => {
                let (k, v) = (k as u64, v as u64);
                let expect = !model.contains_key(&k);
                if expect {
                    model.insert(k, v);
                }
                assert_eq!(dict.insert(k, v), expect, "case {case} op {i}: insert({k})");
            }
            DictOp::Remove(k) => {
                let k = k as u64;
                let expect = model.remove(&k).is_some();
                assert_eq!(dict.remove(&k), expect, "case {case} op {i}: remove({k})");
            }
            DictOp::Find(k) => {
                let k = k as u64;
                assert_eq!(
                    dict.find(&k),
                    model.get(&k).copied(),
                    "case {case} op {i}: find({k})"
                );
            }
            DictOp::Len => {
                assert_eq!(dict.len(), model.len(), "case {case} op {i}: len");
            }
        }
    }
}

// Each impl gets its own test so a failure pinpoints the structure.

#[test]
fn sorted_list_matches_btreemap() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1C7_0001 ^ (case * 0x9E37));
        let ops = random_ops(&mut rng, 200);
        let d: SortedListDict<u64, u64> = SortedListDict::new();
        run_against_model(&d, &ops, case);
    }
}

#[test]
fn skiplist_matches_btreemap() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1C7_0003 ^ (case * 0x9E37));
        let ops = random_ops(&mut rng, 200);
        let d: SkipListDict<u64, u64> = SkipListDict::new();
        run_against_model(&d, &ops, case);
    }
}

#[test]
fn bst_matches_btreemap() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1C7_0004 ^ (case * 0x9E37));
        let ops = random_ops(&mut rng, 200);
        let d: BstDict<u64, u64> = BstDict::new();
        run_against_model(&d, &ops, case);
    }
}

#[test]
fn sorted_list_keys_always_sorted() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1C7_0005 ^ (case * 0x9E37));
        let ops = random_ops(&mut rng, 100);
        let d: SortedListDict<u64, u64> = SortedListDict::new();
        for op in &ops {
            match *op {
                DictOp::Insert(k, v) => {
                    d.insert(k as u64, v as u64);
                }
                DictOp::Remove(k) => {
                    d.remove(&(k as u64));
                }
                _ => {}
            }
            let keys = d.keys();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "case {case}: keys {keys:?}"
            );
        }
    }
}

#[test]
fn skiplist_levels_stay_subsets() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1C7_0006 ^ (case * 0x9E37));
        let ops = random_ops(&mut rng, 100);
        let mut d: SkipListDict<u64, u64> = SkipListDict::new();
        for op in &ops {
            match *op {
                DictOp::Insert(k, v) => {
                    d.insert(k as u64, v as u64);
                }
                DictOp::Remove(k) => {
                    d.remove(&(k as u64));
                }
                _ => {}
            }
        }
        assert!(d.check_invariants().is_ok(), "case {case}");
    }
}

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

#[test]
fn bst_inorder_stays_sorted() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1C7_0009 ^ (case * 0x9E37));
        let ops = random_ops(&mut rng, 100);
        let mut d: BstDict<u64, u64> = BstDict::new();
        for op in &ops {
            match *op {
                DictOp::Insert(k, v) => {
                    d.insert(k as u64, v as u64);
                }
                DictOp::Remove(k) => {
                    d.remove(&(k as u64));
                }
                _ => {}
            }
        }
        assert!(d.check_invariants().is_ok(), "case {case}");
    }
}
