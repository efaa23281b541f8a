//! The paper's work bounds as tested properties (§4.1).
//!
//! Each test fills a dictionary to two sizes, runs the same seeded
//! operations on both, and compares one layer's work per operation
//! between the sizes, or bounds it at each: SafeReads from `MemStats`
//! deltas (the memory-protocol rung) or cursor `Next` steps from
//! `ListStats` deltas (the cursor rung). Single-threaded runs are
//! deterministic — the key stream is seeded and the skip list's tower
//! heights come from a fixed-seed generator — so the bounds compare
//! exact counts and cannot flake on a loaded host.

use std::hash::{BuildHasherDefault, DefaultHasher};

use valois_dict::{Dictionary, HashDict, SkipListDict, SortedListDict};

/// Churn operations measured per size on the skip list.
const CHURN_OPS: u64 = 20_000;

/// Operations measured per size on the sorted list, whose operations
/// walk Θ(n) cells each.
const SORTED_CHURN_OPS: u64 = 1_000;

/// xorshift64: a fixed key stream per seed.
struct Keys(u64);

impl Keys {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

/// Fills `d` to `n` keys drawn uniformly from `0..2n` and returns the
/// key stream, ready to draw the measured operations' keys.
fn fill<D: Dictionary<u64, u64>>(d: &D, n: u64) -> Keys {
    let mut keys = Keys(0x5EED_0000 ^ n);
    let mut len = 0;
    while len < n {
        let k = keys.below(2 * n);
        len += u64::from(d.insert(k, k));
    }
    keys
}

/// Fills `d` to `n` keys, then runs `ops` alternating inserts and
/// removes on the same key stream, and returns the growth of `work(d)`
/// per churn operation.
fn work_per_op<D: Dictionary<u64, u64>>(d: &D, n: u64, ops: u64, work: impl Fn(&D) -> u64) -> f64 {
    let mut keys = fill(d, n);
    let before = work(d);
    for i in 0..ops {
        let k = keys.below(2 * n);
        if i % 2 == 0 {
            d.insert(k, k);
        } else {
            d.remove(&k);
        }
    }
    (work(d) - before) as f64 / ops as f64
}

fn skiplist_work_per_op(n: u64, work: impl Fn(&SkipListDict<u64, u64>) -> u64) -> f64 {
    work_per_op(&SkipListDict::new(), n, CHURN_OPS, work)
}

/// §4.1: skip-list operations take O(log n) expected work, so ten times
/// the keys adds a constant number of levels, not ten times the hops. A
/// remove that revisits a level from the head (a Θ(n) walk) breaks this.
#[test]
fn skiplist_churn_work_grows_logarithmically() {
    let safe_reads = |d: &SkipListDict<u64, u64>| d.mem_stats().safe_reads;
    let small = skiplist_work_per_op(1_000, safe_reads);
    let large = skiplist_work_per_op(10_000, safe_reads);
    let ratio = large / small;
    assert!(
        ratio <= 2.0,
        "SafeReads/op grew {ratio:.2}x from n=10^3 ({small:.1}) to n=10^4 ({large:.1}); \
         logarithmic work allows at most 2x"
    );
}

/// The same bound one rung up: the core cursor's `Next` steps summed
/// over every skip-list level (`ListStats::next_steps`).
#[test]
fn skiplist_cursor_steps_grow_logarithmically() {
    let next_steps = |d: &SkipListDict<u64, u64>| d.list_stats().next_steps;
    let small = skiplist_work_per_op(1_000, next_steps);
    let large = skiplist_work_per_op(10_000, next_steps);
    let ratio = large / small;
    assert!(
        ratio <= 2.0,
        "cursor next steps/op grew {ratio:.2}x from n=10^3 ({small:.1}) to n=10^4 \
         ({large:.1}); logarithmic work allows at most 2x"
    );
}

/// The contrast the skip list exists for: a sorted list's operations
/// walk a constant fraction of the list (§4.1's linear search), so ten
/// times the keys costs several times the SafeReads per operation.
#[test]
fn sorted_list_work_grows_linearly() {
    let safe_reads = |d: &SortedListDict<u64, u64>| d.mem_stats().safe_reads;
    let small = work_per_op(&SortedListDict::new(), 1_000, SORTED_CHURN_OPS, safe_reads);
    let large = work_per_op(&SortedListDict::new(), 10_000, SORTED_CHURN_OPS, safe_reads);
    let ratio = large / small;
    assert!(
        ratio >= 5.0,
        "SafeReads/op grew only {ratio:.2}x from n=10^3 ({small:.1}) to n=10^4 \
         ({large:.1}); a linear walk needs at least 5x"
    );
}

/// The sorted list's cached cursors: a search starts at the nearest
/// usable anchor among the cache's 16 most recent saves, which on
/// uniform keys lies about n/18 cells below the key. Were the slots tied
/// to threads, a single thread would have one anchor, usable only when
/// it lies below the key, and would walk about n/3 cells per find.
#[test]
fn sorted_list_finds_start_near_a_recent_anchor() {
    for n in [1_000, 10_000] {
        let d: SortedListDict<u64, u64> = SortedListDict::new();
        let mut keys = fill(&d, n);
        let before = d.list_stats().next_steps;
        for _ in 0..SORTED_CHURN_OPS {
            let k = keys.below(2 * n);
            d.find(&k);
        }
        let per_op = (d.list_stats().next_steps - before) as f64 / SORTED_CHURN_OPS as f64;
        assert!(
            per_op <= n as f64 / 8.0,
            "a find walked {per_op:.1} cells on average at n={n}; recent anchors allow n/8"
        );
    }
}

/// §4.1's hash table: "we would expect the extra work done to be O(1)".
/// At a fixed load factor (four keys per bucket) a bucket's list stays
/// the same length however many keys the table holds, so a uniform
/// find's SafeReads do not grow with n. The hasher is `DefaultHasher`
/// with its fixed keys, so bucket assignment, like the key stream, is
/// the same on every run.
#[test]
fn hash_finds_stay_flat_at_a_fixed_load_factor() {
    let per_find = |n: u64| {
        let d: HashDict<u64, u64, BuildHasherDefault<DefaultHasher>> =
            HashDict::with_buckets_and_hasher(n as usize / 4, BuildHasherDefault::default());
        let mut keys = fill(&d, n);
        let before = d.mem_stats().safe_reads;
        for _ in 0..CHURN_OPS {
            d.find(&keys.below(2 * n));
        }
        (d.mem_stats().safe_reads - before) as f64 / CHURN_OPS as f64
    };
    let small = per_find(1_000);
    let large = per_find(10_000);
    let ratio = large / small;
    assert!(
        ratio <= 1.5,
        "SafeReads/find grew {ratio:.2}x from n=10^3 ({small:.1}) to n=10^4 ({large:.1}) \
         at four keys per bucket; O(1) work allows at most 1.5x"
    );
}
