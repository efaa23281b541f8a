//! The paper's work bounds as tested properties (§4.1, §4.2).
//!
//! Each test fills a dictionary to two or three sizes, runs the same
//! seeded operations on each, and compares one layer's work per operation
//! between the sizes, or bounds it at each: SafeReads from `MemStats`
//! deltas (the memory-protocol rung) or cursor `Next` steps from
//! `ListStats` deltas (the cursor rung). Single-threaded runs are
//! deterministic — the key stream is seeded, the skip list's tower
//! heights come from a fixed-seed generator and the hash tables use
//! `DefaultHasher`'s fixed keys — so the bounds compare
//! exact counts and cannot flake on a loaded host.

use std::hash::{BuildHasherDefault, DefaultHasher};

use valois_core::ArenaConfig;
use valois_dict::{BstDict, Dictionary, HashDict, ResizableHashDict, SkipListDict, SortedListDict};

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

/// The contrast the skip list exists for: the paper's sorted list
/// (Figs. 12–13, every search from the head, so the cursor cache is off)
/// walks a constant fraction of the list (§4.1's linear search), so ten
/// times the keys costs several times the SafeReads per operation.
#[test]
fn sorted_list_work_grows_linearly() {
    let safe_reads = |d: &SortedListDict<u64, u64>| d.mem_stats().safe_reads;
    let paper = || SortedListDict::with_config_cached(ArenaConfig::default(), false);
    let small = work_per_op(&paper(), 1_000, SORTED_CHURN_OPS, safe_reads);
    let large = work_per_op(&paper(), 10_000, SORTED_CHURN_OPS, safe_reads);
    let ratio = large / small;
    assert!(
        ratio >= 5.0,
        "SafeReads/op grew only {ratio:.2}x from n=10^3 ({small:.1}) to n=10^4 \
         ({large:.1}); a linear walk needs at least 5x"
    );
}

/// The sorted list's cached cursors: a search starts at the nearest
/// usable anchor among the cache's `k` most recent saves, which on
/// uniform keys lies about n/(k + 2) cells below the key, at two
/// SafeReads per cell. The probe reads the slots without counting and
/// opens at the anchor it picks with two SafeReads (the anchor's
/// auxiliary node and the next cell), so a find costs about
/// 2n/(k + 2) + 2 SafeReads, with `k` the cache's slots in use; both
/// rungs are held to the model within 25%. Uniform finds walk far from
/// the recent anchors, so the cache rises past its floor
/// round(√(2n)) − 2 (at most 64) towards round(√(60n)) − 2: the raise's
/// side where it pays.
#[test]
fn sorted_list_finds_start_near_a_recent_anchor() {
    for n in [1_000, 10_000] {
        let d: SortedListDict<u64, u64> = SortedListDict::new();
        let mut keys = fill(&d, n);
        let (steps, reads) = (d.list_stats().next_steps, d.mem_stats().safe_reads);
        for _ in 0..SORTED_CHURN_OPS {
            let k = keys.below(2 * n);
            d.find(&k);
        }
        let per_op = |now: u64, before: u64| (now - before) as f64 / SORTED_CHURN_OPS as f64;
        let steps = per_op(d.list_stats().next_steps, steps);
        let reads = per_op(d.mem_stats().safe_reads, reads);
        let k = d.cached_slots() as f64;
        assert!(
            k > 64.0,
            "uniform finds over {n} cells left the cache at k={k}"
        );
        let walk = n as f64 / (k + 2.0);
        assert!(
            steps <= 1.25 * walk,
            "a find walked {steps:.1} cells on average at n={n}; k={k} recent anchors \
             allow 1.25 x n/(k + 2) = {:.1}",
            1.25 * walk
        );
        assert!(
            reads <= 1.25 * (2.0 * walk + 2.0),
            "a find took {reads:.1} SafeReads on average at n={n}; k={k} anchors allow \
             1.25 x (2n/(k + 2) + 2) = {:.1}",
            1.25 * (2.0 * walk + 2.0)
        );
    }
}

/// The cursor cache's raise on the side where it does not pay: two
/// threads filling a 16-bucket table with ascending keys land every
/// insert just past a recent anchor, so no bucket's measured walk comes
/// near what uniform traffic walks, and every bucket stays on the floor
/// for its length.
#[test]
fn an_ascending_fill_keeps_every_bucket_on_the_floor() {
    let n: u64 = 10_000;
    let d: HashDict<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashDict::with_buckets_and_hasher(16, BuildHasherDefault::default());
    std::thread::scope(|s| {
        for t in 0..2 {
            let d = &d;
            s.spawn(move || {
                for k in (t..n).step_by(2) {
                    assert!(d.insert(k, k));
                }
            });
        }
    });
    let longest = d.max_bucket_len() as f64;
    let floor = ((2.0 * longest).sqrt().round() as usize - 2).min(64);
    let slots = d.cached_slots();
    assert!(
        slots.iter().all(|&k| (1..=floor).contains(&k)),
        "every bucket must sit on its floor (at most {floor} for {longest} cells): {slots:?}"
    );
}

/// Fills `d` to `n` keys, then returns the SafeReads per uniform find
/// over `CHURN_OPS` finds on the same key stream.
fn safe_reads_per_find<D: Dictionary<u64, u64>>(d: &D, n: u64, reads: impl Fn(&D) -> u64) -> f64 {
    let mut keys = fill(d, n);
    let before = reads(d);
    for _ in 0..CHURN_OPS {
        d.find(&keys.below(2 * n));
    }
    (reads(d) - before) as f64 / CHURN_OPS as f64
}

/// §4.1's hash table: "we would expect the extra work done to be O(1)".
/// At a fixed load factor (four keys per bucket) a bucket's list stays
/// the same length however many keys the table holds, so a uniform
/// find's SafeReads do not grow with n, and stay few: a bucket this
/// short gets at most a slot or two of cursor cache, so a find probes
/// little more than it walks. The hasher is `DefaultHasher` with its
/// fixed keys, so bucket assignment, like the key stream, is the same on
/// every run.
#[test]
fn hash_finds_stay_flat_at_a_fixed_load_factor() {
    let per_find = |n: u64| {
        let d: HashDict<u64, u64, BuildHasherDefault<DefaultHasher>> =
            HashDict::with_buckets_and_hasher(n as usize / 4, BuildHasherDefault::default());
        safe_reads_per_find(&d, n, |d| d.mem_stats().safe_reads)
    };
    assert_flat("at four keys per bucket", per_find(1_000), per_find(10_000));
}

/// The same O(1) bound when the table sizes itself: a split-ordered
/// table that starts at two buckets doubles as the fill crosses its load
/// factor, so a find walks a bucket no longer at 10⁴ keys than at 10³,
/// though the table went through three more doublings to get there.
#[test]
fn resizable_finds_stay_flat_across_doublings() {
    let per_find = |n: u64| {
        let d: ResizableHashDict<u64, u64, BuildHasherDefault<DefaultHasher>> =
            ResizableHashDict::with_hasher(2, BuildHasherDefault::default());
        let reads = safe_reads_per_find(&d, n, |d| d.mem_stats().safe_reads);
        assert!(d.doublings() >= 3, "the fill to n={n} must resize: {d:?}");
        reads
    };
    assert_flat("across doublings", per_find(1_000), per_find(10_000));
}

/// Holds SafeReads per find at n = 10³ (`small`) and 10⁴ (`large`) to
/// O(1): at most 1.5× growth and at most 8 each.
fn assert_flat(shape: &str, small: f64, large: f64) {
    let ratio = large / small;
    assert!(
        ratio <= 1.5,
        "SafeReads/find grew {ratio:.2}x from n=10^3 ({small:.1}) to n=10^4 ({large:.1}) \
         {shape}; O(1) work allows at most 1.5x"
    );
    for (n, reads) in [(1_000, small), (10_000, large)] {
        assert!(
            reads <= 8.0,
            "a find took {reads:.1} SafeReads at n={n} {shape}; at most 8"
        );
    }
}

/// §4.2's tree: a find on a tree built by random inserts walks one path
/// from the root, whose expected length is O(log n), so each tenfold
/// growth of n adds levels rather than multiplying them. The tree is
/// freshly filled; alternating inserts and removes deepen it (see E6 in
/// EXPERIMENTS.md), so this bound does not hold for a churned tree.
#[test]
fn bst_finds_grow_logarithmically() {
    let per_find = |n: u64| safe_reads_per_find(&BstDict::new(), n, |d| d.mem_stats().safe_reads);
    let mut prev = per_find(1_000);
    for n in [10_000, 100_000] {
        let reads = per_find(n);
        let ratio = reads / prev;
        assert!(
            ratio <= 2.0,
            "SafeReads/find grew {ratio:.2}x from n={} ({prev:.1}) to n={n} ({reads:.1}); \
             logarithmic work allows at most 2x per tenfold n",
            n / 10
        );
        prev = reads;
    }
}
