//! The paper's work bounds as tested properties (§4.1).
//!
//! Each test fills a dictionary to two sizes, runs the same seeded churn
//! on both, and compares the memory-protocol work per operation (SafeReads
//! from `MemStats` deltas). Single-threaded runs are deterministic — the
//! key stream is seeded and the skip list's tower heights come from a
//! fixed-seed generator — so the bounds compare exact counts and cannot
//! flake on a loaded host.

use valois_dict::{Dictionary, SkipListDict};

/// Churn operations measured per size.
const CHURN_OPS: u64 = 20_000;

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

/// SafeReads per operation of `CHURN_OPS` alternating inserts and removes
/// on uniform keys in `0..2n`, after filling the skip list to `n` keys.
fn skiplist_safe_reads_per_op(n: u64) -> f64 {
    let d: SkipListDict<u64, u64> = SkipListDict::new();
    let mut keys = Keys(0x5EED_0000 ^ n);
    let mut len = 0;
    while len < n {
        let k = keys.below(2 * n);
        len += u64::from(d.insert(k, k));
    }
    let before = d.mem_stats();
    for i in 0..CHURN_OPS {
        let k = keys.below(2 * n);
        if i % 2 == 0 {
            d.insert(k, k);
        } else {
            d.remove(&k);
        }
    }
    d.mem_stats().since(&before).safe_reads as f64 / CHURN_OPS as f64
}

/// §4.1: skip-list operations take O(log n) expected work, so ten times
/// the keys adds a constant number of levels, not ten times the hops. A
/// remove that revisits a level from the head (a Θ(n) walk) breaks this.
#[test]
fn skiplist_churn_work_grows_logarithmically() {
    let small = skiplist_safe_reads_per_op(1_000);
    let large = skiplist_safe_reads_per_op(10_000);
    let ratio = large / small;
    assert!(
        ratio <= 2.0,
        "SafeReads/op grew {ratio:.2}x from n=10^3 ({small:.1}) to n=10^4 ({large:.1}); \
         logarithmic work allows at most 2x"
    );
}
