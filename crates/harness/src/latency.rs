//! Log-linear latency histograms for per-operation timing.
//!
//! The convoy effects the paper describes (§1) show up far more clearly in
//! tail latency than in throughput: a stalled lock holder turns every
//! waiter's operation into a multi-millisecond outlier. The runner records
//! into a [`LatencyHistogram`] when asked; experiments report p50/p99/max.
//!
//! Buckets are HdrHistogram-style: every power of two `[2^k, 2^(k+1))` is
//! split into 16 equal sub-buckets, so a reported bound is at most
//! 1/16 = 6.25% above the samples it stands for, and values below 32 ns
//! are exact. A record stays one relaxed `fetch_add`.

use std::fmt;
use std::time::Duration;
use valois_sync::shim::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: usize = 4;
/// Sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Buckets: `SUB` exact ones below `SUB` ns, then `SUB` for each power
/// of two from `2^SUB_BITS` up to `2^63` (covers 1 ns ..= ~584 years).
const BUCKETS: usize = (64 - SUB_BITS + 1) * SUB;

/// The bucket a sample of `ns` nanoseconds falls in.
fn bucket_of(ns: u64) -> usize {
    let k = 63 - ns.max(1).leading_zeros() as usize; // floor(log2 ns)
    if k < SUB_BITS {
        return ns as usize;
    }
    (k - SUB_BITS + 1) * SUB + ((ns >> (k - SUB_BITS)) as usize & (SUB - 1))
}

/// The exclusive upper bound, in nanoseconds, of bucket `i` (saturating
/// at `u64::MAX` for the last bucket).
fn upper_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64 + 1;
    }
    let (k, sub) = (i / SUB + SUB_BITS - 1, i % SUB);
    let upper = ((SUB + sub + 1) as u128) << (k - SUB_BITS);
    upper.min(u64::MAX as u128) as u64
}

/// A concurrent log-linear latency histogram (see the module docs).
///
/// Recording is one relaxed `fetch_add`; any thread may record while
/// another reads quantiles (reads are racy snapshots, as all live
/// monitoring is).
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The upper bound of the bucket containing quantile `q` (0.0–1.0),
    /// i.e. the latency below which ~q of samples fall (at most 6.25%
    /// above the samples in that bucket). `None` when empty.
    ///
    /// Nearest-rank semantics: the sample at rank `ceil(q·n)` (1-based).
    /// At small sample counts high quantiles *saturate to the maximum
    /// recorded sample* — with n < 1000, p999's rank is n, so
    /// `quantile(0.999)` equals `quantile(1.0)`. It never indexes out of
    /// range and never silently degrades to a lower percentile: the rank
    /// is clamped into `1..=n` (guarding the float round-up at huge n,
    /// where `ceil(q·n)` can land on `n + 1` and would otherwise fall
    /// through to the open-ended overflow bucket), and a non-finite `q`
    /// saturates to the max sample rather than propagating NaN as rank 0.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Duration::from_nanos(upper_bound(i)));
            }
        }
        Some(Duration::from_nanos(u64::MAX))
    }

    /// The maximum recorded sample's bucket upper bound (`quantile(1.0)`).
    /// `None` when empty.
    pub fn max(&self) -> Option<Duration> {
        self.quantile(1.0)
    }

    /// Convenience: (p50, p99, p999) upper bounds.
    pub fn summary(&self) -> Option<LatencySummary> {
        Some(LatencySummary {
            p50: self.quantile(0.50)?,
            p99: self.quantile(0.99)?,
            p999: self.quantile(0.999)?,
            samples: self.count(),
        })
    }

    /// Merges another histogram into this one.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.summary() {
            Some(s) => s.fmt(f),
            None => f.write_str("LatencyHistogram(empty)"),
        }
    }
}

/// Quantile snapshot of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median upper bound.
    pub p50: Duration,
    /// 99th percentile upper bound.
    pub p99: Duration,
    /// 99.9th percentile upper bound.
    pub p999: Duration,
    /// Samples recorded.
    pub samples: u64,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50≤{:?} p99≤{:?} p999≤{:?} (n={})",
            self.p50, self.p99, self.p999, self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
        assert!(h.summary().is_none());
    }

    #[test]
    fn quantiles_bracket_samples() {
        let h = LatencyHistogram::new();
        // 99 fast samples, 1 slow outlier.
        for _ in 0..99 {
            h.record(Duration::from_nanos(100));
        }
        h.record(Duration::from_millis(10));
        let s = h.summary().unwrap();
        assert!(s.p50 <= Duration::from_nanos(256), "p50 {:?}", s.p50);
        assert!(s.p99 <= Duration::from_nanos(256), "p99 {:?}", s.p99);
        assert!(s.p999 >= Duration::from_millis(8), "p999 {:?}", s.p999);
        assert_eq!(s.samples, 100);
    }

    #[test]
    fn bucket_bounds_are_log_linear() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1000)); // bucket [992, 1024)
        assert_eq!(h.quantile(1.0), Some(Duration::from_nanos(1024)));
        // Exact below 32 ns, then 16 sub-buckets per power of two.
        assert_eq!(upper_bound(bucket_of(0)), 1);
        assert_eq!(upper_bound(bucket_of(17)), 18);
        assert_eq!(upper_bound(bucket_of(700)), 704); // [672, 704)
        assert_eq!(upper_bound(bucket_of(u64::MAX)), u64::MAX);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    /// Every bound lies above its sample and at most 6.25% beyond it, and
    /// bucket indices rise with the sample.
    #[test]
    fn bucket_error_is_at_most_one_sixteenth() {
        let mut last = 0;
        let mut v = 1u64;
        while v < u64::MAX / 2 {
            for x in [v, v + v / 3, v + v / 2, 2 * v - 1] {
                let (i, ub) = (bucket_of(x), upper_bound(bucket_of(x)));
                assert!(ub > x, "{x} above its bound {ub}");
                assert!(ub - x <= x / SUB as u64 + 1, "{x}: bound {ub} too loose");
                assert!(i >= last, "{x}: bucket {i} below {last}");
                last = i;
            }
            v *= 2;
        }
    }

    /// Two modes inside one power of two (2.1 µs and 3.5 µs): p50 and p99
    /// land on different buckets, each within 6.25% of its mode. Under
    /// power-of-two buckets both read 4.1 µs.
    #[test]
    fn p50_and_p99_differ_on_a_two_mode_sample() {
        let h = LatencyHistogram::new();
        for i in 0..1000 {
            let ns = if i % 20 == 0 { 3_500 } else { 2_100 };
            h.record(Duration::from_nanos(ns));
        }
        let s = h.summary().unwrap();
        assert_ne!(s.p50, s.p99, "{s}");
        let near = |d: Duration, mode: f64| {
            let ns = d.as_nanos() as f64;
            ns > mode && ns <= mode * 1.0625
        };
        assert!(near(s.p50, 2_100.0), "p50 {:?}", s.p50);
        assert!(near(s.p99, 3_500.0), "p99 {:?}", s.p99);
    }

    #[test]
    fn merge_combines_counts() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(Duration::from_nanos(10));
        b.record(Duration::from_nanos(10));
        b.record(Duration::from_micros(10));
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    /// Boundary audit (n = 0): every quantile is `None`, never a panic or
    /// a zero-duration fabrication.
    #[test]
    fn boundary_n0_all_quantiles_none() {
        let h = LatencyHistogram::new();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0, f64::NAN] {
            assert!(h.quantile(q).is_none(), "q={q}");
        }
        assert!(h.max().is_none());
    }

    /// Boundary audit (n = 1): with a single sample every quantile is that
    /// sample's bucket bound — rank clamps into `1..=1`.
    #[test]
    fn boundary_n1_every_quantile_is_the_sample() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(700)); // bucket [672, 704)
        let expect = Duration::from_nanos(704);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(expect), "q={q}");
        }
        let s = h.summary().unwrap();
        assert_eq!(
            (s.p50, s.p99, s.p999, s.samples),
            (expect, expect, expect, 1)
        );
    }

    /// Boundary audit (n = 2): p999's rank is ceil(1.998) = 2, so it must
    /// report the *larger* sample (saturate to max), while p50 (rank 1)
    /// reports the smaller one.
    #[test]
    fn boundary_n2_p999_saturates_to_max() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100)); // bucket [100, 104)
        h.record(Duration::from_millis(10)); // bucket bound ~10.5ms
        assert_eq!(h.quantile(0.5), Some(Duration::from_nanos(104)));
        assert_eq!(h.quantile(0.999), h.max());
        assert!(h.quantile(0.999).unwrap() >= Duration::from_millis(8));
    }

    /// n = 500: p99 (rank 495) and p999 (rank 500) must *differ* when the
    /// top sample is an outlier — p999 saturates to max rather than
    /// silently echoing p99.
    #[test]
    fn p999_is_not_p99_below_one_thousand_samples() {
        let h = LatencyHistogram::new();
        for _ in 0..499 {
            h.record(Duration::from_nanos(100));
        }
        h.record(Duration::from_millis(10));
        let s = h.summary().unwrap();
        assert!(s.p99 <= Duration::from_nanos(128), "p99 {:?}", s.p99);
        assert!(s.p999 >= Duration::from_millis(8), "p999 {:?}", s.p999);
        assert_eq!(Some(s.p999), h.max());
    }

    /// Boundary audit (n = 999): p999's rank is ceil(998.001) = 999 — the
    /// maximum sample, still saturated.
    #[test]
    fn boundary_n999_p999_is_max() {
        let h = LatencyHistogram::new();
        for _ in 0..998 {
            h.record(Duration::from_nanos(100));
        }
        h.record(Duration::from_millis(10));
        assert!(h.quantile(0.999).unwrap() >= Duration::from_millis(8));
        assert_eq!(h.quantile(0.999), h.max());
    }

    /// Boundary audit (n = 1000): the first count where p999 stops
    /// saturating — rank ceil(999.0) = 999 picks the 999th smallest, so a
    /// single top outlier is now *excluded* from p999 (and still reported
    /// by `max`).
    #[test]
    fn boundary_n1000_p999_excludes_single_outlier() {
        let h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(Duration::from_nanos(100));
        }
        h.record(Duration::from_millis(10));
        assert!(h.quantile(0.999).unwrap() <= Duration::from_nanos(128));
        assert!(h.max().unwrap() >= Duration::from_millis(8));
    }

    /// Out-of-domain `q` values clamp instead of panicking or indexing out
    /// of range: q > 1 and non-finite q saturate to max, q < 0 to rank 1.
    #[test]
    fn out_of_domain_q_clamps() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_millis(10));
        assert_eq!(h.quantile(2.0), h.max());
        assert_eq!(h.quantile(f64::NAN), h.max());
        assert_eq!(h.quantile(f64::INFINITY), h.max());
        assert_eq!(h.quantile(-3.0), Some(Duration::from_nanos(104)));
    }

    #[test]
    fn concurrent_recording_is_exact_in_count() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        h.record(Duration::from_nanos(i + 1));
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
