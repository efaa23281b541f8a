//! Exact order statistics over the benchmark's own samples.
//!
//! Every latency the benchmark reports comes from nearest-rank quantiles
//! of the raw per-operation samples it timed itself — never a bucketed
//! histogram, so a reported p50 moves by one sample, not by a bucket edge.
//!
//! A timed window is cut into [`SLICES`] equal time slices. Throughput,
//! p50 and p99 are computed exactly within each slice and the window
//! reports the median over slices, so a stall of the host that hits one
//! slice does not move the result.

use std::time::{Duration, Instant};

/// Time slices per timed window.
pub const SLICES: usize = 20;

/// Nearest-rank quantile `q` (0 < q ≤ 1) of `sorted`; `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a small set of measurements (mean of the middle pair for an
/// even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Exact p50/p99 of a set of nanosecond samples, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quantiles {
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Quantiles {
    /// Sorts `samples_ns` in place and reads the quantiles off it.
    pub fn of(samples_ns: &mut [u64]) -> Self {
        samples_ns.sort_unstable();
        let us = |q| quantile(samples_ns, q).unwrap_or(0) as f64 / 1e3;
        Self {
            count: samples_ns.len(),
            p50_us: us(0.50),
            p99_us: us(0.99),
        }
    }
}

/// One driver thread's per-operation latencies over a window, with the
/// sample index at which each time slice ends.
#[derive(Debug)]
pub struct Sampler {
    slice: Duration,
    next_edge: Instant,
    lat_ns: Vec<u64>,
    /// `marks[i]`: samples that completed before slice `i` ended.
    marks: Vec<usize>,
}

impl Sampler {
    pub fn new(start: Instant, window: Duration, capacity: usize) -> Self {
        let slice = window / SLICES as u32;
        Self {
            slice,
            next_edge: start + slice,
            lat_ns: Vec::with_capacity(capacity),
            marks: Vec::with_capacity(SLICES),
        }
    }

    /// Records one operation timed from `t0` to `t1`.
    pub fn push(&mut self, t0: Instant, t1: Instant) {
        while t1 >= self.next_edge && self.marks.len() < SLICES {
            self.marks.push(self.lat_ns.len());
            self.next_edge += self.slice;
        }
        self.lat_ns.push(t1.duration_since(t0).as_nanos() as u64);
    }

    fn slice_samples(&self, i: usize) -> &[u64] {
        let lo = if i == 0 {
            0
        } else {
            self.marks.get(i - 1).copied().unwrap_or(0)
        };
        let hi = self.marks.get(i).copied().unwrap_or(lo);
        &self.lat_ns[lo..hi]
    }
}

/// A window's end-to-end figures: medians over its time slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    pub ops_per_s: f64,
    /// Median over slices of each slice's exact p50/p99; `count` is every
    /// sample in the window's slices.
    pub latency: Quantiles,
}

impl WindowStats {
    /// Merges every thread's samples slice by slice.
    pub fn of(samplers: &[Sampler]) -> Self {
        let Some(first) = samplers.first() else {
            return Self::default();
        };
        let slice_s = first.slice.as_secs_f64();
        let (mut rates, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        let mut count = 0;
        for i in 0..SLICES {
            let mut v: Vec<u64> = samplers
                .iter()
                .flat_map(|s| s.slice_samples(i))
                .copied()
                .collect();
            rates.push(v.len() as f64 / slice_s);
            if !v.is_empty() {
                let q = Quantiles::of(&mut v);
                count += q.count;
                p50.push(q.p50_us);
                p99.push(q.p99_us);
            }
        }
        if p50.is_empty() {
            return Self::default();
        }
        Self {
            ops_per_s: median(&mut rates),
            latency: Quantiles {
                count,
                p50_us: median(&mut p50),
                p99_us: median(&mut p99),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn sampler_cuts_slices_at_time_edges() {
        let start = Instant::now();
        let window = Duration::from_millis(SLICES as u64 * 10);
        let mut s = Sampler::new(start, window, 0);
        // Two ops in each slice, the last one ending past the window.
        for i in 0..SLICES as u64 {
            for j in 0..2 {
                let t1 = start + Duration::from_millis(i * 10 + 3 + j * 4);
                s.push(t1 - Duration::from_micros(5 * (j + 1)), t1);
            }
        }
        s.push(start + window, start + window + Duration::from_millis(1));
        let w = WindowStats::of(&[s]);
        assert_eq!(w.latency.count, 2 * SLICES);
        assert_eq!(w.ops_per_s, 200.0);
        assert_eq!(w.latency.p50_us, 5.0);
        assert_eq!(w.latency.p99_us, 10.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
