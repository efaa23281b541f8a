//! Duration-based multi-threaded throughput runs (the `vs_locks` and
//! `resize` benches, and `tests/harness_runs.rs`).

use std::fmt;
use std::time::{Duration, Instant};
use valois_sync::shim::atomic::{AtomicBool, AtomicU64, Ordering};

use valois_baseline::CriticalDelay;
use valois_dict::Dictionary;

use crate::latency::{LatencyHistogram, LatencySummary};
use crate::workload::{OpKind, WorkloadSpec};

/// Configuration of one throughput run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Concurrent worker threads.
    pub threads: usize,
    /// Measured wall-clock duration.
    pub duration: Duration,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Stall injected *around* each operation for lock-free structures
    /// (lock-based structures additionally/instead inject inside their
    /// critical sections — configure those at construction). A stalled
    /// lock-free operation delays only its own thread; that asymmetry is
    /// the E2 result.
    pub op_delay: Option<CriticalDelay>,
    /// Record per-operation latency (adds one clock read per op).
    pub measure_latency: bool,
}

/// Result of one throughput run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Total completed operations across threads.
    pub total_ops: u64,
    /// Completed find operations.
    pub finds: u64,
    /// Successful inserts.
    pub insert_hits: u64,
    /// Successful deletes.
    pub delete_hits: u64,
    /// Measured wall-clock time.
    pub elapsed: Duration,
    /// Minimum per-thread completed ops (fairness / starvation signal).
    pub min_thread_ops: u64,
    /// Maximum per-thread completed ops.
    pub max_thread_ops: u64,
    /// Per-operation latency quantiles (when requested).
    pub latency: Option<LatencySummary>,
}

impl RunResult {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64()
    }

    /// max/min per-thread ratio (1.0 = perfectly fair).
    pub fn fairness_ratio(&self) -> f64 {
        if self.min_thread_ops == 0 {
            f64::INFINITY
        } else {
            self.max_thread_ops as f64 / self.min_thread_ops as f64
        }
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} ops/s ({} ops in {:?})",
            self.ops_per_sec(),
            self.total_ops,
            self.elapsed
        )
    }
}

/// Prefills `dict`, then runs `config.threads` workers for
/// `config.duration`, returning aggregate counts.
pub fn run_throughput<D: Dictionary<u64, u64>>(dict: &D, config: &RunConfig) -> RunResult {
    // Prefill with even keys first (finds hit ~50%, deletes have prey),
    // continuing into odd keys if the requested prefill exceeds them.
    // Insertion order is shuffled: ascending-order prefill would degenerate
    // the BST into a spine and bias the sorted-list walks.
    let spec = &config.workload;
    let range = spec.keys.range().max(1);
    let evens = (0..range).step_by(2);
    let odds = (1..range).step_by(2);
    let mut candidates: Vec<u64> = evens.chain(odds).collect();
    {
        let mut rng = spec.rng_for(u64::MAX);
        rng.shuffle(&mut candidates);
    }
    let mut prefilled = 0u64;
    for k in candidates {
        if prefilled >= spec.prefill.min(range) {
            break;
        }
        if dict.insert(k, k) {
            prefilled += 1;
        }
    }

    let histogram = LatencyHistogram::new();
    let stop = AtomicBool::new(false);
    let started = AtomicU64::new(0);
    let per_thread: Vec<[AtomicU64; 3]> = (0..config.threads)
        .map(|_| [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)])
        .collect();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (tid, counters) in per_thread.iter().enumerate() {
            let stop = &stop;
            let started = &started;
            let delay = config.op_delay.clone();
            let mut rng = spec.rng_for(tid as u64);
            let mix = spec.mix;
            let keys = spec.keys;
            let measure = config.measure_latency;
            let histogram = &histogram;
            s.spawn(move || {
                started.fetch_add(1, Ordering::Release);
                while !stop.load(Ordering::Relaxed) {
                    let key = keys.sample(&mut rng);
                    if let Some(d) = &delay {
                        d.maybe_stall();
                    }
                    let op_t0 = measure.then(Instant::now);
                    match mix.sample(&mut rng) {
                        OpKind::Find => {
                            let _ = dict.contains(&key);
                            counters[0].fetch_add(1, Ordering::Relaxed);
                        }
                        OpKind::Insert => {
                            let _ = dict.insert(key, key);
                            counters[1].fetch_add(1, Ordering::Relaxed);
                        }
                        OpKind::Delete => {
                            let _ = dict.remove(&key);
                            counters[2].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if let Some(t0) = op_t0 {
                        histogram.record(t0.elapsed());
                    }
                }
            });
        }
        // Let all workers come up, then time the window.
        while (started.load(Ordering::Acquire) as usize) < config.threads {
            valois_sync::shim::hint::spin_loop();
        }
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = t0.elapsed();

    let mut total = 0;
    let mut finds = 0;
    let mut inserts = 0;
    let mut deletes = 0;
    let mut min_t = u64::MAX;
    let mut max_t = 0;
    for c in &per_thread {
        let f = c[0].load(Ordering::Relaxed);
        let i = c[1].load(Ordering::Relaxed);
        let d = c[2].load(Ordering::Relaxed);
        let sum = f + i + d;
        total += sum;
        finds += f;
        inserts += i;
        deletes += d;
        min_t = min_t.min(sum);
        max_t = max_t.max(sum);
    }
    RunResult {
        total_ops: total,
        finds,
        insert_hits: inserts,
        delete_hits: deletes,
        elapsed,
        min_thread_ops: if min_t == u64::MAX { 0 } else { min_t },
        max_thread_ops: max_t,
        latency: if config.measure_latency {
            histogram.summary()
        } else {
            None
        },
    }
}

/// Result of a growth (bulk-fill) run — see [`run_fill`].
#[derive(Debug, Clone, Copy)]
pub struct FillResult {
    /// Keys inserted (each exactly once).
    pub keys: u64,
    /// Wall-clock time for the whole fill.
    pub elapsed: Duration,
}

impl FillResult {
    /// Successful insertions per second.
    pub fn inserts_per_sec(&self) -> f64 {
        self.keys as f64 / self.elapsed.as_secs_f64()
    }
}

impl fmt::Display for FillResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} inserts/s ({} keys in {:?})",
            self.inserts_per_sec(),
            self.keys,
            self.elapsed
        )
    }
}

/// The dataset-growth phase of the E-resize experiment: `threads`
/// workers insert the keys `0..keys` (disjoint strided shards, so every
/// insert succeeds exactly once) as fast as they can. This is the
/// workload that punishes a fixed bucket count — the table is forced
/// through its whole size range in one run — and the one a resizable
/// table must absorb with doublings.
pub fn run_fill<D: Dictionary<u64, u64>>(dict: &D, keys: u64, threads: usize) -> FillResult {
    let threads = threads.max(1) as u64;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            s.spawn(move || {
                let mut k = tid;
                while k < keys {
                    let inserted = dict.insert(k, k);
                    debug_assert!(inserted, "shards are disjoint");
                    k += threads;
                }
            });
        }
    });
    FillResult {
        keys,
        elapsed: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use valois_dict::SortedListDict;

    fn two_threads_50ms(measure_latency: bool) -> RunConfig {
        RunConfig {
            threads: 2,
            duration: Duration::from_millis(50),
            workload: WorkloadSpec::standard(64),
            op_delay: None,
            measure_latency,
        }
    }

    #[test]
    fn runner_counts_operations() {
        let dict: SortedListDict<u64, u64> = SortedListDict::new();
        let res = run_throughput(&dict, &two_threads_50ms(false));
        assert!(res.total_ops > 0, "some operations must complete");
        assert_eq!(res.total_ops, res.finds + res.insert_hits + res.delete_hits);
        assert!(res.ops_per_sec() > 0.0);
        assert!(res.elapsed >= Duration::from_millis(50));
    }

    #[test]
    fn runner_prefills() {
        let dict: SortedListDict<u64, u64> = SortedListDict::new();
        let mut spec = WorkloadSpec::standard(128);
        spec.prefill = 32;
        // Zero-duration run: only the prefill happens.
        let cfg = RunConfig {
            threads: 1,
            duration: Duration::from_millis(1),
            workload: spec,
            op_delay: None,
            measure_latency: false,
        };
        let _ = run_throughput(&dict, &cfg);
        assert!(dict.len() >= 16, "prefill must populate the dictionary");
    }

    #[test]
    fn latency_recording_produces_summary() {
        let dict: SortedListDict<u64, u64> = SortedListDict::new();
        let res = run_throughput(&dict, &two_threads_50ms(true));
        let lat = res.latency.expect("latency requested");
        assert!(lat.samples > 0);
        assert!(lat.p50 <= lat.p99 && lat.p99 <= lat.p999);
    }

    #[test]
    fn fill_inserts_every_key_once() {
        let dict: SortedListDict<u64, u64> = SortedListDict::new();
        let res = run_fill(&dict, 64, 3);
        assert_eq!(res.keys, 64);
        assert_eq!(dict.len(), 64);
        assert!(res.inserts_per_sec() > 0.0);
    }

    #[test]
    fn fairness_ratio_computed() {
        let r = RunResult {
            total_ops: 100,
            finds: 0,
            insert_hits: 0,
            delete_hits: 0,
            elapsed: Duration::from_secs(1),
            min_thread_ops: 40,
            max_thread_ops: 60,
            latency: None,
        };
        assert!((r.fairness_ratio() - 1.5).abs() < 1e-9);
    }
}
