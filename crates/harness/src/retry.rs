//! The deterministic worst-case workload for retry resumption (after
//! Träff & Pöter, arXiv:2010.15755): a long *cold prefix* of keys that
//! no operation ever touches, with every thread hammering a small *hot
//! window* of keys ordered after it.
//!
//! The shape isolates exactly the cost `Cursor::resume` and cached
//! cursors remove. Under restart-from-head, every operation — and every
//! CAS retry — re-walks the whole cold prefix to reach the contention
//! site: O(prefix) per attempt. With resumption the prefix is paid about
//! once per run, by whichever operation first caches an anchor in the
//! window (the cache's slots are shared, so every thread starts from it),
//! and each retry costs only the distance back to the conflict. Unlike the randomized mixed-op
//! workloads ([`crate::run_throughput`]), the operation sequence is a
//! fixed function of `(thread, iteration)` — identical across runs and
//! configurations — so two measurements differ only in the mechanism
//! under test.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use valois_dict::{Dictionary, SortedListDict};

/// Shape of a deterministic hot-window run.
#[derive(Debug, Clone, Copy)]
pub struct HotWindowConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Cold-prefix length: keys `0, 2, 4, ..` inserted before the run
    /// and never touched by it.
    pub prefix: u64,
    /// Hot-window width: the number of distinct keys (all ordered after
    /// the prefix) the threads contend on.
    pub window: u64,
    /// Alternating insert/remove pairs each thread performs.
    pub pairs_per_thread: u64,
}

impl Default for HotWindowConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            prefix: 4096,
            window: 8,
            pairs_per_thread: 1000,
        }
    }
}

/// Measurements of one hot-window run.
#[derive(Debug, Clone, Copy)]
pub struct HotWindowResult {
    /// Wall-clock time for all threads to finish their fixed op counts.
    pub elapsed: Duration,
    /// Total operations performed (`2 * pairs_per_thread * threads`).
    pub ops: u64,
    /// Mean nanoseconds per operation.
    pub ns_per_op: f64,
    /// Failed insert/delete CAS attempts per operation.
    pub retries_per_op: f64,
    /// `Cursor::resume` back-walks that found a deleted anchor.
    pub resumes: u64,
    /// Total back-link hops those resumes performed (`resume_hops /
    /// resumes` = mean distance-to-conflict).
    pub resume_hops: u64,
    /// Forward `Next` steps per operation — the positioning cost the
    /// resumption machinery exists to cut.
    pub next_steps_per_op: f64,
}

/// Runs the deterministic hot-window workload on `dict` and returns the
/// per-op costs derived from wall clock and [`SortedListDict::list_stats`]
/// deltas.
///
/// The dictionary should be freshly built (the prefix is inserted here);
/// pass one constructed with
/// [`SortedListDict::with_config_cached`]`(.., false)` to measure the
/// restart-from-head baseline.
pub fn run_hot_window(
    dict: &SortedListDict<u64, u64>,
    config: &HotWindowConfig,
) -> HotWindowResult {
    // Cold prefix: even keys, so the hot window below interleaves
    // nothing with it.
    for k in 0..config.prefix {
        dict.insert(2 * k, k);
    }
    let base = 2 * config.prefix + 2;
    let before = dict.list_stats();
    let barrier = Barrier::new(config.threads + 1);
    let started = std::thread::scope(|s| {
        for tid in 0..config.threads as u64 {
            let (dict, barrier) = (&dict, &barrier);
            let config = *config;
            s.spawn(move || {
                barrier.wait();
                for i in 0..config.pairs_per_thread {
                    // Every thread walks the same window phase-shifted
                    // by its id: all CASes land within `window` cells of
                    // each other, and the schedule is a pure function of
                    // (tid, i).
                    let key = base + 2 * ((i + tid) % config.window);
                    dict.insert(key, tid);
                    dict.remove(&key);
                }
            });
        }
        // Start the clock *before* releasing the barrier: on a saturated
        // machine the workers can run to completion before this thread is
        // rescheduled, and a post-release `Instant::now()` would miss the
        // whole measurement window.
        let started = Instant::now();
        barrier.wait();
        started
    });
    let elapsed = started.elapsed();
    let delta = dict.list_stats().since(&before);
    let ops = 2 * config.pairs_per_thread * config.threads as u64;
    let retries = delta.insert_retries() + delta.delete_retries();
    HotWindowResult {
        elapsed,
        ops,
        ns_per_op: elapsed.as_nanos() as f64 / ops as f64,
        retries_per_op: retries as f64 / ops as f64,
        resumes: delta.resumes,
        resume_hops: delta.resume_hops,
        next_steps_per_op: delta.next_steps as f64 / ops as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valois_core::ArenaConfig;

    #[test]
    fn hot_window_is_deterministic_in_shape() {
        let config = HotWindowConfig {
            threads: 2,
            prefix: 128,
            window: 4,
            pairs_per_thread: 50,
        };
        let dict = SortedListDict::new();
        let r = run_hot_window(&dict, &config);
        assert_eq!(r.ops, 2 * 50 * 2);
        assert!(r.ns_per_op > 0.0);
        // The run leaves the prefix intact: every op targeted the window.
        assert_eq!(dict.keys().len(), 128);
    }

    #[test]
    fn resumption_beats_restart_from_head_single_thread() {
        // Even uncontended (one thread, zero retries), the cached cursor
        // must slash the positioning walk over the cold prefix.
        let config = HotWindowConfig {
            threads: 1,
            prefix: 1024,
            window: 4,
            pairs_per_thread: 100,
        };
        let baseline = {
            let dict = SortedListDict::with_config_cached(ArenaConfig::default(), false);
            run_hot_window(&dict, &config)
        };
        let resumed = {
            let dict = SortedListDict::with_config_cached(ArenaConfig::default(), true);
            run_hot_window(&dict, &config)
        };
        assert!(
            baseline.next_steps_per_op >= config.prefix as f64,
            "baseline must re-walk the prefix, got {} steps/op",
            baseline.next_steps_per_op
        );
        assert!(
            resumed.next_steps_per_op * 10.0 < baseline.next_steps_per_op,
            "resumption must cut steps/op >10x: {} vs {}",
            resumed.next_steps_per_op,
            baseline.next_steps_per_op
        );
    }
}
