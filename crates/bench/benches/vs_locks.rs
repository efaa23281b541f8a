//! The lock comparisons of §1 as one thread sweep: the lock-free
//! structures against coarse locks (TAS, TTAS, mutex) on the same sorted
//! list, and against locked tables and trees of the same shape (E1, E2,
//! E6 and E9 in EXPERIMENTS.md).
//!
//! Every structure runs the balanced 50/25/25 mix over 512 keys at each
//! thread count, once as it is and once with a 100 µs stall on 1% of
//! operations. A locked structure takes its stall inside the critical
//! section (`with_delay`), so every thread queued on the lock waits it
//! out. A lock-free structure has no critical section; its stall lands
//! around the operation (`RunConfig::op_delay`) and delays only its own
//! thread. Thread counts past the host's cores are the multiprogrammed
//! rows: a preempted lock holder stalls everyone the same way.
//!
//! One line per (structure, threads, stall): throughput, the p999
//! operation latency, and the max/min per-thread operation ratio
//! (`fairness`, 1.0 is even; `inf` means some thread completed none).
//! Nothing is written to disk.
//!
//! `--smoke` (CI): two thread counts and a 10 ms window per row — proves
//! the sweep end to end without measuring anything.

use std::time::Duration;

use valois_baseline::locked::LockedHashDict;
use valois_baseline::{CriticalDelay, LockedBstDict, LockedListDict, MutexListDict};
use valois_bench::criterion::smoke_mode;
use valois_core::Epoch;
use valois_dict::{BstDict, Dictionary, HashDict, SortedListDict};
use valois_harness::{run_throughput, RunConfig, WorkloadSpec};
use valois_sync::TasLock;

/// Where a structure's stalled rows put the stall.
#[derive(Clone, Copy)]
enum Stall {
    /// Inside the critical section: the builder gets the stall.
    InLock,
    /// Around each operation: the builder gets no stall.
    AroundOp,
}

/// Thread counts and the measured window per row.
fn shape() -> (&'static [usize], Duration) {
    if smoke_mode() {
        (&[1, 2], Duration::from_millis(10))
    } else {
        (&[1, 2, 4, 8, 16], Duration::from_millis(200))
    }
}

/// Runs `make`'s structure at every thread count, unstalled and stalled,
/// and prints one line per run.
fn sweep<D: Dictionary<u64, u64>>(name: &str, stall: Stall, make: impl Fn(CriticalDelay) -> D) {
    let (threads, window) = shape();
    for &threads in threads {
        for stalled in [false, true] {
            let delay = if stalled {
                CriticalDelay::new(0.01, Duration::from_micros(100))
            } else {
                CriticalDelay::none()
            };
            let (inside, around) = match stall {
                Stall::InLock => (delay, None),
                Stall::AroundOp => (CriticalDelay::none(), Some(delay)),
            };
            let dict = make(inside);
            let run = RunConfig {
                threads,
                duration: window,
                workload: WorkloadSpec::standard(512),
                op_delay: around,
                measure_latency: true,
            };
            let res = run_throughput(&dict, &run);
            let p999 = res.latency.map_or(f64::NAN, |l| l.p999.as_secs_f64() * 1e6);
            println!(
                "vs_locks {name:<15} {threads:>7} {:>7} {:>12.0} {p999:>11.1} {:>9.1}",
                if stalled { "1%x100" } else { "none" },
                res.ops_per_sec(),
                res.fairness_ratio(),
            );
        }
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "vs_locks: {cores} cores, {:?} per row, stall 1% x 100 us",
        shape().1
    );
    println!(
        "vs_locks {:<15} {:>7} {:>7} {:>12} {:>11} {:>9}",
        "structure", "threads", "stall", "ops/s", "p999_us", "fairness"
    );
    use Stall::{AroundOp, InLock};
    sweep("list/refcount", AroundOp, |_| {
        SortedListDict::<u64, u64>::new()
    });
    sweep("list/epoch", AroundOp, |_| {
        SortedListDict::<u64, u64, Epoch>::new()
    });
    sweep("list/ttas", InLock, |d| {
        LockedListDict::<u64, u64>::new().with_delay(d)
    });
    sweep("list/tas", InLock, |d| {
        LockedListDict::<u64, u64, _>::with_lock(TasLock::new()).with_delay(d)
    });
    sweep("list/mutex", InLock, |d| {
        MutexListDict::<u64, u64>::new().with_delay(d)
    });
    sweep("hash512/lf", AroundOp, |_| {
        HashDict::<u64, u64>::with_buckets(512)
    });
    sweep("hash512/locked", InLock, |d| {
        LockedHashDict::<u64, u64>::with_buckets(512).with_delay(d)
    });
    sweep("bst/lf", AroundOp, |_| BstDict::<u64, u64>::new());
    sweep("bst/locked", InLock, |d| {
        LockedBstDict::<u64, u64>::new().with_delay(d)
    });
}
