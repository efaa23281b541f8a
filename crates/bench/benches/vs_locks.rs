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
//! Each row runs three times on a fresh structure. One line per
//! (structure, threads, stall): the median throughput, p999 operation
//! latency and max/min per-thread operation ratio (`fairness`, 1.0 is
//! even; `inf` means some thread completed none). `BENCH_vs_locks.json`
//! records each of the three as the median with its range (`null` for
//! `inf`).
//!
//! `--smoke` (CI): two thread counts, one 10 ms run per row and no
//! artifact — proves the sweep end to end without measuring anything.

use std::time::Duration;

use valois_baseline::locked::LockedHashDict;
use valois_baseline::{CriticalDelay, LockedBstDict, LockedListDict, MutexListDict};
use valois_bench::report::{smoke_mode, Fields, Report, Sample};
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

/// Thread counts, the measured window per run and the runs per row.
fn shape() -> (&'static [usize], Duration, usize) {
    if smoke_mode() {
        (&[1, 2], Duration::from_millis(10), 1)
    } else {
        (&[1, 2, 4, 8, 16], Duration::from_millis(200), 3)
    }
}

/// Runs `make`'s structure at every thread count, unstalled and stalled,
/// prints one line per row and returns the rows.
fn sweep<D: Dictionary<u64, u64>>(
    name: &str,
    stall: Stall,
    make: impl Fn(CriticalDelay) -> D,
) -> Vec<Fields> {
    let (threads, window, repeats) = shape();
    let mut rows = Vec::new();
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
            let run = RunConfig {
                threads,
                duration: window,
                workload: WorkloadSpec::standard(512),
                op_delay: around,
                measure_latency: true,
            };
            // [ops/s, p999 µs, fairness] per repeat.
            let runs: Vec<[f64; 3]> = (0..repeats)
                .map(|_| {
                    let res = run_throughput(&make(inside.clone()), &run);
                    let p999 = res.latency.map_or(f64::NAN, |l| l.p999.as_secs_f64() * 1e6);
                    [res.ops_per_sec(), p999, res.fairness_ratio()]
                })
                .collect();
            let col = |i: usize| Sample::of(runs.iter().map(|r| r[i]));
            let (ops, p999, fairness) = (col(0), col(1), col(2));
            let stall = if stalled { "1%x100" } else { "none" };
            println!(
                "vs_locks {name:<15} {threads:>7} {stall:>7} {:>12.0} {:>11.1} {:>9.1}",
                ops.median, p999.median, fairness.median,
            );
            rows.push(
                Fields::default()
                    .str("structure", name)
                    .int("threads", threads as u64)
                    .str("stall", stall)
                    .sample("ops_per_sec", ops, 0)
                    .sample("p999_us", p999, 1)
                    .sample("fairness", fairness, 1),
            );
        }
    }
    rows
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (_, window, repeats) = shape();
    println!(
        "vs_locks: {cores} cores, {window:?} per run, {repeats} runs per row, stall 1% x 100 us"
    );
    println!(
        "vs_locks {:<15} {:>7} {:>7} {:>12} {:>11} {:>9}",
        "structure", "threads", "stall", "ops/s", "p999_us", "fairness"
    );
    use Stall::{AroundOp, InLock};
    let rows = [
        sweep("list/refcount", AroundOp, |_| {
            SortedListDict::<u64, u64>::new()
        }),
        sweep("list/epoch", AroundOp, |_| {
            SortedListDict::<u64, u64, Epoch>::new()
        }),
        sweep("list/ttas", InLock, |d| {
            LockedListDict::<u64, u64>::new().with_delay(d)
        }),
        sweep("list/tas", InLock, |d| {
            LockedListDict::<u64, u64, _>::with_lock(TasLock::new()).with_delay(d)
        }),
        sweep("list/mutex", InLock, |d| {
            MutexListDict::<u64, u64>::new().with_delay(d)
        }),
        sweep("hash512/lf", AroundOp, |_| {
            HashDict::<u64, u64>::with_buckets(512)
        }),
        sweep("hash512/locked", InLock, |d| {
            LockedHashDict::<u64, u64>::with_buckets(512).with_delay(d)
        }),
        sweep("bst/lf", AroundOp, |_| BstDict::<u64, u64>::new()),
        sweep("bst/locked", InLock, |d| {
            LockedBstDict::<u64, u64>::new().with_delay(d)
        }),
    ];

    let body = Fields::default()
        .str(
            "workload",
            "balanced 50/25/25 find/insert/delete over 512 keys, 256 prefilled; stall \
             1%x100 = a 100 us stall on 1% of operations, inside the lock for locked \
             structures and around the operation for lock-free ones",
        )
        .int("window_ms", window.as_millis() as u64)
        .rows("rows", rows.concat());
    Report::new("vs_locks", repeats, body).write();
}
