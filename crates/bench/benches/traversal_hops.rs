//! Per-hop traversal cost: the cursor hop loop against a raw pointer walk
//! over the same nodes, across reclamation backends and thread counts.
//!
//! This is the hot path the magazine/deferred-release work targets: each
//! `Cursor::next` used to pay six refcount RMWs plus four shared-counter
//! increments per hop; with count transfer, deferred release batching, and
//! cursor-resident tallies the counted backend pays two `SafeRead`
//! increments plus two amortized deferred decrements — and the epoch
//! backend pays none at all (one pin per traversal, plain loads per hop).
//! The bench reports ns per *hop* (node visited) and writes the measured
//! costs, each a median with its range over the timer's samples, to
//! `BENCH_traversal.json` at the repo root next to the recorded seed
//! baseline, so the before/after ratio is machine-checkable.
//!
//! Two sections:
//!
//! * `sizes` — the original single-threaded refcount-vs-raw pair at two
//!   list lengths, kept measuring exactly what the seed baseline recorded;
//! * `matrix` — backend (`refcount` / `epoch` / `raw`) × thread count
//!   (1, 2, 4, all cores, deduplicated). Shared list for the protected
//!   backends; the raw walk needs `&mut` exclusivity, so each thread
//!   walks a private identical list (the uncontended floor).
//!
//! `--smoke` (CI): run one short iteration of each case and skip the JSON
//! artifact — proves the harness end to end without measuring anything.

use valois_bench::report::{black_box, smoke_mode, time, Fields, Report, Sample, SAMPLES};
use valois_core::{Epoch, List, Reclaimer, RefCount};

/// Seed-tree E8 measurements (EXPERIMENTS.md, single-core container):
/// protected traversal per-node cost before the batching layers existed,
/// and the raw-walk floor it is compared against.
const BASELINE_PROTECTED_NS_PER_HOP: f64 = 95.7;
const BASELINE_RAW_NS_PER_HOP: f64 = 3.5;

struct MatrixRow {
    backend: &'static str,
    threads: usize,
    ns_per_hop: Sample,
}

/// 1, 2, 4, and all cores — deduplicated and sorted (a 1-core container
/// yields `[1, 2, 4]`: the oversubscribed points still exercise
/// contention via preemption).
fn thread_points(smoke: bool) -> Vec<usize> {
    if smoke {
        return vec![1, 2];
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut pts = vec![1usize, 2, 4, cores];
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Measures one protected arm: `threads` walkers share one `List<_, R>`,
/// each doing `passes` full protected traversals per timed iteration.
fn bench_protected_arm<R: Reclaimer>(
    backend: &'static str,
    threads: usize,
    n: u64,
    passes: u64,
) -> MatrixRow {
    let list: List<u64, R> = (0..n).collect();
    let walk = || {
        let mut sum = 0u64;
        for _ in 0..passes {
            list.for_each(|v| sum += *v);
        }
        black_box(sum);
    };
    let label = format!("traversal_backends/{backend}/t{threads}");
    let iter = time(&label, || {
        if threads == 1 {
            walk();
        } else {
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(walk);
                }
            });
        }
    });
    MatrixRow {
        backend,
        threads,
        ns_per_hop: iter.scale(1.0 / (n * passes * threads as u64) as f64),
    }
}

/// Measures the raw-walk floor: `for_each_unprotected` requires `&mut`
/// (no protection means no sharing), so each thread owns an identical
/// private list.
fn bench_raw_arm(threads: usize, n: u64, passes: u64) -> MatrixRow {
    let mut lists: Vec<List<u64>> = (0..threads).map(|_| (0..n).collect()).collect();
    let walk = |list: &mut List<u64>| {
        let mut sum = 0u64;
        for _ in 0..passes {
            list.for_each_unprotected(|v| sum += *v);
        }
        black_box(sum);
    };
    let iter = time(&format!("traversal_backends/raw/t{threads}"), || {
        if threads == 1 {
            walk(&mut lists[0]);
        } else {
            std::thread::scope(|s| {
                for list in lists.iter_mut() {
                    s.spawn(move || walk(list));
                }
            });
        }
    });
    MatrixRow {
        backend: "raw",
        threads,
        ns_per_hop: iter.scale(1.0 / (n * passes * threads as u64) as f64),
    }
}

fn main() {
    let smoke = smoke_mode();
    let sizes: &[u64] = if smoke { &[64] } else { &[1_000, 10_000] };
    let (matrix_n, passes) = if smoke { (64, 1) } else { (10_000, 4) };

    // (n, protected, raw) ns per hop.
    let mut rows: Vec<(u64, Sample, Sample)> = Vec::new();
    for &n in sizes {
        let mut list: List<u64> = (0..n).collect();
        let per_hop = 1.0 / n as f64;
        let protected = time(&format!("traversal_hops/protected_cursor/{n}"), || {
            let mut sum = 0u64;
            list.for_each(|v| sum += *v);
            sum
        });
        let raw = time(&format!("traversal_hops/raw_walk/{n}"), || {
            let mut sum = 0u64;
            list.for_each_unprotected(|v| sum += *v);
            sum
        });
        rows.push((n, protected.scale(per_hop), raw.scale(per_hop)));
    }

    // Backend × thread-count matrix.
    let mut matrix: Vec<MatrixRow> = Vec::new();
    for &t in &thread_points(smoke) {
        matrix.push(bench_protected_arm::<RefCount>(
            "refcount", t, matrix_n, passes,
        ));
        matrix.push(bench_protected_arm::<Epoch>("epoch", t, matrix_n, passes));
        matrix.push(bench_raw_arm(t, matrix_n, passes));
    }

    // Summary + artifact. The headline number is the larger list (cold-ish
    // cache, amortized batch boundaries all exercised).
    let &(_, head_protected, head_raw) = rows.last().expect("at least one size measured");
    let speedup = BASELINE_PROTECTED_NS_PER_HOP / head_protected.median;
    println!(
        "\ntraversal_hops: protected {:.1} ns/hop (baseline {BASELINE_PROTECTED_NS_PER_HOP}) \
         — {speedup:.2}x vs seed, {:.2}x over raw walk",
        head_protected.median,
        head_protected.median / head_raw.median,
    );
    let per_hop = |backend: &str, threads: usize| {
        matrix
            .iter()
            .find(|r| r.backend == backend && r.threads == threads)
            .map_or(f64::NAN, |r| r.ns_per_hop.median)
    };
    let epoch_vs_raw_t1 = per_hop("epoch", 1) / per_hop("raw", 1);
    let refcount_vs_raw_t1 = per_hop("refcount", 1) / per_hop("raw", 1);
    println!(
        "traversal_backends: single-thread epoch {epoch_vs_raw_t1:.2}x raw, \
         refcount {refcount_vs_raw_t1:.2}x raw",
    );

    let sizes = rows
        .iter()
        .map(|&(n, protected, raw)| {
            Fields::default()
                .int("n", n)
                .sample("protected_ns_per_hop", protected, 2)
                .sample("raw_ns_per_hop", raw, 2)
                .num(
                    "protection_overhead_ratio",
                    protected.median / raw.median,
                    2,
                )
        })
        .collect();
    let matrix = matrix
        .iter()
        .map(|r| {
            Fields::default()
                .str("backend", r.backend)
                .int("threads", r.threads as u64)
                .sample("ns_per_hop", r.ns_per_hop, 2)
        })
        .collect();
    let baseline = Fields::default()
        .str("source", "EXPERIMENTS.md E8 (seed, pre-batching)")
        .num("protected_ns_per_hop", BASELINE_PROTECTED_NS_PER_HOP, 1)
        .num("raw_ns_per_hop", BASELINE_RAW_NS_PER_HOP, 1);
    let body = Fields::default()
        .str("unit", "ns_per_hop")
        .rows("sizes", sizes)
        .rows("matrix", matrix)
        .num("epoch_vs_raw_single_thread", epoch_vs_raw_t1, 2)
        .num("refcount_vs_raw_single_thread", refcount_vs_raw_t1, 2)
        .obj("baseline", baseline)
        .num("speedup_vs_baseline", speedup, 2);
    Report::new("traversal", SAMPLES, body).write();
}
