//! The service artifact bench: `valois-server` thread-scaling matrix.
//!
//! Each cell starts a fresh sharded server (shard count == the "threads"
//! axis), drives the simulated connection fleet through the million-key
//! Zipfian read-mostly mix and the scan-heavy mix, and records ops/sec
//! plus issue-to-served p50/p99/p999 from the shard latency histograms.
//! The matrix crosses both reclamation backends (`RefCount`, `Epoch`).
//!
//! Scaling model: shard workers pay a simulated group-commit stall (one
//! `commit_stall` sleep per `commit_group` puts — an fsync/replication-ack
//! proxy). Stalls are per-shard and overlap across shards, so adding
//! shards overlaps durability waits with serving work: throughput scales
//! with shard count even on a single core, which is exactly how a real
//! service scales past its storage round-trips. The same matrix runs a
//! second time without the stall (`commit_stall_us: 0`): those data-path
//! rows measure serving work (dictionary, channel, scans) instead of
//! overlapping sleeps. `BENCH_service.json` commits both: every rate and
//! latency quantile is the median of the repeats with its range.
//!
//! `--smoke` (CI): one tiny cell per backend, no JSON artifact — proves
//! the server + sim + telemetry stack end to end without measuring.

use std::time::Duration;

use valois_bench::report::{smoke_mode, Fields, Report, Sample};
use valois_harness::KeyDist;
use valois_mem::{Epoch, Reclaimer, RefCount};
use valois_server::{run_service, Server, ServiceConfig, ServiceMix, SimConfig};

struct Cell {
    backend: &'static str,
    threads: usize,
    mix: &'static str,
    commit_stall_us: u64,
    ops_per_sec: Sample,
    p50_us: Sample,
    p99_us: Sample,
    p999_us: Sample,
    samples: u64,
    overloaded: u64,
    commits: u64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mix_by_name(name: &str) -> ServiceMix {
    match name {
        "read_mostly" => ServiceMix::read_mostly(),
        _ => ServiceMix::scan_heavy(),
    }
}

/// One matrix cell: a fresh server per repeat, a full traffic run each.
/// Rates and quantiles are samples over the repeats; the counts come from
/// the last run. `commit_stall_us` 0 turns the group-commit stall off.
fn run_cell<R: Reclaimer + 'static>(
    backend: &'static str,
    threads: usize,
    mix_name: &'static str,
    commit_stall_us: u64,
    smoke: bool,
    repeats: usize,
) -> Cell {
    let service = ServiceConfig {
        shards: threads,
        batch: 64,
        commit_group: if commit_stall_us == 0 { 0 } else { 32 },
        commit_stall: Duration::from_micros(commit_stall_us),
        ..ServiceConfig::default()
    };
    let sim = SimConfig {
        client_threads: 2,
        connections: if smoke { 64 } else { 1024 },
        requests_per_conn: if smoke { 8 } else { 48 },
        window: 64,
        mix: mix_by_name(mix_name),
        keys: KeyDist::Zipf {
            range: if smoke { 4096 } else { 1_000_000 },
        },
        scan_len: 16,
        seed: 0x5EED_1995_C0DE ^ ((threads as u64) << 8),
    };
    // [ops/s, p50, p99, p999] per repeat.
    let mut runs: Vec<[f64; 4]> = Vec::new();
    let mut counts = (0, 0, 0);
    for _ in 0..repeats {
        let server: Server<R> = Server::start(&service);
        let report = run_service(&server, &sim);
        assert_eq!(
            report.issued,
            (sim.connections as u64) * sim.requests_per_conn,
            "every simulated request must be answered"
        );
        let lat = report.latency.expect("nonempty run has latency samples");
        runs.push([report.ops_per_sec, us(lat.p50), us(lat.p99), us(lat.p999)]);
        counts = (lat.samples, report.overloaded, server.stats().commits);
        for mut dict in server.shutdown() {
            dict.check_invariants()
                .unwrap_or_else(|e| panic!("shard dictionary corrupt after bench run: {e}"));
        }
    }
    let col = |i: usize| Sample::of(runs.iter().map(|r| r[i]));
    Cell {
        backend,
        threads,
        mix: mix_name,
        commit_stall_us,
        ops_per_sec: col(0),
        p50_us: col(1),
        p99_us: col(2),
        p999_us: col(3),
        samples: counts.0,
        overloaded: counts.1,
        commits: counts.2,
    }
}

fn run_backend<R: Reclaimer + 'static>(
    backend: &'static str,
    thread_counts: &[usize],
    mixes: &[&'static str],
    stalls_us: &[u64],
    smoke: bool,
    repeats: usize,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &stall in stalls_us {
        for &threads in thread_counts {
            for &mix in mixes {
                let cell = run_cell::<R>(backend, threads, mix, stall, smoke, repeats);
                println!(
                    "service/{backend}/{threads}t/{mix}/stall{stall}us: {:.0} ops/s \
                     ({:.0}-{:.0}), p50 {:.1}µs p99 {:.1}µs p999 {:.1}µs ({} samples, \
                     {} commits, {} overloaded)",
                    cell.ops_per_sec.median,
                    cell.ops_per_sec.min,
                    cell.ops_per_sec.max,
                    cell.p50_us.median,
                    cell.p99_us.median,
                    cell.p999_us.median,
                    cell.samples,
                    cell.commits,
                    cell.overloaded,
                );
                cells.push(cell);
            }
        }
    }
    cells
}

fn main() {
    let smoke = smoke_mode();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // 1 → all cores, and past them: shards beyond the core count still
    // help because the axis being scaled is overlapped commit stalls,
    // not CPU. Keep 4 as the ceiling so small hosts stay comparable.
    let mut thread_counts: Vec<usize> = vec![1, 2, 4, cores.clamp(1, 4)];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let mixes: &[&'static str] = if smoke {
        &["read_mostly"]
    } else {
        &["read_mostly", "scan_heavy"]
    };
    if smoke {
        thread_counts = vec![2];
    }
    let repeats = if smoke { 1 } else { 3 };
    let stalls_us: &[u64] = if smoke { &[0] } else { &[500, 0] };

    let mut cells =
        run_backend::<RefCount>("refcount", &thread_counts, mixes, stalls_us, smoke, repeats);
    cells.extend(run_backend::<Epoch>(
        "epoch",
        &thread_counts,
        mixes,
        stalls_us,
        smoke,
        repeats,
    ));

    // Headline: max-threads vs 1-thread throughput per backend on the
    // read-mostly mix with the stall (the scaling acceptance bar). The
    // smoke shape has neither a 1-shard nor a stalled cell.
    let max_t = *thread_counts.last().expect("nonempty");
    let pick = |backend: &str, threads: usize| {
        cells.iter().find(|c| {
            c.backend == backend
                && c.threads == threads
                && c.mix == "read_mostly"
                && c.commit_stall_us > 0
        })
    };
    let mut headline = Vec::new();
    for backend in ["refcount", "epoch"] {
        let (Some(one), Some(max)) = (pick(backend, 1), pick(backend, max_t)) else {
            continue;
        };
        let scaling = max.ops_per_sec.median / one.ops_per_sec.median.max(1.0);
        println!(
            "\nservice/{backend}: {max_t} shards run {scaling:.2}x of 1 shard \
             ({:.0} vs {:.0} ops/s, read-mostly)",
            max.ops_per_sec.median, one.ops_per_sec.median,
        );
        if scaling <= 1.0 {
            eprintln!("service/{backend}: WARNING — no scaling observed");
        }
        headline.push(
            Fields::default()
                .str("backend", backend)
                .int("threads", max_t as u64)
                .num("scaling_vs_1_thread", scaling, 2),
        );
    }

    let rows = cells
        .iter()
        .map(|c| {
            Fields::default()
                .str("backend", c.backend)
                .int("threads", c.threads as u64)
                .str("mix", c.mix)
                .int("commit_stall_us", c.commit_stall_us)
                .sample("ops_per_sec", c.ops_per_sec, 0)
                .sample("p50_us", c.p50_us, 1)
                .sample("p99_us", c.p99_us, 1)
                .sample("p999_us", c.p999_us, 1)
                .int("samples", c.samples)
                .int("commits", c.commits)
                .int("overloaded", c.overloaded)
        })
        .collect();
    let body = Fields::default()
        .str(
            "workload",
            "1024 connections x 48 requests, Zipfian over 1M keys; mixes read_mostly \
             (70/15/10/5 get/put/del/scan) and scan_heavy (30/25/20/25)",
        )
        .str(
            "model",
            "shards == threads; rows with commit_stall_us 500 pay one 500us group-commit \
             stall per 32 puts per shard (fsync/replication-ack proxy), which overlap across \
             shards, so they measure shard-count scaling of overlapped durability waits; rows \
             with commit_stall_us 0 measure the data path alone; ops_per_sec and the latency \
             quantiles (log-linear histogram, <= 6.25% high) are medians of the repeats, \
             with their ranges; samples, commits and overloaded come from the last repeat",
        )
        .list("threads", &thread_counts)
        .list("backends", &["refcount", "epoch"])
        .rows("rows", rows)
        .rows("headline", headline);
    Report::new("service", repeats, body).write();
}
