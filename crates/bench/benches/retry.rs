//! The retry-resumption artifact bench: restart-from-head versus
//! back_link-guided resumption + cached cursors on the deterministic
//! hot-window workload (`valois_harness::run_hot_window`, after Träff &
//! Pöter's worst-case benchmark).
//!
//! Every thread hammers a small window of keys ordered after a long cold
//! prefix. Restart-from-head re-walks the prefix on every operation and
//! every CAS retry; resumption pays it about once per run (the cursor
//! cache's slots are shared by all threads) and then only the distance
//! back to the conflict. The retry *count* is a property of the
//! contention, not the positioning mechanism, so retries-per-op should
//! match between the two configurations while ns-per-op collapses —
//! exactly what `BENCH_retry.json` records at 1/2/4/all threads (ns per
//! op as the median of the repeats with its range).
//!
//! `--smoke` (CI): one tiny shape, no JSON artifact — proves the harness
//! end to end without measuring anything.

use valois_bench::report::{smoke_mode, Fields, Report, Sample};
use valois_core::ArenaConfig;
use valois_dict::SortedListDict;
use valois_harness::{run_hot_window, HotWindowConfig, HotWindowResult};

/// One configuration over the repeats: medians of the per-op figures,
/// `resumes` and `resume_hops` of the first run.
struct Arm {
    ns_per_op: Sample,
    retries_per_op: f64,
    steps_per_op: f64,
    resumes: u64,
    resume_hops: u64,
}

struct Row {
    threads: usize,
    head: Arm,
    resume: Arm,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.head.ns_per_op.median / self.resume.ns_per_op.median.max(1.0)
    }
}

/// Re-runs the whole workload per repeat — fresh dict each time, the fill
/// is part of neither measurement window.
fn measure(cached: bool, config: &HotWindowConfig, repeats: usize) -> Arm {
    let runs: Vec<HotWindowResult> = (0..repeats)
        .map(|_| {
            let dict: SortedListDict<u64, u64> =
                SortedListDict::with_config_cached(ArenaConfig::default(), cached);
            run_hot_window(&dict, config)
        })
        .collect();
    let of = |f: fn(&HotWindowResult) -> f64| Sample::of(runs.iter().map(f));
    Arm {
        ns_per_op: of(|r| r.ns_per_op),
        retries_per_op: of(|r| r.retries_per_op).median,
        steps_per_op: of(|r| r.next_steps_per_op).median,
        resumes: runs[0].resumes,
        resume_hops: runs[0].resume_hops,
    }
}

fn main() {
    let smoke = smoke_mode();
    // The ≥4-thread row is the headline even on small machines:
    // oversubscription just makes the preemption-at-CAS case (the one
    // resumption exists for) more frequent.
    let all = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 16);
    let mut thread_counts: Vec<usize> = vec![1, 2, 4, all];
    thread_counts.dedup();
    if smoke {
        thread_counts = vec![2];
    }
    let config = HotWindowConfig {
        threads: 0, // per-row
        prefix: if smoke { 256 } else { 4096 },
        window: 8,
        pairs_per_thread: if smoke { 200 } else { 2_000 },
    };
    let repeats = if smoke { 1 } else { 3 };

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &thread_counts {
        let config = HotWindowConfig { threads, ..config };
        let row = Row {
            threads,
            head: measure(false, &config, repeats),
            resume: measure(true, &config, repeats),
        };
        println!(
            "retry/{threads}t: {:.0} ns/op vs {:.0} ns/op ({:.1}x), retries/op {:.3} vs {:.3}, \
             steps/op {:.0} vs {:.0}, {} resumes over {} hops",
            row.head.ns_per_op.median,
            row.resume.ns_per_op.median,
            row.speedup(),
            row.head.retries_per_op,
            row.resume.retries_per_op,
            row.head.steps_per_op,
            row.resume.steps_per_op,
            row.resume.resumes,
            row.resume.resume_hops,
        );
        rows.push(row);
    }

    let hot = rows
        .iter()
        .filter(|r| r.threads >= 4)
        .max_by_key(|r| r.threads)
        .unwrap_or_else(|| rows.last().expect("at least one thread count"));
    println!(
        "\nretry: at {} threads resumption runs {:.1}x restart-from-head \
         (retries/op {:.3} vs {:.3})",
        hot.threads,
        hot.speedup(),
        hot.head.retries_per_op,
        hot.resume.retries_per_op,
    );

    let rows_json = rows
        .iter()
        .map(|r| {
            Fields::default()
                .int("threads", r.threads as u64)
                .sample("head_ns_per_op", r.head.ns_per_op, 0)
                .sample("resume_ns_per_op", r.resume.ns_per_op, 0)
                .num("speedup", r.speedup(), 2)
                .num("head_retries_per_op", r.head.retries_per_op, 3)
                .num("resume_retries_per_op", r.resume.retries_per_op, 3)
                .num("head_steps_per_op", r.head.steps_per_op, 1)
                .num("resume_steps_per_op", r.resume.steps_per_op, 1)
                .int("resumes", r.resume.resumes)
                .int("resume_hops", r.resume.resume_hops)
        })
        .collect();
    let headline = Fields::default()
        .int("threads", hot.threads as u64)
        .num("speedup", hot.speedup(), 2)
        .num("head_retries_per_op", hot.head.retries_per_op, 3)
        .num("resume_retries_per_op", hot.resume.retries_per_op, 3);
    let workload = format!(
        "deterministic hot-window (prefix {}, window {}, {} pairs/thread)",
        config.prefix, config.window, config.pairs_per_thread
    );
    let body = Fields::default()
        .str("workload", &workload)
        .list("threads", &thread_counts)
        .rows("rows", rows_json)
        .obj("headline", headline);
    Report::new("retry", repeats, body).write();
}
