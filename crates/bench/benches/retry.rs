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
//! exactly what `BENCH_retry.json` records at 1/2/4/all threads.
//!
//! `--smoke` (CI): one tiny shape, no JSON artifact — proves the harness
//! end to end without measuring anything.

use std::fs;
use std::path::Path;

use valois_bench::criterion::smoke_mode;
use valois_core::ArenaConfig;
use valois_dict::SortedListDict;
use valois_harness::{run_hot_window, HotWindowConfig, HotWindowResult};

struct Row {
    threads: usize,
    head: HotWindowResult,
    resume: HotWindowResult,
}

fn median_by<F: Fn(&HotWindowResult) -> f64>(runs: &[HotWindowResult], f: F) -> f64 {
    let mut xs: Vec<f64> = runs.iter().map(f).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// Median-ns run (re-running the whole workload per repeat — fresh dict
/// each time, the fill is part of neither measurement window).
fn measure(cached: bool, config: &HotWindowConfig, repeats: usize) -> HotWindowResult {
    let runs: Vec<HotWindowResult> = (0..repeats)
        .map(|_| {
            let dict: SortedListDict<u64, u64> =
                SortedListDict::with_config_cached(ArenaConfig::default(), cached);
            run_hot_window(&dict, config)
        })
        .collect();
    let mut mid = runs[0];
    mid.ns_per_op = median_by(&runs, |r| r.ns_per_op);
    mid.retries_per_op = median_by(&runs, |r| r.retries_per_op);
    mid.next_steps_per_op = median_by(&runs, |r| r.next_steps_per_op);
    mid
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
        let head = measure(false, &config, repeats);
        let resume = measure(true, &config, repeats);
        println!(
            "retry/{threads}t: {:.0} ns/op vs {:.0} ns/op ({:.1}x), retries/op {:.3} vs {:.3}, \
             steps/op {:.0} vs {:.0}, {} resumes over {} hops",
            head.ns_per_op,
            resume.ns_per_op,
            head.ns_per_op / resume.ns_per_op.max(1.0),
            head.retries_per_op,
            resume.retries_per_op,
            head.next_steps_per_op,
            resume.next_steps_per_op,
            resume.resumes,
            resume.resume_hops,
        );
        rows.push(Row {
            threads,
            head,
            resume,
        });
    }

    if smoke {
        println!("retry: smoke run complete (no artifact written)");
        return;
    }

    let hot = rows
        .iter()
        .filter(|r| r.threads >= 4)
        .max_by_key(|r| r.threads)
        .unwrap_or_else(|| rows.last().expect("at least one thread count"));
    let speedup = hot.head.ns_per_op / hot.resume.ns_per_op.max(1.0);
    println!(
        "\nretry: at {} threads resumption runs {speedup:.1}x restart-from-head \
         (retries/op {:.3} vs {:.3})",
        hot.threads, hot.head.retries_per_op, hot.resume.retries_per_op,
    );

    let mut rows_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            rows_json.push(',');
        }
        rows_json.push_str(&format!(
            "\n    {{ \"threads\": {}, \"head_ns_per_op\": {:.0}, \"resume_ns_per_op\": {:.0}, \
             \"speedup\": {:.2}, \"head_retries_per_op\": {:.3}, \"resume_retries_per_op\": {:.3}, \
             \"head_steps_per_op\": {:.1}, \"resume_steps_per_op\": {:.1}, \
             \"resumes\": {}, \"resume_hops\": {} }}",
            r.threads,
            r.head.ns_per_op,
            r.resume.ns_per_op,
            r.head.ns_per_op / r.resume.ns_per_op.max(1.0),
            r.head.retries_per_op,
            r.resume.retries_per_op,
            r.head.next_steps_per_op,
            r.resume.next_steps_per_op,
            r.resume.resumes,
            r.resume.resume_hops,
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"retry\",\n  \"host\": {{ \"cores\": {cores} }},\n  \
         \"repeats\": {repeats},\n  \"workload\": \"deterministic hot-window \
         (prefix {}, window {}, {} pairs/thread)\",\n  \"threads\": [{}],\n  \
         \"rows\": [{rows_json}\n  ],\n  \
         \"headline\": {{\n    \"threads\": {},\n    \"speedup\": {speedup:.2},\n    \
         \"head_retries_per_op\": {:.3},\n    \"resume_retries_per_op\": {:.3}\n  }}\n}}\n",
        config.prefix,
        config.window,
        config.pairs_per_thread,
        thread_counts
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        hot.threads,
        hot.head.retries_per_op,
        hot.resume.retries_per_op,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_retry.json");
    match fs::write(&out, json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
