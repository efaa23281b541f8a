//! `perfbench`: the repository benchmark. Three closed-loop workloads,
//! each on at most two threads in total, report the end-to-end metrics
//! with tracing off (`--trace 0`) or the per-layer metrics from a traced
//! run (`--trace 1`). See `BENCHMARK.json` for why each workload exists.
//!
//! ```text
//! perfbench --workload <list_walk|skip_churn|kv_service> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Every line before it is a human-readable report.

mod dictload;
mod driver;
mod kvload;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use valois_dict::{SkipListDict, SortedListDict};

use crate::stats::WindowStats;
use crate::trace::TraceData;

/// Closed-loop driver threads of the dictionary workloads. With the one
/// shard worker plus one driver, `kv_service` uses the same total.
pub const DRIVER_THREADS: usize = 2;

pub const WORKLOADS: &[&str] = &["list_walk", "skip_churn", "kv_service"];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench-trace");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// How a run spends its time.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Constructions + prefills timed (before the window; the dictionary
    /// workloads time as many again after it); the median is `setup_s`.
    pub setup_reps: usize,
    /// Untimed closed-loop warm-up to steady state.
    pub warmup: Duration,
    /// The untraced timed window (all end-to-end metrics).
    pub window: Duration,
    /// The traced window (`--trace 1` only).
    pub traced: Option<Duration>,
    /// Direct `Shard::serve` calls after the traced window (`kv_service`,
    /// `--trace 1` only).
    pub serve: Duration,
    /// Budget of the single-thread cursor-walk rung (`--trace 1` only).
    pub walk: Duration,
}

impl Phases {
    /// `--trace 0` measures for `seconds`. `--trace 1` measures an
    /// untraced window of half of `seconds` and then a traced window of a
    /// quarter, so the traced and untraced throughput it compares come
    /// from the same run.
    fn new(args: &Args, setup_reps: usize) -> Self {
        let total = Duration::from_secs_f64(args.seconds);
        let (window, traced) = if args.trace {
            (total / 2, Some(total / 4))
        } else {
            (total, None)
        };
        Self {
            setup_reps,
            warmup: Duration::from_millis(1000),
            window,
            traced,
            serve: Duration::from_millis(250),
            walk: Duration::from_millis(300),
        }
    }
}

/// Builds `reps` times with `setup`, timing each build and dropping the
/// previous one untimed before the next; returns the last build and the
/// times in seconds.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        let built = setup();
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    (kept.expect("at least one build"), times)
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that returned an error or failed a per-operation check.
    pub failed: u64,
    /// Whole-run correctness checks (conservation, audits, reply
    /// matching).
    pub checks: Vec<(&'static str, Result<(), String>)>,
    /// The untraced window's throughput and latency.
    pub window: WindowStats,
    pub nodes_per_key: f64,
    pub setup_s: f64,
    pub trace: Option<TraceData>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        json_number(value)
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "list_walk" => dictload::run::<SortedListDict<u64, u64>>(
            &args,
            &dictload::LIST_WALK,
            &Phases::new(&args, 9),
        ),
        "skip_churn" => dictload::run::<SkipListDict<u64, u64>>(
            &args,
            &dictload::SKIP_CHURN,
            &Phases::new(&args, 9),
        ),
        "kv_service" => kvload::run(&args, &Phases::new(&args, 5)),
        _ => unreachable!("validated in parse_args"),
    };

    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let q = outcome.window.latency;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("ops_per_s     = {:.1} 1/s", outcome.window.ops_per_s);
    println!("lat_p50_us    = {:.3} us (exact, n={})", q.p50_us, q.count);
    println!("lat_p99_us    = {:.3} us (exact, n={})", q.p99_us, q.count);
    println!("nodes_per_key = {:.4} nodes/key", outcome.nodes_per_key);
    println!("setup_s       = {:.6} s", outcome.setup_s);
    println!(
        "fail_frac     = {fail_frac} 1 ({} of {})",
        outcome.failed, outcome.attempted
    );
    let mut correct = outcome.failed == 0;
    for (name, result) in &outcome.checks {
        match result {
            Ok(()) => println!("check ok:     {name}"),
            Err(e) => {
                correct = false;
                println!("CHECK FAILED: {name}: {e}");
                eprintln!("perfbench: CHECK FAILED: {name}: {e}");
            }
        }
    }

    let mut metrics = String::new();
    match &outcome.trace {
        None => {
            metric(&mut metrics, "ops_per_s", outcome.window.ops_per_s, "1/s");
            metric(&mut metrics, "lat_p50_us", q.p50_us, "us");
            metric(&mut metrics, "lat_p99_us", q.p99_us, "us");
            metric(
                &mut metrics,
                "nodes_per_key",
                outcome.nodes_per_key,
                "nodes/key",
            );
            metric(&mut metrics, "setup_s", outcome.setup_s, "s");
        }
        Some(data) => {
            if let Err(e) = trace::write_out(&args.out_dir, &args.workload, data) {
                eprintln!(
                    "perfbench: writing trace to {}: {e}",
                    args.out_dir.display()
                );
                correct = false;
            }
            for (name, unit, v) in trace::derive(data) {
                println!("{name:<26} = {v:.4} {unit}");
                metric(&mut metrics, name, v, unit);
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
