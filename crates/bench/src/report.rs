//! The one timer and the one report writer every bench uses.
//!
//! [`time`] is a warm-up and calibration loop: it grows the iteration
//! count until one sample costs about 20 ms, takes [`SAMPLES`] samples,
//! prints one line and returns their [`Sample`]. A bench that commits its
//! numbers collects them into a [`Report`], which writes
//! `BENCH_<bench>.json` at the repo root with the host, the repeat count
//! and, beside every timed metric `k`, a `k_range` of `[min, max]` over the
//! repeats, so `k` itself stays a plain number for the tools that read it.
//!
//! No outlier classification or regression analysis: the numbers are for
//! comparisons on one host. The repeats run back to back, so a range is
//! the spread within one run; separate runs can land outside it.

use std::fmt::Debug;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock time per measurement sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);
/// Warm-up budget per timed row.
const WARMUP_TARGET: Duration = Duration::from_millis(50);
/// Samples per timed row.
pub const SAMPLES: usize = 20;

/// True when the bench binary was invoked with `--smoke`: run each
/// benchmark for a single short iteration, only proving it still compiles
/// and executes (CI's bench-smoke job). Numbers printed in smoke mode are
/// meaningless.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// One metric over several repeats.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The upper median: `xs[len / 2]` of the sorted repeats.
    pub median: f64,
    /// The smallest repeat.
    pub min: f64,
    /// The largest repeat.
    pub max: f64,
}

impl Sample {
    /// The sample of `repeats`.
    ///
    /// # Panics
    ///
    /// If `repeats` is empty.
    pub fn of(repeats: impl IntoIterator<Item = f64>) -> Self {
        let mut xs: Vec<f64> = repeats.into_iter().collect();
        assert!(!xs.is_empty(), "a sample needs at least one repeat");
        xs.sort_by(f64::total_cmp);
        Self {
            median: xs[xs.len() / 2],
            min: xs[0],
            max: xs[xs.len() - 1],
        }
    }

    /// Every field times `k` (ns per iteration → ns per hop, say).
    pub fn scale(self, k: f64) -> Self {
        Self {
            median: self.median * k,
            min: self.min * k,
            max: self.max * k,
        }
    }
}

/// Times `routine` and prints one line: [`SAMPLES`] samples (one in
/// smoke mode) of a calibrated iteration count, in ns per iteration.
pub fn time<O>(label: &str, mut routine: impl FnMut() -> O) -> Sample {
    measure(label, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        start.elapsed()
    })
}

/// [`time`] with an untimed `setup` before every iteration.
pub fn time_with_setup<I, O>(
    label: &str,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> Sample {
    measure(label, |iters| {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        total
    })
}

/// Calibrates, samples and prints; `run(iters)` returns the time the
/// iterations took.
fn measure(label: &str, mut run: impl FnMut(u64) -> Duration) -> Sample {
    let smoke = smoke_mode();
    let samples = if smoke { 1 } else { SAMPLES };
    // Grow the iteration count until one sample costs at least
    // SAMPLE_TARGET (or the warm-up budget runs out). Smoke mode skips
    // calibration: one iteration, one sample.
    let mut iters: u64 = 1;
    if !smoke {
        let warmup_start = Instant::now();
        loop {
            let elapsed = run(iters);
            if elapsed >= SAMPLE_TARGET || warmup_start.elapsed() >= WARMUP_TARGET {
                break;
            }
            // Aim directly for the target based on the cost observed so far.
            let per = elapsed.as_nanos().max(1) as u64 / iters;
            iters = (SAMPLE_TARGET.as_nanos() as u64 / per.max(1)).clamp(iters * 2, iters * 100);
        }
    }
    let s = Sample::of((0..samples).map(|_| run(iters).as_nanos() as f64 / iters as f64));
    println!(
        "bench {label:<48} {:>12.1} ns/iter (min {:.1}, max {:.1}, {iters} iters x {samples} samples)",
        s.median, s.min, s.max,
    );
    s
}

/// The JSON fields of one object, rendered in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Fields(Vec<(String, String)>);

impl Fields {
    fn raw(mut self, key: &str, value: String) -> Self {
        self.0.push((key.to_owned(), value));
        self
    }

    /// A string field (Rust's debug quoting, which is JSON's for
    /// printable text).
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, format!("{value:?}"))
    }

    /// An integer field.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// A number with `decimals` places (`null` when not finite).
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Self {
        self.raw(key, number(value, decimals))
    }

    /// A timed metric: `key` is the median, `<key>_range` is `[min, max]`.
    pub fn sample(self, key: &str, s: Sample, decimals: usize) -> Self {
        let range = format!("[{}, {}]", number(s.min, decimals), number(s.max, decimals));
        self.num(key, s.median, decimals)
            .raw(&format!("{key}_range"), range)
    }

    /// An array of integers or strings on one line.
    pub fn list(self, key: &str, values: &[impl Debug]) -> Self {
        self.raw(key, format!("{values:?}"))
    }

    /// A nested object on one line.
    pub fn obj(self, key: &str, value: Fields) -> Self {
        self.raw(key, format!("{{ {} }}", value.join(", ")))
    }

    /// An array of objects, one per line.
    pub fn rows(self, key: &str, rows: Vec<Fields>) -> Self {
        let lines: Vec<String> = rows
            .iter()
            .map(|r| format!("{{ {} }}", r.join(", ")))
            .collect();
        self.raw(key, format!("[\n    {}\n  ]", lines.join(",\n    ")))
    }

    /// The `"key": value` pairs joined by `sep`.
    fn join(&self, sep: &str) -> String {
        let pairs: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        pairs.join(sep)
    }
}

fn number(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "null".to_owned()
    }
}

/// The first line a command prints, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A bench's committed measurement: `BENCH_<bench>.json` holds the bench
/// name, the host, the repeat count and then `body`'s fields.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    /// `cores`, `rustc` and `git_rev`.
    host: Fields,
    repeats: usize,
    body: Fields,
}

impl Report {
    /// A report on this host.
    pub fn new(bench: &'static str, repeats: usize, body: Fields) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let git_rev = command_line("git", &["describe", "--always", "--dirty"]);
        let host = Fields::default()
            .int("cores", cores as u64)
            .str("rustc", &command_line("rustc", &["--version"]))
            .str("git_rev", &git_rev);
        Self {
            bench,
            host,
            repeats,
            body,
        }
    }

    /// The file's text.
    pub fn render(&self) -> String {
        let mut all = Fields::default()
            .str("bench", self.bench)
            .obj("host", self.host.clone())
            .int("repeats", self.repeats as u64);
        all.0.extend(self.body.0.iter().cloned());
        format!("{{\n  {}\n}}\n", all.join(",\n  "))
    }

    /// Writes `BENCH_<bench>.json` at the repo root; a smoke run writes
    /// nothing.
    pub fn write(&self) {
        if smoke_mode() {
            println!("{}: smoke run complete (no artifact written)", self.bench);
            return;
        }
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{}.json", self.bench));
        match std::fs::write(&out, self.render()) {
            Ok(()) => println!("wrote {}", out.display()),
            Err(e) => eprintln!("could not write {}: {e}", out.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_takes_the_upper_median_and_the_extremes() {
        let odd = Sample::of([5.0, 1.0, 3.0]);
        assert_eq!((odd.median, odd.min, odd.max), (3.0, 1.0, 5.0));
        let even = Sample::of([4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.median, even.min, even.max), (3.0, 1.0, 4.0));
    }

    #[test]
    fn report_renders_plain_and_ranged_fields() {
        let body = Fields::default()
            .str("unit", "ns_per_hop")
            .int("n", 1000)
            .sample("ns_per_hop", Sample::of([2.25, 2.5, f64::INFINITY]), 2)
            .list("threads", &[1, 2])
            .rows("rows", vec![Fields::default().str("backend", "epoch")]);
        let host = Fields::default()
            .int("cores", 2)
            .str("rustc", "rustc 1.0.0")
            .str("git_rev", "abc1234-dirty");
        let report = Report {
            bench: "selftest",
            host,
            repeats: 3,
            body,
        };
        assert_eq!(
            report.render(),
            "{\n  \"bench\": \"selftest\",\n  \
             \"host\": { \"cores\": 2, \"rustc\": \"rustc 1.0.0\", \"git_rev\": \"abc1234-dirty\" },\n  \
             \"repeats\": 3,\n  \"unit\": \"ns_per_hop\",\n  \"n\": 1000,\n  \
             \"ns_per_hop\": 2.50,\n  \"ns_per_hop_range\": [2.25, null],\n  \
             \"threads\": [1, 2],\n  \"rows\": [\n    { \"backend\": \"epoch\" }\n  ]\n}\n"
        );
    }

    #[test]
    fn timer_returns_a_finite_positive_median() {
        let s = time("report_selftest", || black_box(3u64).wrapping_add(4));
        assert!(s.median.is_finite() && s.median > 0.0, "median {s:?}");
        assert!(s.min <= s.median && s.median <= s.max, "{s:?}");
    }
}
