//! The E10 bench: fixed-size `HashDict::with_buckets(16)` against the
//! split-ordered `ResizableHashDict` under growing key ranges.
//!
//! Two phases per size:
//!
//! 1. **fill** — `run_fill` inserts the keys `0..n` from disjoint strided
//!    shards. This is the workload a fixed bucket count cannot amortize
//!    (chains grow to n/16) and the one the resizable table absorbs by
//!    doubling its bucket count, never moving an item.
//! 2. **mix** — the balanced find/insert/delete mix over the filled
//!    table, where the fixed table pays O(n/16) per lookup and the
//!    resizable table keeps expected-O(1) buckets.
//!
//! Each repeat fills a fresh pair of tables and runs the mix on them;
//! `BENCH_resize.json` at the repo root records each rate as the median
//! of the repeats with its range, so the fixed-vs-resizable ratio is
//! machine-checkable.
//!
//! `--smoke` (CI): one tiny size, no JSON artifact — proves the harness
//! end to end without measuring anything.

use std::time::Duration;

use valois_bench::report::{smoke_mode, Fields, Report, Sample};
use valois_dict::{HashDict, ResizableHashDict};
use valois_harness::{run_fill, run_throughput, RunConfig, WorkloadSpec};

fn main() {
    let smoke = smoke_mode();
    let sizes: &[u64] = if smoke {
        &[512]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let repeats = if smoke { 1 } else { 3 };
    let mix_window = Duration::from_millis(if smoke { 10 } else { 200 });
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);

    let mut sizes_json = Vec::new();
    // (n, fill speedup, mix speedup) of the largest size.
    let mut head = (0, 0.0, 0.0);
    for &n in sizes {
        let mut spec = WorkloadSpec::standard(n);
        spec.prefill = 0; // both tables already hold 0..n
        let run = RunConfig {
            threads,
            duration: mix_window,
            workload: spec,
            op_delay: None,
            measure_latency: false,
        };
        // [fixed fill, resizable fill, fixed mix, resizable mix] per
        // repeat. A fill is one-shot (it is exactly the growth phase), so
        // each repeat needs fresh tables.
        let mut rates: Vec<[f64; 4]> = Vec::new();
        let (mut buckets, mut doublings) = (0, 0);
        for _ in 0..repeats {
            let fixed: HashDict<u64, u64> = HashDict::with_buckets(16);
            let fixed_fill = run_fill(&fixed, n, threads).inserts_per_sec();
            let resz: ResizableHashDict<u64, u64> = ResizableHashDict::new();
            let resz_fill = run_fill(&resz, n, threads).inserts_per_sec();
            let fixed_mix = run_throughput(&fixed, &run).ops_per_sec();
            let resz_mix = run_throughput(&resz, &run).ops_per_sec();
            rates.push([fixed_fill, resz_fill, fixed_mix, resz_mix]);
            (buckets, doublings) = (resz.bucket_count(), resz.doublings());
        }
        let [fixed_fill, resz_fill, fixed_mix, resz_mix] =
            [0, 1, 2, 3].map(|i| Sample::of(rates.iter().map(|r| r[i])));
        let fill_speedup = resz_fill.median / fixed_fill.median.max(1.0);
        let mix_speedup = resz_mix.median / fixed_mix.median.max(1.0);
        println!(
            "resize/{n}: fill {:.0}/s vs {:.0}/s ({fill_speedup:.2}x), mix {:.0}/s vs {:.0}/s \
             ({mix_speedup:.2}x), {buckets} buckets after {doublings} doublings",
            fixed_fill.median, resz_fill.median, fixed_mix.median, resz_mix.median,
        );
        sizes_json.push(
            Fields::default()
                .int("n", n)
                .sample("fixed16_fill_per_sec", fixed_fill, 0)
                .sample("resizable_fill_per_sec", resz_fill, 0)
                .sample("fixed16_mix_ops_per_sec", fixed_mix, 0)
                .sample("resizable_mix_ops_per_sec", resz_mix, 0)
                .int("resizable_buckets", buckets)
                .int("doublings", doublings)
                .num("fill_speedup", fill_speedup, 2)
                .num("mix_speedup", mix_speedup, 2),
        );
        head = (n, fill_speedup, mix_speedup);
    }

    let (n, fill_speedup, mix_speedup) = head;
    println!(
        "\nresize: at {n} keys the resizable table runs {fill_speedup:.2}x the fixed-16 fill \
         rate and {mix_speedup:.2}x its mixed-op throughput",
    );
    let headline = Fields::default()
        .int("n", n)
        .num("fill_speedup", fill_speedup, 2)
        .num("mix_speedup", mix_speedup, 2);
    let body = Fields::default()
        .int("fixed_buckets", 16)
        .int("threads", threads as u64)
        .rows("sizes", sizes_json)
        .obj("headline", headline);
    Report::new("resize", repeats, body).write();
}
