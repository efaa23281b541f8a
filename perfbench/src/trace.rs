//! In-memory spans for the traced run, and the per-layer metrics derived
//! from them and from the crates' public counters.
//!
//! A span wraps one call from the benchmark into a layer's public
//! function: a dict operation by kind, a server round trip (submit →
//! reply), a direct `Shard::serve`, or one cursor walk of the hop rung.
//! Each thread keeps its spans in a `Vec` and opens one `window` span per
//! timed phase as the parent of every span in it. Nothing is written
//! while the clock runs; [`write_out`] dumps every span and the counter
//! deltas after the run, and [`derive`] computes the reported metrics
//! from exactly that data.
//!
//! The span file (`<workload>.spans.tsv`) has one header line and then
//! one line per span: `log id parent name start_ns end_ns`, tab
//! separated, times relative to the process's trace epoch, `parent` = `-`
//! for a root.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use valois_core::{ListStats, MemStats};

use crate::stats::{quantile, Quantiles};

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One timed phase of one driver thread (root of its phase's spans).
    Window,
    DictFind,
    DictInsert,
    DictRemove,
    /// `Server::submit` → reply received on the driver's channel.
    ServerRequest,
    /// Direct `Shard::serve` calls, by op kind.
    ServeGet,
    ServePut,
    ServeDel,
    ServeScan,
    /// One full `Cursor::next` walk of the workload's list.
    CoreWalk,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Window => "bench.window",
            SpanKind::DictFind => "dict.find",
            SpanKind::DictInsert => "dict.insert",
            SpanKind::DictRemove => "dict.remove",
            SpanKind::ServerRequest => "server.request",
            SpanKind::ServeGet => "server.serve.get",
            SpanKind::ServePut => "server.serve.put",
            SpanKind::ServeDel => "server.serve.del",
            SpanKind::ServeScan => "server.serve.scan",
            SpanKind::CoreWalk => "core.walk",
        }
    }

    fn is_serve(self) -> bool {
        matches!(
            self,
            SpanKind::ServeGet | SpanKind::ServePut | SpanKind::ServeDel | SpanKind::ServeScan
        )
    }
}

/// One recorded span. `parent` indexes the same thread's log.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units inside the span (cursor hops for `core.walk`, else 1).
    pub units: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans, timed against a shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a root `window` span; close it with [`SpanLog::close`].
    pub fn open_window(&mut self, start: Instant) -> u32 {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            kind: SpanKind::Window,
            parent: None,
            start_ns,
            end_ns: start_ns,
            units: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32, end: Instant, units: u64) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.units = units;
    }

    pub fn record(
        &mut self,
        kind: SpanKind,
        parent: u32,
        start: Instant,
        end: Instant,
        units: u64,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            kind,
            parent: Some(parent),
            start_ns,
            end_ns,
            units,
        });
    }
}

/// Public-counter readings of one workload's structure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub mem: MemStats,
    /// Zero where the structure exposes no `ListStats` (the skip list).
    pub list: ListStats,
    /// Dictionary-level retries: `SkipListDict::retry_count`, or
    /// `ListStats.resumes` for the list-backed dictionaries.
    pub retries: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            mem: self.mem.since(&earlier.mem),
            list: self.list.since(&earlier.list),
            retries: self.retries.saturating_sub(earlier.retries),
        }
    }
}

/// Everything one traced run measured: every span log, the counter
/// deltas over the traced window, and the throughput of the untraced and
/// traced windows.
#[derive(Debug, Default)]
pub struct TraceData {
    pub logs: Vec<Vec<Span>>,
    pub delta: Counters,
    /// Operations completed in the traced window (the per-op base).
    pub traced_ops: u64,
    pub traced_ops_per_s: f64,
    pub untraced_ops_per_s: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nanosecond durations of every span matching `pick`, sorted.
fn durations(data: &TraceData, pick: impl Fn(SpanKind) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = data
        .logs
        .iter()
        .flatten()
        .filter(|s| pick(s.kind))
        .map(Span::dur_ns)
        .collect();
    v.sort_unstable();
    v
}

fn p_us(sorted_ns: &[u64], q: f64) -> f64 {
    quantile(sorted_ns, q).unwrap_or(0) as f64 / 1e3
}

/// Derives every per-layer metric from the recorded spans and counter
/// deltas, as `(name, unit, value)` in the order `BENCHMARK.json` lists
/// them. A metric whose layer the workload does not reach reads 0.
pub fn derive(data: &TraceData) -> Vec<(&'static str, &'static str, f64)> {
    let d = &data.delta;
    let ops = data.traced_ops;
    let per_op = |n: u64| ratio(n, ops);
    let attempts = d.list.insert_attempts + d.list.delete_attempts;
    let successes = d.list.insert_successes + d.list.delete_successes;

    // Dict op latencies: the dict workloads' own spans; on the service the
    // direct `Shard::serve` spans, whose get/put/del arms are one call each
    // into `ResizableHashDict::{find, try_insert, remove}`.
    let find = durations(data, |k| {
        matches!(k, SpanKind::DictFind | SpanKind::ServeGet)
    });
    let insert = durations(data, |k| {
        matches!(k, SpanKind::DictInsert | SpanKind::ServePut)
    });
    let remove = durations(data, |k| {
        matches!(k, SpanKind::DictRemove | SpanKind::ServeDel)
    });
    let serve = durations(data, SpanKind::is_serve);
    let request = durations(data, |k| k == SpanKind::ServerRequest);
    let serve_p50 = p_us(&serve, 0.5);
    let hop_p50 = if request.is_empty() {
        0.0
    } else {
        p_us(&request, 0.5) - serve_p50
    };

    // Hop rung: median per-walk ns/hop.
    let mut walks: Vec<f64> = data
        .logs
        .iter()
        .flatten()
        .filter(|s| s.kind == SpanKind::CoreWalk && s.units > 0)
        .map(|s| s.dur_ns() as f64 / s.units as f64)
        .collect();
    let hop_ns = if walks.is_empty() {
        0.0
    } else {
        crate::stats::median(&mut walks)
    };

    let cas_fail = if attempts == 0 {
        0.0
    } else {
        1.0 - ratio(successes, attempts)
    };
    let overhead = if data.untraced_ops_per_s > 0.0 {
        100.0 * (data.untraced_ops_per_s - data.traced_ops_per_s) / data.untraced_ops_per_s
    } else {
        0.0
    };

    vec![
        ("mem.safe_reads_per_op", "1/op", per_op(d.mem.safe_reads)),
        ("mem.releases_per_op", "1/op", per_op(d.mem.releases)),
        ("mem.allocs_per_op", "1/op", per_op(d.mem.allocs)),
        ("mem.reclaims_per_op", "1/op", per_op(d.mem.reclaims)),
        (
            "mem.swing_fail_ratio",
            "1",
            ratio(d.mem.swing_failures, d.mem.swings),
        ),
        (
            "mem.safe_read_retry_ratio",
            "1",
            ratio(d.mem.safe_read_retries, d.mem.safe_reads),
        ),
        ("mem.epoch_pins_per_op", "1/op", per_op(d.mem.epoch_pins)),
        (
            "mem.epoch_limbo_depth",
            "nodes",
            d.mem.epoch_limbo_depth as f64,
        ),
        ("core.hops_per_op", "1/op", per_op(d.list.next_steps)),
        (
            "core.aux_skipped_per_op",
            "1/op",
            per_op(d.list.aux_skipped),
        ),
        (
            "core.resume_hops_per_op",
            "1/op",
            per_op(d.list.resume_hops),
        ),
        ("core.cas_fail_ratio", "1", cas_fail),
        ("core.hop_ns", "ns", hop_ns),
        ("dict.find_p50_us", "us", p_us(&find, 0.5)),
        ("dict.insert_p50_us", "us", p_us(&insert, 0.5)),
        ("dict.remove_p50_us", "us", p_us(&remove, 0.5)),
        ("dict.remove_p99_us", "us", p_us(&remove, 0.99)),
        ("dict.retries_per_op", "1/op", per_op(d.retries)),
        ("server.serve_p50_us", "us", serve_p50),
        ("server.hop_p50_us", "us", hop_p50),
        ("bench.trace_overhead_pct", "%", overhead),
    ]
}

/// Writes every span and the counter deltas under `dir` as
/// `<workload>.spans.tsv` and `<workload>.counters.txt`, then prints a
/// per-span-name summary (count, p50, self time) to stdout.
pub fn write_out(dir: &Path, workload: &str, data: &TraceData) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{workload}.spans.tsv")),
    )?);
    writeln!(out, "log\tid\tparent\tname\tstart_ns\tend_ns\tunits")?;
    for (log, spans) in data.logs.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) => write!(out, "{log}\t{i}\t{p}\t")?,
                None => write!(out, "{log}\t{i}\t-\t")?,
            }
            writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.units
            )?;
        }
    }
    out.flush()?;

    let mut text = String::new();
    let _ = writeln!(text, "traced_ops\t{}", data.traced_ops);
    let _ = writeln!(text, "traced_ops_per_s\t{}", data.traced_ops_per_s);
    let _ = writeln!(text, "untraced_ops_per_s\t{}", data.untraced_ops_per_s);
    let _ = writeln!(text, "mem_delta\t{:?}", data.delta.mem);
    let _ = writeln!(text, "list_delta\t{:?}", data.delta.list);
    let _ = writeln!(text, "dict_retries_delta\t{}", data.delta.retries);
    std::fs::write(dir.join(format!("{workload}.counters.txt")), text)?;

    // Self time of each window = its duration minus its children's.
    let mut by_name: BTreeMap<&str, (u64, Vec<u64>)> = BTreeMap::new();
    for spans in &data.logs {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let entry = by_name.entry(s.kind.name()).or_default();
            entry.0 += s.dur_ns().saturating_sub(child);
            entry.1.push(s.dur_ns());
        }
    }
    for (name, (self_ns, mut durs)) in by_name {
        let q = Quantiles::of(&mut durs);
        println!(
            "span {name:<18} n={:<9} p50={:>10.3} us  p99={:>10.3} us  self={:.3} s",
            q.count,
            q.p50_us,
            q.p99_us,
            self_ns as f64 / 1e9
        );
    }
    Ok(())
}
