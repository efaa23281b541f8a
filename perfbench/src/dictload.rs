//! The two dictionary workloads: `list_walk` (`SortedListDict`, the
//! paper's refcount reclaimer, read-mostly) and `skip_churn`
//! (`SkipListDict`, write-heavy). Two driver threads — the main thread
//! and one spawned thread — run a closed loop each: the next operation is
//! issued only after the previous call returned, so one request per
//! thread is in flight.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use valois_core::{List, ListStats, Reclaimer};
use valois_dict::{Dictionary, SkipListDict, SortedListDict};
use valois_harness::{OpKind, OpMix};
use valois_sync::rng::SmallRng;

use crate::driver::{closed_loop, PhaseRun};
use crate::stats::{median, WindowStats};
use crate::trace::{Counters, Span, SpanKind, SpanLog, TraceData};
use crate::{timed_setups, Args, Outcome, Phases, DRIVER_THREADS};

/// The shape of one dictionary workload.
#[derive(Debug, Clone, Copy)]
pub struct DictSpec {
    /// Live keys after prefill.
    pub live: u64,
    /// Keys are drawn uniformly from `0..range`.
    pub range: u64,
    pub mix: (u8, u8, u8),
}

pub const LIST_WALK: DictSpec = DictSpec {
    live: 1024,
    range: 2048,
    mix: (90, 5, 5),
};

pub const SKIP_CHURN: DictSpec = DictSpec {
    live: 8192,
    range: 16_384,
    mix: (20, 40, 40),
};

/// What the benchmark needs from a dictionary beyond [`Dictionary`]: its
/// public counters, its quiescent audits, and (when it exposes its list)
/// the cursor-walk rung.
pub trait Subject: Dictionary<u64, u64> + Default {
    fn counters(&self) -> Counters;
    /// Structural check plus the exact refcount audit where one exists.
    fn audit(&mut self) -> Result<(), String>;
    /// One timed single-thread cursor walk: `(hops, start, end)`, or `None`
    /// when the structure has no public list.
    fn walk(&self) -> Option<(u64, Instant, Instant)>;
}

impl Subject for SortedListDict<u64, u64> {
    fn counters(&self) -> Counters {
        let list = self.list_stats();
        Counters {
            mem: self.mem_stats(),
            list,
            retries: list.resumes,
        }
    }

    fn audit(&mut self) -> Result<(), String> {
        self.check_invariants()?;
        self.audit_refcounts()
    }

    fn walk(&self) -> Option<(u64, Instant, Instant)> {
        Some(walk_list(self.as_list()))
    }
}

impl Subject for SkipListDict<u64, u64> {
    fn counters(&self) -> Counters {
        Counters {
            mem: self.mem_stats(),
            list: ListStats::default(),
            retries: self.retry_count(),
        }
    }

    fn audit(&mut self) -> Result<(), String> {
        self.check_invariants()
    }

    fn walk(&self) -> Option<(u64, Instant, Instant)> {
        None
    }
}

/// The value stored under `key` (checked on every find).
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(3)
}

/// One driver thread's closed-loop state, carried across phases so its
/// operation stream is one seeded sequence.
struct Driver {
    rng: SmallRng,
    ops: u64,
    inserted: u64,
    removed: u64,
    failed: u64,
}

impl Driver {
    fn run_phase<D: Subject>(
        &mut self,
        dict: &D,
        mix: &OpMix,
        range: u64,
        dur: Duration,
        trace: Option<Instant>,
        expect: usize,
    ) -> PhaseRun {
        let run = closed_loop(dur, trace, expect, || {
            let kind = mix.sample(&mut self.rng);
            let key = self.rng.gen_range(0..range);
            let t0 = Instant::now();
            let (ok, span) = match kind {
                OpKind::Find => (
                    dict.find(&key).is_none_or(|v| v == value_of(key)),
                    SpanKind::DictFind,
                ),
                OpKind::Insert => {
                    self.inserted += dict.insert(key, value_of(key)) as u64;
                    (true, SpanKind::DictInsert)
                }
                OpKind::Delete => {
                    self.removed += dict.remove(&key) as u64;
                    (true, SpanKind::DictRemove)
                }
            };
            let t1 = Instant::now();
            self.failed += !ok as u64;
            (t0, t1, span)
        });
        self.ops += run.ops;
        run
    }
}

/// Runs one phase on every driver thread (main + one spawned) and merges
/// the results.
fn phase<D: Subject>(
    dict: &D,
    drivers: &mut [Driver],
    spec: &DictSpec,
    dur: Duration,
    trace: Option<Instant>,
    expect_per_thread: usize,
) -> (u64, WindowStats, Vec<Vec<Span>>) {
    let mix = OpMix::new(spec.mix.0, spec.mix.1, spec.mix.2);
    let barrier = Barrier::new(drivers.len());
    let runs: Vec<PhaseRun> = std::thread::scope(|s| {
        let (first, rest) = drivers.split_first_mut().expect("at least one driver");
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|d| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    d.run_phase(dict, &mix, spec.range, dur, trace, expect_per_thread)
                })
            })
            .collect();
        barrier.wait();
        let mut runs = vec![first.run_phase(dict, &mix, spec.range, dur, trace, expect_per_thread)];
        runs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked")),
        );
        runs
    });
    let ops: u64 = runs.iter().map(|r| r.ops).sum();
    let (samplers, spans): (Vec<_>, Vec<_>) =
        runs.into_iter().map(|r| (r.samples, r.spans)).unzip();
    (ops, WindowStats::of(&samplers), spans)
}

/// Builds the dictionary and inserts the prefill keys.
fn setup<D: Subject>(prefill: &[u64]) -> D {
    let dict = D::default();
    for &k in prefill {
        assert!(dict.insert(k, value_of(k)), "prefill keys are distinct");
    }
    dict
}

pub fn run<D: Subject>(args: &Args, spec: &DictSpec, phases: &Phases) -> Outcome {
    // Inputs come only from the seed: the prefill set, then one operation
    // stream per driver thread.
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let mut keys: Vec<u64> = (0..spec.range).collect();
    rng.shuffle(&mut keys);
    keys.truncate(spec.live as usize);

    // Set-up is timed `setup_reps` times before the window and as many
    // times after it, so `setup_s` samples the host at both ends of the run.
    let (mut dict, mut setup_times) = timed_setups(phases.setup_reps, || setup::<D>(&keys));

    let mut drivers: Vec<Driver> = (0..DRIVER_THREADS)
        .map(|t| Driver {
            rng: SmallRng::seed_from_u64(
                args.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            ops: 0,
            inserted: 0,
            removed: 0,
            failed: 0,
        })
        .collect();

    phase(&dict, &mut drivers, spec, phases.warmup, None, 0);
    let expect = (phases.window.as_secs_f64() * 50_000.0) as usize;
    let (_, window, _) = phase(&dict, &mut drivers, spec, phases.window, None, expect);
    let mem = dict.counters().mem;
    let live = dict.len() as f64;
    let nodes_per_key = mem.live_nodes() as f64 / live.max(1.0);
    setup_times.extend(timed_setups(phases.setup_reps, || setup::<D>(&keys)).1);
    let setup_s = median(&mut setup_times);

    let trace = phases.traced.map(|traced| {
        let epoch = Instant::now();
        let before = dict.counters();
        let expect = (traced.as_secs_f64() * 50_000.0) as usize;
        let (traced_ops, traced_window, mut logs) =
            phase(&dict, &mut drivers, spec, traced, Some(epoch), expect);
        let delta = dict.counters().since(&before);
        logs.push(walk_rung(epoch, phases.walk, || dict.walk()));
        TraceData {
            logs,
            delta,
            traced_ops,
            traced_ops_per_s: traced_window.ops_per_s,
            untraced_ops_per_s: window.ops_per_s,
        }
    });

    let mut checks = Vec::new();
    let (inserted, removed): (u64, u64) = drivers
        .iter()
        .fold((0, 0), |(i, r), d| (i + d.inserted, r + d.removed));
    let expected_len = spec.live + inserted - removed;
    let len = dict.len() as u64;
    checks.push((
        "conservation: prefill + inserts - removes == len",
        if expected_len == len {
            Ok(())
        } else {
            Err(format!("expected {expected_len}, len() = {len}"))
        },
    ));
    checks.push(("check_invariants + audit_refcounts", dict.audit()));

    Outcome {
        attempted: drivers.iter().map(|d| d.ops).sum(),
        failed: drivers.iter().map(|d| d.failed).sum(),
        checks,
        window,
        nodes_per_key,
        setup_s,
        trace,
    }
}

/// One full single-thread `Cursor::next` walk of `list`: `(hops, start,
/// end)`.
pub fn walk_list<T: Send + Sync, R: Reclaimer>(list: &List<T, R>) -> (u64, Instant, Instant) {
    let start = Instant::now();
    let mut cursor = list.cursor();
    let mut hops = 0u64;
    while cursor.next() {
        hops += 1;
    }
    drop(std::hint::black_box(cursor));
    (hops, start, Instant::now())
}

/// The `core.hop_ns` rung: repeated single-thread cursor walks over the
/// workload's own list after the window, one `core.walk` span each, for
/// about `budget`.
pub fn walk_rung(
    epoch: Instant,
    budget: Duration,
    walk: impl Fn() -> Option<(u64, Instant, Instant)>,
) -> Vec<Span> {
    let mut log = SpanLog::new(epoch, 1024);
    let start = Instant::now();
    let w = log.open_window(start);
    let mut walks = 0;
    while let Some((hops, t0, t1)) = walk() {
        log.record(SpanKind::CoreWalk, w, t0, t1, hops);
        walks += 1;
        if t1.duration_since(start) >= budget {
            break;
        }
    }
    log.close(w, Instant::now(), walks);
    log.spans
}
