//! The `kv_service` workload: `Server<Epoch>` with one shard (one worker
//! thread) and one closed-loop driver on the main thread — two threads in
//! total. The driver keeps exactly one request in flight: it submits
//! through the public `Server::submit` with its own reply channel and
//! waits for the reply before drawing the next operation.

use std::time::{Duration, Instant};

use valois_core::channel::{channel, Receiver, Sender, TryRecvError};
use valois_core::Epoch;
use valois_dict::Dictionary;
use valois_harness::KeyDist;
use valois_server::{Op, Outcome as Reply, Request, Response, Server, ServiceConfig, ServiceMix};
use valois_sync::rng::SmallRng;

use crate::dictload::{value_of, walk_list, walk_rung};
use crate::driver::{closed_loop, PhaseRun};
use crate::stats::{median, WindowStats};
use crate::trace::{Counters, SpanKind, TraceData};
use crate::{timed_setups, Args, Outcome, Phases};

/// Zipf keys over this range (`KeyDist::Zipf`, density ∝ 1/(k+1)).
const KEY_RANGE: u64 = 1_000_000;
/// Keys `0..PREFILL` are present before the run: they take ~90% of the
/// Zipf draws, so the live-key count drifts only a few percent per run.
const PREFILL: u64 = 1 << 18;
const SCAN_LEN: u32 = 16;

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        commit_group: 0,
        ..ServiceConfig::default()
    }
}

fn counters(server: &Server<Epoch>) -> Counters {
    let list = server.shards()[0].dict.list_stats();
    Counters {
        mem: server.mem_stats(),
        list,
        retries: list.resumes,
    }
}

/// The closed-loop driver: its seeded operation stream and running
/// tallies.
struct Driver {
    rng: SmallRng,
    mix: ServiceMix,
    keys: KeyDist,
    conn: u64,
    seq: u64,
    /// The driver's reply channel: every request carries a clone of `tx`.
    tx: Sender<Response>,
    rx: Receiver<Response>,
    ops: u64,
    inserted: u64,
    removed: u64,
    failed: u64,
}

/// How one phase delivers an operation to the service.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    /// `Server::submit` and wait for the reply (the served request).
    RoundTrip,
    /// `Shard::serve` called directly on the driver thread (the server
    /// layer's own cost, without the channel hops).
    Serve,
}

fn serve_span(op: &Op) -> SpanKind {
    match op {
        Op::Get(_) => SpanKind::ServeGet,
        Op::Put(..) => SpanKind::ServePut,
        Op::Del(_) => SpanKind::ServeDel,
        Op::Scan { .. } => SpanKind::ServeScan,
    }
}

impl Driver {
    /// Checks one reply against its operation and folds it into the
    /// tallies. Returns whether it passed.
    fn check(&mut self, op: &Op, reply: Reply) -> bool {
        match (*op, reply) {
            (Op::Get(k), Reply::Value(v)) => v.is_none_or(|v| v == value_of(k)),
            (Op::Put(..), Reply::Inserted(ins)) => {
                self.inserted += ins as u64;
                true
            }
            (Op::Del(_), Reply::Deleted(del)) => {
                self.removed += del as u64;
                true
            }
            (Op::Scan { len, .. }, Reply::Scanned(hits)) => hits <= len,
            // `Overloaded` is an error reply; anything else is a reply of
            // the wrong kind.
            _ => false,
        }
    }

    fn run_phase(
        &mut self,
        server: &Server<Epoch>,
        path: Path,
        dur: Duration,
        trace: Option<Instant>,
        expect: usize,
    ) -> PhaseRun {
        let shard = &server.shards()[0];
        let run = closed_loop(dur, trace, expect, || {
            let op = self.mix.sample(&mut self.rng, &self.keys, SCAN_LEN);
            self.seq += 1;
            let t0 = Instant::now();
            let (reply, span) = match path {
                Path::Serve => (Some(shard.serve(&op)), serve_span(&op)),
                Path::RoundTrip => {
                    let sent = server.submit(Request {
                        conn: self.conn,
                        seq: self.seq,
                        op,
                        issued: t0,
                        reply: self.tx.clone(),
                    });
                    // The one outstanding request: its reply must carry its
                    // connection and sequence number.
                    let reply = sent.ok().and_then(|()| self.rx.recv()).and_then(|r| {
                        (r.conn == self.conn && r.seq == self.seq).then_some(r.outcome)
                    });
                    (reply, SpanKind::ServerRequest)
                }
            };
            let t1 = Instant::now();
            let ok = reply.is_some_and(|r| self.check(&op, r));
            self.failed += !ok as u64;
            (t0, t1, span)
        });
        self.ops += run.ops;
        run
    }
}

/// Starts the service and loads the prefill straight into the shard's
/// dictionary (not through the channel).
fn setup(prefill: &[u64]) -> Server<Epoch> {
    let server = Server::<Epoch>::start(&config());
    let dict = &server.shards()[0].dict;
    for &k in prefill {
        assert!(dict.insert(k, value_of(k)), "prefill keys are distinct");
    }
    server
}

pub fn run(args: &Args, phases: &Phases) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let mut prefill: Vec<u64> = (0..PREFILL).collect();
    rng.shuffle(&mut prefill);

    // All set-ups come before the window: a second live server would add
    // a third thread.
    let (server, mut setup_times) = timed_setups(phases.setup_reps, || setup(&prefill));
    let setup_s = median(&mut setup_times);

    let (tx, rx) = channel::<Response>();
    let mut driver = Driver {
        rng: SmallRng::seed_from_u64(args.seed ^ 0x9E37_79B9_7F4A_7C15),
        mix: ServiceMix::read_mostly(),
        keys: KeyDist::Zipf { range: KEY_RANGE },
        conn: server.new_conn(),
        seq: 0,
        tx,
        rx,
        ops: 0,
        inserted: 0,
        removed: 0,
        failed: 0,
    };
    driver.run_phase(&server, Path::RoundTrip, phases.warmup, None, 0);
    let expect = (phases.window.as_secs_f64() * 300_000.0) as usize;
    let timed = driver.run_phase(&server, Path::RoundTrip, phases.window, None, expect);
    let window = WindowStats::of(&[timed.samples]);
    let nodes_per_key = server.mem_stats().live_nodes() as f64 / (server.len() as f64).max(1.0);

    let trace = phases.traced.map(|traced| {
        let epoch = Instant::now();
        let before = counters(&server);
        let expect = (traced.as_secs_f64() * 300_000.0) as usize;
        let rt = driver.run_phase(&server, Path::RoundTrip, traced, Some(epoch), expect);
        let delta = counters(&server).since(&before);
        let serve = driver.run_phase(&server, Path::Serve, phases.serve, Some(epoch), 1 << 20);
        let list = server.shards()[0].dict.as_list();
        let walks = walk_rung(epoch, phases.walk, || Some(walk_list(list)));
        TraceData {
            logs: vec![rt.spans, serve.spans, walks],
            delta,
            traced_ops: rt.ops,
            traced_ops_per_s: WindowStats::of(&[rt.samples]).ops_per_s,
            untraced_ops_per_s: window.ops_per_s,
        }
    });

    // Every reply matched its one outstanding request; nothing else may
    // arrive once the driver hangs up.
    drop(driver.tx);
    let stray = std::iter::from_fn(|| driver.rx.try_recv().ok()).count();
    let drained = matches!(driver.rx.try_recv(), Err(TryRecvError::Disconnected));
    let mut checks = vec![(
        "replies: one per request, matching conn and seq",
        if stray == 0 && drained {
            Ok(())
        } else {
            Err(format!("{stray} unmatched replies"))
        },
    )];

    let mut dicts = server.shutdown();
    let len: u64 = dicts.iter().map(|d| d.len() as u64).sum();
    let expected_len = PREFILL + driver.inserted - driver.removed;
    checks.push((
        "conservation: prefill + inserts - removes == len",
        if expected_len == len {
            Ok(())
        } else {
            Err(format!("expected {expected_len}, len() = {len}"))
        },
    ));
    checks.push((
        "shutdown dicts: check_invariants + audit_refcounts",
        dicts
            .iter_mut()
            .try_for_each(|d| d.check_invariants().and_then(|()| d.audit_refcounts())),
    ));

    Outcome {
        attempted: driver.ops,
        failed: driver.failed,
        checks,
        window,
        nodes_per_key,
        setup_s,
        trace,
    }
}
