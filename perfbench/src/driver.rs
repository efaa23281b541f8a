//! The closed loop every driver runs for one phase: issue one operation,
//! wait for it to complete, record its latency (and its span when traced),
//! and repeat until the phase's time is up.

use std::time::{Duration, Instant};

use crate::stats::Sampler;
use crate::trace::{Span, SpanKind, SpanLog};

/// What one driver did in one phase.
#[derive(Debug)]
pub struct PhaseRun {
    pub ops: u64,
    pub samples: Sampler,
    pub spans: Vec<Span>,
}

/// Calls `step` back to back for `dur`. Each call issues one operation,
/// waits for it and returns its `(start, end, span kind)`; the next is
/// issued only after it returned, so exactly one operation is in flight.
/// With `trace` (the span epoch), every operation also becomes a span under
/// one `bench.window` span.
pub fn closed_loop(
    dur: Duration,
    trace: Option<Instant>,
    expect: usize,
    mut step: impl FnMut() -> (Instant, Instant, SpanKind),
) -> PhaseRun {
    let mut log = trace.map(|epoch| SpanLog::new(epoch, expect + 1));
    let start = Instant::now();
    let mut samples = Sampler::new(start, dur, expect);
    let window = log.as_mut().map(|l| l.open_window(start));
    let deadline = start + dur;
    let mut ops = 0u64;
    let end = loop {
        let (t0, t1, kind) = step();
        ops += 1;
        samples.push(t0, t1);
        if let (Some(log), Some(w)) = (log.as_mut(), window) {
            log.record(kind, w, t0, t1, 1);
        }
        if t1 >= deadline {
            break t1;
        }
    };
    if let (Some(log), Some(w)) = (log.as_mut(), window) {
        log.close(w, end, ops);
    }
    PhaseRun {
        ops,
        samples,
        spans: log.map(|l| l.spans).unwrap_or_default(),
    }
}
