//! One shard: a worker thread draining a bounded request channel in
//! batches and serving a [`ResizableHashDict`].
//!
//! The drain loop is the service's heartbeat. It blocks (spin + yield)
//! for the first request, then opportunistically drains up to
//! [`ServiceConfig::batch`](crate::ServiceConfig) more without blocking —
//! batching amortizes the channel's dequeue CAS traffic and gives the
//! simulated group commit something to group. The loop exits when every
//! sender is gone and the channel is drained, so shutdown is just
//! "drop the senders, join the workers" and no request is ever lost.

use std::sync::Arc;
use std::time::Duration;

use valois_core::channel::Receiver;
use valois_core::{AllocError, HINT_ROUND};
use valois_dict::{Dictionary, ResizableHashDict};
use valois_harness::LatencyHistogram;
use valois_mem::{MemStats, Reclaimer};

use crate::request::{Op, Outcome, Request, Response};
use crate::server::route;

valois_sync::counter_table! {
    /// Snapshot of a shard's request counters, or of their sum over
    /// shards ([`Server::stats`](crate::Server::stats)).
    pub struct ShardStats;
    /// Sharded live counters behind [`ShardStats`], bumped by the
    /// shard's worker. Monitoring counters, not synchronization.
    pub struct ShardCounters;
    counters {
        /// Requests served: bumped before the reply is sent, so a client
        /// holding every reply reads them all counted.
        completed,
        /// Drain batches processed.
        batches,
        /// Simulated group commits performed (see
        /// [`ServiceConfig::commit_group`](crate::ServiceConfig)).
        commits,
        /// `Put`s refused with [`Outcome::Overloaded`].
        overloaded,
    }
}

/// One shard: the dictionary it owns plus its live stats.
pub struct Shard<R: Reclaimer> {
    /// This shard's index (also its routing slot).
    pub id: usize,
    /// Total shard count (needed to filter scan ranges down to the keys
    /// this shard owns).
    pub shards: usize,
    /// The shard's store.
    pub dict: ResizableHashDict<u64, u64, std::hash::RandomState, R>,
    /// Live counters.
    pub stats: ShardCounters,
    /// Issue-to-served latency (includes channel queueing delay).
    pub latency: LatencyHistogram,
}

impl<R: Reclaimer> std::fmt::Debug for Shard<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<R: Reclaimer> Shard<R> {
    /// Serves one operation against this shard's dictionary.
    pub fn serve(&self, op: &Op) -> Outcome {
        match *op {
            Op::Get(k) => Outcome::Value(self.dict.find(&k)),
            Op::Put(k, v) => match self.dict.try_insert(k, v) {
                Ok(inserted) => Outcome::Inserted(inserted),
                // The dictionary already shed (magazines + epoch limbo,
                // windows closed) and retried; a service answers rather
                // than panics.
                Err(AllocError) => {
                    self.stats.bump(|s| &s.overloaded);
                    Outcome::Overloaded
                }
            },
            Op::Del(k) => Outcome::Deleted(self.dict.remove(&k)),
            Op::Scan { start, len } => {
                // The shard's keys of the range go to `count_present` in
                // stack chunks of one hint round each. The range stops at
                // `u64::MAX` inclusive.
                let (mut chunk, mut n, mut hits) = ([0u64; HINT_ROUND], 0, 0);
                let keys = (0..u64::from(len)).map_while(|i| start.checked_add(i));
                for k in keys {
                    if route(k, self.shards) == self.id {
                        chunk[n] = k;
                        n += 1;
                    }
                    if n == HINT_ROUND {
                        hits += self.dict.count_present(&chunk);
                        n = 0;
                    }
                }
                hits += self.dict.count_present(&chunk[..n]);
                Outcome::Scanned(hits as u32)
            }
        }
    }

    /// The shard arena's memory-protocol counters.
    pub fn mem_stats(&self) -> MemStats {
        self.dict.mem_stats()
    }
}

/// Request counters summed across `shards`.
pub(crate) fn total_stats<R: Reclaimer>(shards: &[Arc<Shard<R>>]) -> ShardStats {
    shards.iter().fold(ShardStats::default(), |mut total, s| {
        total += s.stats.snapshot();
        total
    })
}

/// Memory-protocol counters summed across `shards`. Counters and the
/// `epoch_limbo_depth` gauge add (total garbage parked service-wide);
/// the `epoch_pin_lag` gauge is the max (the most-stalled shard).
pub(crate) fn total_mem_stats<R: Reclaimer>(shards: &[Arc<Shard<R>>]) -> MemStats {
    shards
        .iter()
        .map(|s| s.mem_stats())
        .fold(MemStats::default(), |mut total, m| {
            let lag = total.epoch_pin_lag.max(m.epoch_pin_lag);
            total += m;
            total.epoch_pin_lag = lag;
            total
        })
}

/// Per-worker knobs, copied out of
/// [`ServiceConfig`](crate::ServiceConfig) at spawn.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerConfig {
    pub batch: usize,
    pub commit_group: u32,
    pub commit_stall: Duration,
}

/// The drain loop: runs on the shard's worker thread until every sender
/// is dropped and the channel is drained.
pub(crate) fn worker_loop<R: Reclaimer>(
    shard: &Shard<R>,
    rx: &Receiver<Request>,
    cfg: WorkerConfig,
) {
    let mut batch: Vec<Request> = Vec::with_capacity(cfg.batch.max(1));
    // Puts not yet covered by a simulated group commit. The model: every
    // `commit_group` puts cost one `commit_stall` sleep (an fsync /
    // replication-ack proxy), so durability cost scales with write
    // volume per shard and overlaps across shards — which is what makes
    // shard-count scaling honestly measurable even on one core.
    let mut uncommitted_puts: u32 = 0;
    // WAIT-FREE: not a CAS retry loop — one iteration per drained batch,
    // bounded by channel disconnection; the RMWs inside are counter-table
    // bumps, which cannot fail and be retried.
    loop {
        batch.clear();
        match rx.recv() {
            Some(req) => batch.push(req),
            None => break, // drained + all senders gone
        }
        while batch.len() < cfg.batch {
            match rx.try_recv() {
                Ok(req) => batch.push(req),
                Err(_) => break, // empty (or newly disconnected): serve what we have
            }
        }
        valois_trace::probe!(ServiceBatch, batch.len() as u64, shard.id as u64);
        shard.stats.bump(|s| &s.batches);
        for req in batch.drain(..) {
            let outcome = shard.serve(&req.op);
            if matches!(req.op, Op::Put(..)) {
                uncommitted_puts += 1;
            }
            shard.latency.record(req.issued.elapsed());
            shard.stats.bump(|s| &s.completed);
            // A client that hung up mid-request is not an error.
            let _ = req.reply.send(Response {
                conn: req.conn,
                seq: req.seq,
                outcome,
            });
        }
        if cfg.commit_group > 0 {
            // WAIT-FREE: bounded arithmetic countdown, not a CAS retry —
            // each pass subtracts a full commit group; the bump is a
            // counter-table add.
            while uncommitted_puts >= cfg.commit_group {
                std::thread::sleep(cfg.commit_stall);
                shard.stats.bump(|s| &s.commits);
                uncommitted_puts -= cfg.commit_group;
            }
        }
    }
}
