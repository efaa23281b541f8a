//! The [`Server`]: shard lifecycle, key routing, aggregate statistics,
//! and a blocking single-op client used by the correctness tests.

use std::hash::RandomState;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use valois_core::channel::{channel, Receiver, Sender};
use valois_core::ArenaConfig;
use valois_dict::{Dictionary, ResizableHashDict};
use valois_harness::LatencyHistogram;
use valois_mem::{AllocError, MemStats, Reclaimer};
use valois_sync::shim::atomic::{AtomicU64, Ordering};

use crate::request::{Op, Outcome, Request, Response};
use crate::shard::{total_mem_stats, total_stats, worker_loop, Shard, ShardStats, WorkerConfig};

/// Routes a key to a shard. Stable for the life of the process — that
/// stability is the per-key FIFO contract: one key always flows through
/// one shard's channel.
///
/// Fibonacci multiplicative hashing on the high bits: cheap, and
/// sequential keys (the scan workloads) spread across shards instead of
/// convoying on one.
pub fn route(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % shards
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shard (worker thread) count.
    pub shards: usize,
    /// Max requests served per drain batch.
    pub batch: usize,
    /// Puts per simulated group commit; `0` disables the commit stall
    /// entirely (pure in-memory serving).
    pub commit_group: u32,
    /// Sleep per group commit — the fsync/replication-ack proxy.
    pub commit_stall: Duration,
    /// Initial bucket count per shard dictionary.
    pub initial_buckets: u64,
    /// Node-arena configuration per shard dictionary (cap it to exercise
    /// the shed-under-load path).
    pub arena: ArenaConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            batch: 64,
            commit_group: 0,
            commit_stall: Duration::from_micros(200),
            initial_buckets: 64,
            arena: ArenaConfig::default(),
        }
    }
}

/// A running sharded KV service: `shards` worker threads, each owning a
/// [`ResizableHashDict`] and draining its own bounded channel.
pub struct Server<R: Reclaimer + 'static> {
    shards: Vec<Arc<Shard<R>>>,
    txs: Vec<Sender<Request>>,
    workers: Vec<JoinHandle<()>>,
    next_conn: AtomicU64,
}

impl<R: Reclaimer> std::fmt::Debug for Server<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<R: Reclaimer> Server<R> {
    /// Starts the shard workers.
    pub fn start(config: &ServiceConfig) -> Self {
        let nshards = config.shards.max(1);
        let worker_cfg = WorkerConfig {
            batch: config.batch.max(1),
            commit_group: config.commit_group,
            commit_stall: config.commit_stall,
        };
        let mut shards = Vec::with_capacity(nshards);
        let mut txs = Vec::with_capacity(nshards);
        let mut workers = Vec::with_capacity(nshards);
        for id in 0..nshards {
            let shard = Arc::new(Shard {
                id,
                shards: nshards,
                dict: ResizableHashDict::with_settings(
                    config.initial_buckets,
                    RandomState::new(),
                    config.arena,
                ),
                stats: Default::default(),
                latency: LatencyHistogram::new(),
            });
            let (tx, rx): (Sender<Request>, Receiver<Request>) = channel();
            let worker_shard = Arc::clone(&shard);
            let handle = std::thread::Builder::new()
                .name(format!("valois-shard-{id}"))
                .spawn(move || worker_loop(&worker_shard, &rx, worker_cfg))
                .expect("spawn shard worker");
            shards.push(shard);
            txs.push(tx);
            workers.push(handle);
        }
        Self {
            shards,
            txs,
            workers,
            next_conn: AtomicU64::new(0),
        }
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards (telemetry samplers clone these `Arc`s).
    pub fn shards(&self) -> &[Arc<Shard<R>>] {
        &self.shards
    }

    /// Which shard a key routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        route(key, self.shards.len())
    }

    /// Enqueues a request on its key's shard, waiting while that shard's
    /// channel is full (backpressure; see the deadlock rule in
    /// [`valois_core::channel`]). Returns the request back if that shard
    /// has shut down (only possible mid-`shutdown`).
    pub fn submit(&self, req: Request) -> Result<(), Request> {
        let shard = self.shard_of(req.op.route_key());
        self.txs[shard].send(req).map_err(|e| e.0)
    }

    /// A fresh connection id (routing and ordering domain for clients).
    pub fn new_conn(&self) -> u64 {
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// Request counters summed across shards (`completed` = requests
    /// served).
    pub fn stats(&self) -> ShardStats {
        total_stats(&self.shards)
    }

    /// All shards' latency histograms merged into one.
    pub fn latency(&self) -> LatencyHistogram {
        let merged = LatencyHistogram::new();
        for s in &self.shards {
            merged.merge(&s.latency);
        }
        merged
    }

    /// Memory-protocol counters summed across shard arenas (the
    /// `epoch_pin_lag` gauge is the max over shards).
    pub fn mem_stats(&self) -> MemStats {
        total_mem_stats(&self.shards)
    }

    /// Total items across shard dictionaries (best-effort snapshot).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.dict.len()).sum()
    }

    /// Whether every shard dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A blocking single-op client: each call round-trips one request
    /// and waits for its reply. Implements [`Dictionary`], so the
    /// linearizability harness can drive the whole service stack.
    pub fn client(&self) -> BlockingClient<'_, R> {
        BlockingClient {
            server: self,
            conn: self.new_conn(),
            seq: AtomicU64::new(0),
        }
    }

    /// Stops the service: drops every sender (workers drain their
    /// channels and exit), joins the workers, and hands back the shard
    /// dictionaries for invariant checking.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked, or if shard `Arc`s are still held
    /// elsewhere (stop any [`StatsFeed`](crate::StatsFeed) first).
    pub fn shutdown(mut self) -> Vec<ResizableHashDict<u64, u64, RandomState, R>> {
        self.txs.clear();
        for handle in self.workers.drain(..) {
            handle.join().expect("shard worker panicked");
        }
        self.shards
            .drain(..)
            .map(|arc| {
                Arc::try_unwrap(arc)
                    .unwrap_or_else(|_| panic!("shard Arc still held at shutdown"))
                    .dict
            })
            .collect()
    }
}

impl<R: Reclaimer> Drop for Server<R> {
    fn drop(&mut self) {
        // `shutdown` already drained these; a plain drop still joins so
        // worker threads never outlive the server.
        self.txs.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A blocking client connection: one request in flight at a time, each
/// with its own reply channel (so any number of `BlockingClient`s — or
/// threads sharing one via `&` — never steal each other's replies).
pub struct BlockingClient<'a, R: Reclaimer + 'static> {
    server: &'a Server<R>,
    conn: u64,
    seq: AtomicU64,
}

impl<R: Reclaimer> std::fmt::Debug for BlockingClient<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockingClient")
            .field("conn", &self.conn)
            .finish_non_exhaustive()
    }
}

impl<R: Reclaimer> BlockingClient<'_, R> {
    /// Round-trips one operation through the service.
    pub fn call(&self, op: Op) -> Outcome {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::<Response>();
        self.server
            .submit(Request {
                conn: self.conn,
                seq,
                op,
                issued: Instant::now(),
                reply: tx,
            })
            .expect("server is running");
        let resp = rx.recv().expect("shard replies before disconnecting");
        debug_assert_eq!(resp.seq, seq);
        resp.outcome
    }
}

impl<R: Reclaimer> Dictionary<u64, u64> for BlockingClient<'_, R> {
    /// A put the shard could not place even after shedding
    /// ([`Outcome::Overloaded`]) is an [`AllocError`], not "already
    /// present".
    fn try_insert(&self, key: u64, value: u64) -> Result<bool, AllocError> {
        match self.call(Op::Put(key, value)) {
            Outcome::Inserted(won) => Ok(won),
            Outcome::Overloaded => Err(AllocError),
            other => unreachable!("Put answered with {other:?}"),
        }
    }

    fn remove(&self, key: &u64) -> bool {
        matches!(self.call(Op::Del(*key)), Outcome::Deleted(true))
    }

    fn find(&self, key: &u64) -> Option<u64> {
        match self.call(Op::Get(*key)) {
            Outcome::Value(v) => v,
            other => unreachable!("Get answered with {other:?}"),
        }
    }

    fn contains(&self, key: &u64) -> bool {
        matches!(self.call(Op::Get(*key)), Outcome::Value(Some(_)))
    }

    fn len(&self) -> usize {
        self.server.len()
    }
}
