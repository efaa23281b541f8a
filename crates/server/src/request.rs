//! The service's wire types: operations, requests, responses.
//!
//! Keys and values are `u64` — the service models a fixed-width KV store
//! (the interesting part is the concurrency, not the serialization).

use std::time::Instant;

use valois_core::channel::Sender;

/// One key-value operation, as issued by a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the value under a key.
    Get(u64),
    /// Insert a value if the key is absent (the paper's `Insert`
    /// semantics: keys stay unique, a duplicate put is refused).
    Put(u64, u64),
    /// Remove a key.
    Del(u64),
    /// Count the present keys in `start .. start + len` (cut off after
    /// `u64::MAX`) that this request's shard owns. A sharded scan is a scatter-gather in a
    /// real deployment; here each scan inspects one shard's slice of
    /// the range, which is the part that stresses the dictionary.
    Scan {
        /// First key of the range.
        start: u64,
        /// Number of keys in the range.
        len: u32,
    },
}

impl Op {
    /// The key the router shards on.
    pub fn route_key(&self) -> u64 {
        match *self {
            Op::Get(k) | Op::Put(k, _) | Op::Del(k) => k,
            Op::Scan { start, .. } => start,
        }
    }
}

/// The result of serving an [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `Get`: the value, if the key was present.
    Value(Option<u64>),
    /// `Put`: whether the key was inserted (`false` = already present).
    Inserted(bool),
    /// `Del`: whether a key was removed.
    Deleted(bool),
    /// `Scan`: how many keys of the shard's slice of the range were
    /// present.
    Scanned(u32),
    /// `Put` on a capped node pool that stayed exhausted even after the
    /// shard shed reclaimable memory (magazines + epoch limbo): the
    /// service answers instead of panicking, and the client may retry.
    Overloaded,
}

/// One request in flight: a connection's operation plus the reply route.
pub struct Request {
    /// Issuing connection id (the FIFO ordering domain, together with
    /// the key's shard).
    pub conn: u64,
    /// Per-connection sequence number.
    pub seq: u64,
    /// The operation.
    pub op: Op,
    /// Issue timestamp — shard workers record `issued → served` into
    /// their latency histogram, so queueing delay is part of the
    /// measured service latency (that is the point: convoys show up in
    /// the tail).
    pub issued: Instant,
    /// Where the response goes.
    pub reply: Sender<Response>,
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("conn", &self.conn)
            .field("seq", &self.seq)
            .field("op", &self.op)
            .finish_non_exhaustive()
    }
}

/// The answer to a [`Request`], delivered on its reply channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request's connection id.
    pub conn: u64,
    /// Echo of the request's sequence number.
    pub seq: u64,
    /// What happened.
    pub outcome: Outcome,
}
