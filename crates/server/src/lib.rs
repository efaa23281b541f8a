//! A sharded key-value *service* front-end over the Valois structures —
//! the paper's §1 claim ("a building block for other data structures and
//! systems") taken to its logical end: a running service whose every
//! concurrent component is one of the lock-free pieces built in this
//! workspace.
//!
//! # Architecture
//!
//! ```text
//!  simulated connections          shard workers (one thread each)
//!  ┌──────────────────┐   route   ┌──────────────────────────────┐
//!  │ client thread 0  │──────────▶│ shard 0: bounded channel ──▶ │
//!  │   conns 0..k     │   by key  │   batched drain ──▶          │
//!  ├──────────────────┤           │   ResizableHashDict<_,_,_,R> │
//!  │ client thread 1  │──────────▶│   + LatencyHistogram         │
//!  │   conns k..2k    │           ├──────────────────────────────┤
//!  └──────────────────┘◀──────────│ shard 1: …                   │
//!        replies (per-request     └──────────────────────────────┘
//!         channels)                        ▲
//!                                          │ samples every tick
//!                                  telemetry::StatsFeed
//! ```
//!
//! * [`request`] — the wire types: [`Op`], [`Request`], [`Response`].
//! * [`shard`] — one worker: a batched drain loop over a bounded
//!   channel ([`valois_core::channel`], whose full ring pushes back on
//!   submitters) serving a
//!   [`ResizableHashDict`](valois_dict::ResizableHashDict).
//! * [`server`] — the [`Server`]: routing (same key → same shard, which
//!   is what makes per-key FIFO ordering hold end to end), lifecycle,
//!   aggregate stats.
//! * [`telemetry`] — [`StatsFeed`]: a sampler thread turning the live
//!   counters (kept fresh by the cursors' periodic tally flush) into
//!   per-interval [`Tick`]s.
//! * [`sim`] — thousands of simulated connections multiplexed over a few
//!   client threads, issuing Zipfian and scan-heavy mixes from
//!   [`valois_harness::workload`].
//!
//! # Ordering contract
//!
//! Requests for the *same key* from the *same connection* are answered
//! in issue order: the router sends one key to one shard for the
//! process's lifetime, the channel is FIFO, and the drain loop serves a
//! batch in dequeue order. Requests for different keys may be reordered
//! relative to each other (they can land on different shards); the
//! linearizability of each individual operation is the dictionary's.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod request;
pub mod server;
pub mod shard;
pub mod sim;
pub mod telemetry;

pub use request::{Op, Outcome, Request, Response};
pub use server::{route, BlockingClient, Server, ServiceConfig};
pub use shard::{Shard, ShardCounters, ShardStats};
pub use sim::{run_service, ServiceMix, SimConfig, SimReport};
pub use telemetry::{StatsFeed, Tick};
