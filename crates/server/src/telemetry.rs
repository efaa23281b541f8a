//! The live stats feed: a sampler thread turning the service's always-on
//! counters into per-interval [`Tick`]s.
//!
//! Two layers feed one tick, none of them added for monitoring's sake:
//!
//! 1. **Shard counters** — the [`ShardStats`] counter table
//!    (completed/batches/commits/overloaded), plus the latency histogram
//!    (racy snapshot reads, as all live monitoring is).
//! 2. **Structure + protocol counters** — [`ListStats`]/[`MemStats`]
//!    from the shard dictionaries. These advance *mid-operation* because
//!    cursors flush their batched tallies periodically, not only on
//!    drop; without that flush a long-lived cursor froze the feed (the
//!    stale-live-stats bug, pinned by the `live_*` bodies of
//!    `tests/list_conformance.rs`).
//!
//! A tick's `shard`, `list` and `mem` are `counter_table!` snapshots'
//! `since` deltas, so the feed and `stress` read one set of names.
//!
//! See `docs/OBSERVABILITY.md` for the workflow.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use valois_core::ListStats;
use valois_harness::LatencySummary;
use valois_mem::{MemStats, Reclaimer};
use valois_sync::shim::atomic::{AtomicBool, Ordering};

use crate::shard::{total_mem_stats, total_stats, Shard, ShardStats};

/// One interval's worth of service statistics.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// Tick index (0-based).
    pub index: u64,
    /// Serving rate over this interval.
    pub ops_per_sec: f64,
    /// Cumulative latency quantiles (`None` before the first sample).
    pub latency: Option<LatencySummary>,
    /// Request counters during this interval, summed over shards
    /// (`completed` = requests served).
    pub shard: ShardStats,
    /// List-operation counters during this interval, summed over shards
    /// (`next_steps` = traversal steps, `insert_successes`/
    /// `delete_successes` = completed inserts/deletes).
    pub list: ListStats,
    /// Memory-protocol counters during this interval, summed over shards.
    /// The gauges are current values, not deltas (`epoch_limbo_depth` =
    /// nodes parked in limbo service-wide).
    pub mem: MemStats,
}

impl std::fmt::Display for Tick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={:>4}  {:>9.0} ops/s  served {:>8}",
            self.index, self.ops_per_sec, self.shard.completed,
        )?;
        if let Some(l) = self.latency {
            write!(
                f,
                "  p50 {:>7.1?}  p99 {:>7.1?}  p999 {:>7.1?}",
                l.p50, l.p99, l.p999
            )?;
        }
        write!(
            f,
            "  steps {:>8}  ins {:>6}  del {:>6}  limbo {:>5}",
            self.list.next_steps,
            self.list.insert_successes,
            self.list.delete_successes,
            self.mem.epoch_limbo_depth
        )
    }
}

/// The shards' three counter tables, each summed over shards.
fn totals<R: Reclaimer>(shards: &[Arc<Shard<R>>]) -> (ShardStats, ListStats, MemStats) {
    let list = shards.iter().fold(ListStats::default(), |mut list, s| {
        list += s.dict.list_stats();
        list
    });
    (total_stats(shards), list, total_mem_stats(shards))
}

/// A running sampler: reads every shard's counters at a fixed interval
/// and appends a [`Tick`]. Stop it (and collect the ticks) with
/// [`StatsFeed::stop`] *before* shutting the server down.
pub struct StatsFeed {
    ticks: Arc<Mutex<Vec<Tick>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for StatsFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsFeed").finish_non_exhaustive()
    }
}

impl StatsFeed {
    /// Starts sampling `shards` every `interval`. `print` additionally
    /// writes each tick to stdout (the live per-second feed).
    pub fn start<R: Reclaimer + 'static>(
        shards: &[Arc<Shard<R>>],
        interval: Duration,
        print: bool,
    ) -> Self {
        let shards: Vec<Arc<Shard<R>>> = shards.to_vec();
        // The baseline is read here, not on the sampler thread: the
        // ticks' deltas then cover everything served after `start`
        // returns, however late the sampler is first scheduled.
        let (mut prev_shard, mut prev_list, mut prev_mem) = totals(&shards);
        let ticks = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let ticks_in = Arc::clone(&ticks);
        let stop_in = Arc::clone(&stop);
        let sampler = std::thread::Builder::new()
            .name("valois-stats-feed".into())
            .spawn(move || {
                let stop = stop_in;
                let mut index = 0u64;
                // ORDER: Acquire pairs with the Release store in
                // `StatsFeed::stop`/`Drop` — the plain stop-flag
                // handshake before the join.
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    let (shard, list, mem) = totals(&shards);
                    let latency = {
                        let merged = valois_harness::LatencyHistogram::new();
                        for s in &shards {
                            merged.merge(&s.latency);
                        }
                        merged.summary()
                    };
                    let served = shard.since(&prev_shard);
                    let tick = Tick {
                        index,
                        ops_per_sec: served.completed as f64
                            / interval.as_secs_f64().max(f64::EPSILON),
                        latency,
                        shard: served,
                        list: list.since(&prev_list),
                        mem: mem.since(&prev_mem),
                    };
                    if print {
                        println!("{tick}");
                    }
                    ticks_in.lock().expect("feed mutex").push(tick);
                    prev_shard = shard;
                    prev_list = list;
                    prev_mem = mem;
                    index += 1;
                }
            })
            .expect("spawn stats feed");
        Self {
            ticks,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Ticks collected so far (the feed keeps running).
    pub fn ticks(&self) -> Vec<Tick> {
        self.ticks.lock().expect("feed mutex").clone()
    }

    /// Stops the sampler and returns every tick collected.
    pub fn stop(mut self) -> Vec<Tick> {
        // ORDER: Release store / Acquire load — the sampler must observe
        // the flag before we join it; the pairing is the plain
        // stop-flag handshake.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.sampler.take() {
            handle.join().expect("stats feed panicked");
        }
        Arc::try_unwrap(std::mem::take(&mut self.ticks))
            .map(|m| m.into_inner().expect("feed mutex"))
            .unwrap_or_else(|arc| arc.lock().expect("feed mutex").clone())
    }
}

impl Drop for StatsFeed {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.sampler.take() {
            let _ = handle.join();
        }
    }
}
