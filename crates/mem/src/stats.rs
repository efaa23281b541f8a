//! Memory-manager statistics.
//!
//! §6 of the paper singles out `SafeRead` as "the most time consuming
//! operation"; experiment E8 quantifies that, and E3 needs CAS retry
//! counts. E8 also showed the *instrumentation itself* used to be part of
//! the problem: a single set of relaxed atomics meant every `safe_read`
//! from every thread bumped the same cache line. The counters are now
//! sharded — cache-line-padded per-shard atomics with a summing read
//! side — and the hot paths batch their events in a thread-private
//! [`MemStats`] value that is folded into the shards in one `fetch_add`
//! per counter per batch. The one field list below declares the
//! snapshot, the batch and the sharded live counters
//! ([`valois_sync::counter_table!`]).

valois_sync::counter_table! {
    /// Point-in-time snapshot of an arena's activity counters.
    ///
    /// Obtain via [`Arena::stats`](crate::Arena::stats). Differences between two
    /// snapshots measure a workload's memory-protocol traffic (experiments
    /// E3/E8).
    ///
    /// A `MemStats` value is also the thread-private batch the hot paths
    /// record into: `Arena::safe_read_tallied` and the deferred-release
    /// drain add to it with plain integer adds — no shared-memory RMW per
    /// event — and the owner folds it into the arena's sharded counters
    /// via `Arena::flush_tally` (`release`/`safe_read` absorb their own
    /// single-shot batches). Until a batch is flushed its events are
    /// invisible to [`Arena::stats`](crate::Arena::stats); cursors flush
    /// on drop.
    pub struct MemStats;
    /// Sharded live counters owned by an [`Arena`](crate::Arena).
    pub struct StatCounters;
    counters {
        /// Completed `SafeRead` operations (Fig. 15).
        safe_reads,
        /// `SafeRead` retries (pointer changed between read and increment).
        safe_read_retries,
        /// `Release` operations (Fig. 16), including link releases at reclaim.
        releases,
        /// Successful `Alloc` operations (Fig. 17).
        allocs,
        /// `Alloc` CAS retries (free-list head contention).
        alloc_retries,
        /// Reclamations (Fig. 18 pushes back onto the free list).
        reclaims,
        /// Counted-link CAS swings attempted via `Arena::swing`.
        swings,
        /// Swings whose CAS failed (contention/invalid cursor — the paper's
        /// retry signal).
        swing_failures,
        /// Arena segment growth events.
        grows,
        /// Epoch backend: outermost pins taken (one per protected operation).
        /// Zero under the refcount backend (likewise for every field below).
        epoch_pins,
        /// Epoch backend: successful global-epoch advances.
        epoch_advances,
        /// Epoch backend: nodes retired into limbo (link in-degree hit zero).
        epoch_retires,
        /// Epoch backend: limbo nodes whose grace period elapsed and were
        /// recycled.
        epoch_frees,
    }
    gauges {
        /// Epoch backend **gauge** (point-in-time, not cumulative): nodes
        /// currently in limbo. A large value alongside `AllocError` means
        /// reclamation is blocked — check `epoch_pin_lag`.
        epoch_limbo_depth,
        /// Epoch backend **gauge**: how many epochs the oldest pinned thread
        /// lags the global epoch (0 = nobody stalled). A persistently large
        /// lag identifies a stalled reader pinning an old epoch.
        epoch_pin_lag,
    }
}

impl MemStats {
    /// Nodes currently checked out (allocated and not yet reclaimed).
    pub fn live_nodes(&self) -> u64 {
        self.allocs.saturating_sub(self.reclaims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_nodes_is_allocs_minus_reclaims() {
        let s = MemStats {
            allocs: 7,
            reclaims: 3,
            ..MemStats::default()
        };
        assert_eq!(s.live_nodes(), 4);
    }
}
