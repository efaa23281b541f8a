//! List-level operation statistics (experiments E3 and E7).
//!
//! Like the memory-protocol counters in `valois-mem`, the list counters
//! used to be a single set of relaxed atomics — one shared cache line that
//! every `Update`/`Next` on every thread bumped, a measurable fraction of
//! the per-hop cost in experiment E8. They are now sharded
//! (cache-line-padded per-shard atomics, summed at snapshot time), and the
//! cursor batches its events in a plain [`ListStats`] value folded into
//! the shards when the cursor drops. The one field list below declares
//! the snapshot, the batch and the sharded live counters
//! ([`valois_sync::counter_table!`]).

valois_sync::counter_table! {
    /// Point-in-time snapshot of a list's operation counters.
    ///
    /// The "extra work" quantities of the §4.1 amortized analysis are directly
    /// observable here: failed `TryInsert`/`TryDelete` attempts
    /// ([`ListStats::insert_retries`], [`ListStats::delete_retries`]) and
    /// auxiliary-node traversal overhead ([`ListStats::aux_skipped`]).
    ///
    /// Cursors batch their events thread-locally and fold them in when dropped,
    /// so a still-live cursor's recent operations may not be visible yet (call
    /// `Cursor::flush_stats` to force them out).
    pub struct ListStats;
    /// Sharded live counters owned by a [`List`](crate::List).
    pub(crate) struct ListCounters;
    counters {
        /// Cursor `Update` calls (Fig. 5).
        updates,
        /// Adjacent auxiliary nodes removed by `Update` line 7.
        aux_unlinked,
        /// Auxiliary nodes stepped over during `Update`.
        aux_skipped,
        /// Successful `Next` steps (Fig. 7).
        next_steps,
        /// `TryInsert` attempts (Fig. 9).
        insert_attempts,
        /// `TryInsert` successes.
        insert_successes,
        /// `TryDelete` attempts (Fig. 10).
        delete_attempts,
        /// `TryDelete` successes.
        delete_successes,
        /// Back-link hops performed during `TryDelete` recovery (Fig. 10
        /// lines 8–11).
        backlink_hops,
        /// CAS retries in `TryDelete`'s auxiliary-chain cleanup loop
        /// (Fig. 10 lines 17–21).
        chain_cleanup_retries,
        /// [`Cursor::resume`](crate::Cursor::resume) calls that actually
        /// found a deleted predecessor and back-walked (cheap revalidations
        /// that fell through to `Update` are not counted).
        resumes,
        /// Back-link hops performed by [`Cursor::resume`](crate::Cursor::resume)
        /// — the "resume distance". `resume_hops / resumes` is the mean
        /// distance-to-conflict, the quantity that replaces O(n)
        /// restart-from-head walks.
        resume_hops,
    }
}

impl ListStats {
    /// Failed `TryInsert` attempts (the §4.1 retry count).
    pub fn insert_retries(&self) -> u64 {
        self.insert_attempts.saturating_sub(self.insert_successes)
    }

    /// Failed `TryDelete` attempts.
    pub fn delete_retries(&self) -> u64 {
        self.delete_attempts.saturating_sub(self.delete_successes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retries_are_attempts_minus_successes() {
        let s = ListStats {
            insert_attempts: 10,
            insert_successes: 7,
            delete_attempts: 5,
            delete_successes: 5,
            ..ListStats::default()
        };
        assert_eq!(s.insert_retries(), 3);
        assert_eq!(s.delete_retries(), 0);
    }
}
