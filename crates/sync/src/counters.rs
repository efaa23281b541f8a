//! Counter tables: one declared field list per statistics type.
//!
//! Every layer that counts protocol events (the list's `ListStats`, the
//! arena's `MemStats`) needs a plain-`u64` snapshot type, a
//! [`Sharded`](crate::Sharded) live copy that hot paths bump without
//! sharing a cache line, and the snapshot arithmetic (`since`, `+=`,
//! `is_empty`). [`counter_table!`](crate::counter_table) generates all of
//! them from one field list, so adding a counter is one line.
//!
//! The snapshot type doubles as the batch: a hot loop records into a
//! local snapshot value with plain adds and hands it to the live type's
//! `absorb`, which costs one relaxed `fetch_add` per non-zero counter
//! however many events the batch holds.
//!
//! *Gauges* (point-in-time values such as a queue depth) are declared in
//! an optional second section. They are not sharded, `absorb` ignores
//! them, and `since` carries them over from the later snapshot instead of
//! differencing them.
//!
//! # Example
//!
//! ```
//! valois_sync::counter_table! {
//!     /// Snapshot of a cache's activity.
//!     pub struct CacheStats;
//!     /// Live sharded counters behind [`CacheStats`].
//!     pub struct CacheCounters;
//!     counters {
//!         /// Lookups that found their key.
//!         hits,
//!         /// Lookups that did not.
//!         misses,
//!     }
//!     gauges {
//!         /// Entries resident right now.
//!         resident,
//!     }
//! }
//!
//! let live = CacheCounters::default();
//! live.bump(|s| &s.hits);
//! let mut batch = CacheStats::default();
//! batch.misses += 2;
//! live.absorb(&mut batch);
//! assert!(batch.is_empty());
//! let now = live.snapshot();
//! assert_eq!((now.hits, now.misses), (1, 2));
//! ```

use crate::shim::atomic::{AtomicU64, Ordering};

/// One shard of a counter table: `N` relaxed counters, one per declared
/// counter in declaration order. Used through
/// [`counter_table!`](crate::counter_table); there is no reason to name it
/// directly.
#[derive(Debug)]
pub struct CounterShard<const N: usize>([AtomicU64; N]);

impl<const N: usize> Default for CounterShard<N> {
    fn default() -> Self {
        Self(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl<const N: usize> CounterShard<N> {
    /// Adds `counts` component-wise: one relaxed `fetch_add` per non-zero
    /// entry.
    #[inline]
    pub fn add(&self, counts: [u64; N]) {
        for (cell, n) in self.0.iter().zip(counts) {
            if n != 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Adds `n` to counter `i`.
    #[inline]
    pub fn add_at(&self, i: usize, n: u64) {
        self.0[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds this shard's current values into `totals`.
    pub fn sum_into(&self, totals: &mut [u64; N]) {
        for (total, cell) in totals.iter_mut().zip(&self.0) {
            *total += cell.load(Ordering::Relaxed);
        }
    }
}

/// Declares a counter table: a plain-`u64` snapshot struct and its
/// sharded live counterpart, from one documented field list (syntax in
/// the [module example](crate::counters)).
///
/// The snapshot gets public `u64` fields (counters, then gauges),
/// `Debug`/`Clone`/`Copy`/`Default`/`PartialEq`/`Eq`, `AddAssign` (every
/// field adds, gauges included), a saturating `since` and `is_empty`
/// (every counter zero). The live type gets `Default`, `Debug` (its
/// snapshot), `bump`, `absorb`, `absorb_only` and `snapshot` (gauges read
/// zero — the owner fills them in).
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$stats_meta:meta])*
        $stats_vis:vis struct $Stats:ident;
        $(#[$live_meta:meta])*
        $live_vis:vis struct $Live:ident;
        counters {
            $( $(#[$counter_meta:meta])* $counter:ident, )+
        }
        $( gauges {
            $( $(#[$gauge_meta:meta])* $gauge:ident, )+
        } )?
    ) => {
        $(#[$stats_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $stats_vis struct $Stats {
            $( $(#[$counter_meta])* pub $counter: u64, )+
            $($( $(#[$gauge_meta])* pub $gauge: u64, )+)?
        }

        impl $Stats {
            /// Number of counters (gauges excluded).
            const COUNTERS: usize = [$(stringify!($counter)),+].len();

            /// Every counter holding its own position in [`Self::counts`]
            /// (gauges hold `u64::MAX`): maps a field selector to its
            /// shard cell.
            const INDEX: Self = {
                let mut positions = [0; Self::COUNTERS];
                let mut i = 0;
                while i < Self::COUNTERS {
                    positions[i] = i as u64;
                    i += 1;
                }
                let [$($counter),+] = positions;
                Self {
                    $($counter,)+
                    $($( $gauge: u64::MAX, )+)?
                }
            };

            /// The counters in declaration order.
            #[inline]
            fn counts(&self) -> [u64; Self::COUNTERS] {
                [$(self.$counter),+]
            }

            /// Component-wise difference (`self - earlier`), saturating at
            /// zero. Gauges are carried over from `self` unchanged
            /// (differencing a point-in-time gauge is meaningless).
            pub fn since(&self, earlier: &Self) -> Self {
                Self {
                    $( $counter: self.$counter.saturating_sub(earlier.$counter), )+
                    $($( $gauge: self.$gauge, )+)?
                }
            }

            /// Whether every counter is zero (gauges are not consulted).
            pub fn is_empty(&self) -> bool {
                self.counts() == [0; Self::COUNTERS]
            }
        }

        impl ::core::ops::AddAssign for $Stats {
            fn add_assign(&mut self, rhs: Self) {
                $( self.$counter += rhs.$counter; )+
                $($( self.$gauge += rhs.$gauge; )+)?
            }
        }

        $(#[$live_meta])*
        $live_vis struct $Live {
            shards: $crate::sharded::Sharded<
                $crate::counters::CounterShard<{ $Stats::COUNTERS }>,
            >,
        }

        impl ::core::default::Default for $Live {
            fn default() -> Self {
                Self {
                    shards: $crate::sharded::Sharded::new(),
                }
            }
        }

        impl ::core::fmt::Debug for $Live {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                ::core::fmt::Debug::fmt(&self.snapshot(), f)
            }
        }

        #[allow(dead_code)]
        impl $Live {
            /// Adds 1 to the counter `pick` selects, on the current
            /// thread's shard (one relaxed `fetch_add`).
            #[inline]
            pub fn bump(&self, pick: impl FnOnce(&$Stats) -> &u64) {
                let i = *pick(&$Stats::INDEX) as usize;
                self.shards.get().add_at(i, 1);
            }

            /// Folds a batch into the current thread's shard and clears
            /// it: one relaxed `fetch_add` per non-zero counter, however
            /// many events the batch holds. Gauges in the batch are
            /// ignored.
            #[inline]
            pub fn absorb(&self, batch: &mut $Stats) {
                self.shards.get().add(batch.counts());
                *batch = $Stats::default();
            }

            /// As [`absorb`](Self::absorb), but tests and clears only the
            /// counters `pick` selects — for batches whose producers can
            /// only touch those, so a narrow batch of a wide table costs
            /// no more than the counters it can hold. Debug builds assert
            /// that the other counters are zero.
            #[inline]
            pub fn absorb_only<const K: usize>(
                &self,
                batch: &mut $Stats,
                pick: impl Fn(&mut $Stats) -> [&mut u64; K],
            ) {
                let mut index = $Stats::INDEX;
                let shard = self.shards.get();
                for (count, i) in pick(batch).into_iter().zip(pick(&mut index)) {
                    let n = ::core::mem::take(count);
                    if n != 0 {
                        shard.add_at(*i as usize, n);
                    }
                }
                debug_assert!(batch.is_empty(), "batch counted outside the picked counters");
            }

            /// Takes a point-in-time snapshot (sums every shard). Gauges
            /// read zero.
            pub fn snapshot(&self) -> $Stats {
                let mut totals = [0; $Stats::COUNTERS];
                for shard in self.shards.shards() {
                    shard.sum_into(&mut totals);
                }
                let [$($counter),+] = totals;
                $Stats {
                    $($counter,)+
                    $($( $gauge: 0, )+)?
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::counter_table! {
        /// Test snapshot.
        pub struct Demo;
        /// Test live counters.
        pub struct DemoCounters;
        counters {
            /// First counter.
            hits,
            /// Second counter.
            misses,
        }
        gauges {
            /// A gauge.
            depth,
        }
    }

    #[test]
    fn snapshot_sums_across_threads() {
        let c = DemoCounters::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        c.bump(|s| &s.hits);
                    }
                });
            }
        });
        assert_eq!(
            c.snapshot(),
            Demo {
                hits: 2000,
                ..Demo::default()
            }
        );
    }

    #[test]
    fn absorb_folds_clears_and_skips_an_empty_batch() {
        let c = DemoCounters::default();
        let mut batch = Demo {
            hits: 5,
            misses: 3,
            depth: 9,
        };
        assert!(!batch.is_empty());
        c.absorb(&mut batch);
        assert!(batch.is_empty(), "absorb must clear the batch");
        let s = c.snapshot();
        assert_eq!(
            (s.hits, s.misses, s.depth),
            (5, 3, 0),
            "gauges are not sharded"
        );
        c.absorb(&mut batch);
        assert_eq!(c.snapshot(), s, "absorbing an empty batch is a no-op");
    }

    #[test]
    fn absorb_only_folds_and_clears_the_picked_counters() {
        let c = DemoCounters::default();
        c.bump(|s| &s.misses);
        let mut batch = Demo {
            hits: 4,
            ..Demo::default()
        };
        c.absorb_only(&mut batch, |s| [&mut s.hits]);
        assert!(batch.is_empty());
        assert_eq!((c.snapshot().hits, c.snapshot().misses), (4, 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside the picked counters")]
    fn absorb_only_rejects_an_unpicked_count() {
        let mut batch = Demo {
            misses: 1,
            ..Demo::default()
        };
        DemoCounters::default().absorb_only(&mut batch, |s| [&mut s.hits]);
    }

    #[test]
    fn since_saturates_counters_and_carries_gauges() {
        let later = Demo {
            hits: 10,
            misses: 4,
            depth: 7,
        };
        let earlier = Demo {
            hits: 6,
            misses: 5,
            depth: 100,
        };
        assert_eq!(
            later.since(&earlier),
            Demo {
                hits: 4,
                misses: 0,
                depth: 7,
            }
        );
    }

    #[test]
    fn add_assign_sums_counters_and_gauges() {
        let mut total = Demo {
            hits: 1,
            misses: 2,
            depth: 3,
        };
        total += Demo {
            hits: 10,
            misses: 20,
            depth: 30,
        };
        assert_eq!(
            total,
            Demo {
                hits: 11,
                misses: 22,
                depth: 33,
            }
        );
    }
}
