//! Synchronization primitives for the Valois lock-free linked-list
//! reproduction (PODC 1995).
//!
//! The paper builds everything from three single-word atomic primitives:
//!
//! * **Compare&Swap** (Fig. 1 of the paper) — the universal primitive used to
//!   *swing* pointers,
//! * **Test&Set** — used by the `claim` bit of the memory manager (§5.1),
//! * **Fetch&Add** — used by the reference counts (§5.1).
//!
//! This crate provides paper-faithful wrappers over [`std::sync::atomic`]
//! ([`primitives`]), the exponential [`Backoff`] the paper recommends for
//! contention management (§2.1), the spin locks used as baselines
//! ([`spinlock`]), and a [`CachePadded`] helper to keep hot shared words on
//! separate cache lines. [`Sharded`] spreads statistics over per-thread
//! shards, and [`counter_table!`] declares a layer's counters once and
//! generates the snapshot, batch and sharded live types from that list.
//!
//! # Example
//!
//! ```
//! use valois_sync::primitives::CasCell;
//!
//! let cell = CasCell::new(7usize);
//! assert!(cell.compare_and_swap(7, 8));
//! assert!(!cell.compare_and_swap(7, 9));
//! assert_eq!(cell.read(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod counters;
pub mod pad;
pub mod primitives;
pub mod rng;
pub mod sharded;
pub mod shim;
pub mod spinlock;

pub use backoff::Backoff;
pub use pad::CachePadded;
pub use primitives::{CasCell, CasPtr, Counter, RefClaim, TestAndSet};
pub use sharded::Sharded;
pub use spinlock::{
    AndersonLock, ClhLock, Lock, LockGuard, LockKind, TasLock, TicketLock, TtasLock,
};
