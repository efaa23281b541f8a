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
//! ([`primitives`]: the pointer word [`CasPtr`] and the memory manager's
//! combined count-and-claim word [`RefClaim`]), the exponential
//! [`Backoff`] the paper recommends for contention management (§2.1),
//! the spin locks used as baselines ([`spinlock`]), and a
//! [`CachePadded`] helper to keep hot shared words on separate cache
//! lines. [`Sharded`] spreads statistics over per-thread
//! shards, and [`counter_table!`] declares a layer's counters once and
//! generates the snapshot, batch and sharded live types from that list.
//!
//! # Example
//!
//! ```
//! use valois_sync::CasPtr;
//!
//! let (mut a, mut b) = (7u32, 8u32);
//! let word = CasPtr::new(&mut a as *mut u32);
//! assert!(word.compare_and_swap(&mut a, &mut b), "swing a -> b");
//! assert!(!word.compare_and_swap(&mut a, &mut b), "stale old value");
//! assert_eq!(word.read(), &mut b as *mut u32);
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
pub use primitives::{CasPtr, RefClaim};
pub use sharded::Sharded;
pub use spinlock::{
    AndersonLock, ClhLock, Lock, LockGuard, LockKind, TasLock, TicketLock, TtasLock,
};
