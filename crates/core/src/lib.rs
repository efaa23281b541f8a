//! The lock-free singly-linked list of Valois, *"Lock-Free Linked Lists
//! Using Compare-and-Swap"* (PODC 1995) — paper §3.
//!
//! This crate implements the paper's primary contribution: a singly-linked
//! list that any number of threads may traverse, insert into, and delete
//! from at arbitrary positions, **without mutual exclusion**, using only
//! single-word `Compare&Swap` (plus `Test&Set`/`Fetch&Add`, themselves
//! CAS-expressible). The two classic two-word hazards — an insert adjacent
//! to a concurrent delete being lost (Fig. 2) and adjacent deletes undoing
//! each other (Fig. 3) — are defeated by *auxiliary nodes*: every normal
//! cell has an auxiliary node as predecessor and successor, so insertion
//! and deletion CAS distinct words.
//!
//! Memory is managed by `valois-mem` (the paper's §5 `SafeRead`/`Release`
//! protocol), which also solves the ABA problem and *cell persistence*
//! (deleted cells stay readable through cursors that still visit them).
//!
//! # Example
//!
//! ```
//! use valois_core::List;
//!
//! let list: List<u64> = List::new();
//! std::thread::scope(|s| {
//!     let list = &list;
//!     for t in 0..4u64 {
//!         s.spawn(move || {
//!             let mut cur = list.cursor();
//!             cur.insert(t).unwrap();
//!         });
//!     }
//! });
//! assert_eq!(list.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adt;
pub mod channel;
pub mod cursor;
pub mod entry;
pub mod list;
mod node;
pub mod queue;
mod stats;

pub use adt::{PriorityQueue, Stack};
pub use cursor::Cursor;
pub use entry::{EntryRoot, HINT_ROUND};
pub use list::{AuxChainReport, Iter, List, PreparedInsert};
pub use node::{Node, NodeKind};
pub use queue::FifoQueue;
pub use stats::ListStats;
pub use valois_mem::{AllocError, ArenaConfig, Epoch, MemStats, Reclaimer, RefCount};
