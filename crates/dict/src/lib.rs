//! Lock-free dictionaries built from the Valois linked list (paper §4).
//!
//! §4 of the paper shows the list as "a building block for other data
//! structures" and sketches four non-blocking dictionary implementations;
//! all four are here:
//!
//! * [`SortedListDict`] — a single sorted list (Figs. 11–13),
//! * [`HashDict`] — a hash table of sorted lists (§4.1; expected O(1)
//!   extra work),
//! * [`SkipListDict`] — a skip list as k sorted lists sharing cells
//!   (§4.1, after Pugh \[23, 24\]: bottom-up insertion, top-down deletion),
//! * [`BstDict`] — a binary search tree with auxiliary nodes on every
//!   child link (§4.2, Fig. 14 deletion).
//!
//! All implement the [`Dictionary`] trait so tests, baselines, and the
//! experiment harness are generic over implementations.
//!
//! The list-backed dictionaries ([`SortedListDict`], [`HashDict`],
//! [`ResizableHashDict`]) additionally take a reclamation-backend type
//! parameter (defaulting to the paper's counted protocol,
//! `valois_core::RefCount`); instantiate them with `valois_core::Epoch`
//! for uncounted traversal under epoch protection. [`SkipListDict`] and
//! [`BstDict`] manage multi-level/child links through backend-specific
//! counted invariants and stay on the counted backend.
//!
//! # Example
//!
//! ```
//! use valois_dict::{Dictionary, SortedListDict};
//!
//! let dict: SortedListDict<u32, String> = SortedListDict::new();
//! assert!(dict.insert(3, "three".into()));
//! assert!(!dict.insert(3, "again".into()), "keys are unique (§4.1)");
//! assert_eq!(dict.find(&3).as_deref(), Some("three"));
//! assert!(dict.remove(&3));
//! assert_eq!(dict.find(&3), None);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bst;
mod cursor_cache;
pub mod hash;
pub mod resizable;
pub mod skiplist;
pub mod sorted_list;
mod traits;

pub use bst::BstDict;
pub use hash::HashDict;
pub use resizable::ResizableHashDict;
pub use skiplist::SkipListDict;
pub use sorted_list::{Entry, SortedListDict};
pub use traits::Dictionary;
pub use valois_mem::AllocError;
