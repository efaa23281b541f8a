//! Memory management for the Valois lock-free list (paper §5).
//!
//! The paper's algorithms require three guarantees from the memory manager:
//!
//! 1. **Cell persistence** (§2.2): a cell deleted from the list must remain
//!    readable by processes still holding cursors to it.
//! 2. **ABA freedom** (§5.1): a cell must never be *reused* while any process
//!    still holds a pointer to it, so that `Compare&Swap` on pointers is
//!    safe without double-word tags.
//! 3. **Lock-free allocation** (§5.2): `Alloc`/`Reclaim` themselves must be
//!    non-blocking.
//!
//! All three are provided by the reference-counting protocol of Figs. 15–18:
//! [`Arena::safe_read`] (Fig. 15), [`Arena::release`] (Fig. 16),
//! [`Arena::alloc`] (Fig. 17) and the internal `Reclaim` (Fig. 18), built
//! over a **type-stable segmented arena**: node memory is owned by the
//! [`Arena`] and never returned to the OS while the arena lives, so even the
//! protocol's benign transient touches of recycled nodes are memory-safe.
//!
//! # The counting invariant
//!
//! A node's reference count (`refct`) is the number of:
//!
//! * *process references* — pointers returned by [`Arena::safe_read`] /
//!   [`Arena::incr_ref`] and not yet passed to [`Arena::release`], plus
//! * *link references* — counted pointer fields (other nodes' `next` /
//!   `back_link` fields, and structure roots) currently holding the node's
//!   address.
//!
//! Every CAS that swings a counted link must transfer counts; use
//! [`Arena::swing`] which increments the new target before the CAS and
//! releases the old target on success (undoing on failure).
//!
//! A node whose count reaches zero is unreachable and unprotected; the
//! `claim` Test&Set arbitrates concurrent observers of the zero so exactly
//! one reclaims it (Fig. 16). Reclamation drains the node's outgoing counted
//! links (releasing each — this is what makes counts exact) and pushes the
//! node onto the lock-free free list.
//!
//! # Corrections relative to the published pseudo-code
//!
//! The published Fig. 16/17 pseudo-code is known to be subtle; following the
//! spirit of Michael & Scott's 1995 correction note we make two ordering
//! choices, documented here because they are easy to get wrong:
//!
//! * **Reclaim adds, never stores.** When the claim winner pushes a node
//!   onto the free list it *adds* 1 to `refct` (the free list's incoming
//!   pointer) rather than storing 1. A store would erase a concurrent
//!   transient increment from a stale `SafeRead`, whose matching release
//!   would later underflow the count.
//! * **`claim` is cleared only by `Alloc`** (Fig. 17 line 8), at a moment
//!   when the allocator is the sole owner. While a node is free its `claim`
//!   stays set, so stale releases that race the push can never win a second
//!   reclamation.
//!
//! Debug builds assert count non-underflow and single-claim; the stress
//! tests in this crate and in `valois-core` hammer these paths.
//!
//! # Example: a managed node type
//!
//! A structure brings its own node layout; implementing [`Managed`] wires
//! it into the protocol. The contract: every counted reference obtained
//! from the arena is released exactly once, and links installed with
//! [`Arena::store_link`]/[`Arena::swing`] transfer counts automatically.
//!
//! ```
//! use valois_mem::{Arena, ArenaConfig, Link, Managed, NodeHeader, ReclaimedLinks};
//!
//! #[derive(Default)]
//! struct MyNode {
//!     header: NodeHeader,
//!     next: Link<MyNode>,
//!     value: std::sync::atomic::AtomicU64,
//! }
//!
//! impl Managed for MyNode {
//!     fn header(&self) -> &NodeHeader { &self.header }
//!     fn free_link(&self) -> &Link<Self> { &self.next }
//!     fn drain_links(&self) -> ReclaimedLinks<Self> {
//!         let mut links = ReclaimedLinks::new();
//!         links.push(self.next.swap(std::ptr::null_mut()));
//!         links
//!     }
//!     fn links(&self) -> impl Iterator<Item = &Link<Self>> {
//!         std::iter::once(&self.next)
//!     }
//!     fn reset_for_alloc(&self) {
//!         self.next.write(std::ptr::null_mut());
//!     }
//! }
//!
//! let arena: Arena<MyNode> =
//!     Arena::with_config(ArenaConfig::new().initial_capacity(8).max_nodes(8));
//! let a = arena.alloc()?;
//! let b = arena.alloc()?;
//! // SAFETY: a and b are counted references from this arena; store_link
//! // installs a counted link from the unpublished node `a` to `b`.
//! unsafe {
//!     arena.store_link(&(*a).next, b);
//!     arena.release(b); // our reference; the link keeps b alive
//!     arena.release(a); // cascades: reclaims a, then b
//! }
//! assert_eq!(arena.live_nodes(), 0);
//! # Ok::<(), valois_mem::AllocError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod defer;
pub mod epoch;
pub(crate) mod magazine;
pub mod managed;
pub mod reclaim;
pub mod segtable;
pub mod stats;

pub use arena::{AllocError, Arena, ArenaConfig, EpochGuard};
pub use defer::DeferredReleases;
pub use epoch::{DomainPin, EpochDomain};
pub use managed::{Link, Managed, NodeHeader, ReclaimedLinks, MAX_LINKS};
pub use reclaim::{Epoch, Reclaimer, RefCount};
pub use segtable::SegmentTable;
pub use stats::MemStats;
