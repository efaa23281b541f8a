//! The [`Managed`] trait: what a node type must provide for the §5 memory
//! manager to reference-count, reclaim, and recycle it.

use std::fmt;

use valois_sync::primitives::{CasPtr, RefClaim};
use valois_sync::shim::atomic::{AtomicUsize, Ordering};

/// Maximum number of counted outgoing links a node may report at
/// reclamation time. The list's cells have two (`next`, `back_link`); BST
/// cells have two (`left`, `right`); skip-list tower cells have two per
/// level (next + back link, up to 12 levels).
pub const MAX_LINKS: usize = 26;

/// A counted pointer field inside a node (`next`, `back_link`, roots).
///
/// This is just the paper's shared pointer word — [`CasPtr`] — renamed to
/// emphasize that *this location's current value contributes 1 to the
/// pointee's reference count*, an invariant maintained by
/// [`Arena::swing`](crate::Arena::swing) and the reclamation drain.
pub type Link<N> = CasPtr<N>;

/// Per-node bookkeeping required by the §5 protocol.
///
/// The paper gives each node a `refct` word (process references + incoming
/// counted links, see crate docs) and a separate `claim` Test&Set used by
/// `Release` (Fig. 16) to pick a single reclaimer among processes that
/// concurrently see the count reach zero. Keeping them in **separate words
/// is unsound**: a releaser can stall between its decrement-to-zero and its
/// `Test&Set`, and by the time it resumes the node may have been reclaimed
/// *and recycled* by others — its late `Test&Set` then sees the clear claim
/// of the new allocation and frees a live node. The model checker finds
/// this interleaving (see `valois-core/tests/loom_models.rs` and
/// [`RefClaim`]); we therefore store both in one word per the Michael &
/// Scott correction, and `Release` acquires the claim with a CAS that
/// requires the count to *still* be zero.
///
/// A freshly constructed header describes a **detached** node: count 0 and
/// claim set. The arena's free-list push then installs the free list's
/// incoming-pointer count (so on-free-list nodes always have count ≥ 1);
/// claim is cleared only by `Alloc` (Fig. 17 line 8).
pub struct NodeHeader {
    state: RefClaim,
    /// Limbo-stack link for the epoch backend (see [`crate::epoch`]).
    /// A dedicated word: `free_link` aliases the node's `next`, which must
    /// stay intact while the node sits in limbo so pinned readers can
    /// still traverse through it. Unused (zero) under the refcount
    /// backend.
    limbo_next: AtomicUsize,
    /// Global epoch observed when the node was retired into limbo
    /// (invariant I12: freed only once `retire_epoch + 2 <= horizon`).
    retire_epoch: AtomicUsize,
}

impl NodeHeader {
    /// Creates a header in the detached pre-free-list state (count 0,
    /// claim set).
    pub fn new_free() -> Self {
        Self {
            state: RefClaim::new_detached(),
            limbo_next: AtomicUsize::new(0),
            retire_epoch: AtomicUsize::new(0),
        }
    }

    /// `Fetch&Add(refct, +1)`: returns the previous count.
    pub fn incr_ref(&self) -> usize {
        self.state.incr_ref()
    }

    /// `Fetch&Add(refct, -1)`: returns the previous count.
    pub fn decr_ref(&self) -> usize {
        self.state.decr_ref()
    }

    /// Corrected claim arbitration (Fig. 16 lines 4-7): succeeds only if
    /// the count is still zero and the claim clear — atomically.
    pub fn try_claim(&self) -> bool {
        self.state.try_claim()
    }

    /// Unconditional claim for quiescent cycle collectors; returns the
    /// previous claim state.
    pub fn set_claim(&self) -> bool {
        self.state.set_claim()
    }

    /// Clears the claim (`Alloc`, Fig. 17 line 8); preserves the count
    /// bits (a stale `SafeRead` may hold a transient increment).
    pub fn clear_claim(&self) {
        self.state.clear_claim()
    }

    /// The current reference count.
    pub fn refcount(&self) -> usize {
        self.state.refcount()
    }

    /// The current claim state.
    pub fn claim_is_set(&self) -> bool {
        self.state.claim_is_set()
    }

    /// The limbo-stack successor (an address, 0 = end). Epoch backend only.
    pub fn limbo_next(&self) -> usize {
        // ORDER: Acquire — pairs with `set_limbo_next`'s publication via
        // the limbo head CAS (the collector walks what retire pushed).
        self.limbo_next.load(Ordering::Acquire)
    }

    /// Sets the limbo-stack successor. Called only by the limbo push/walk
    /// while the caller owns the node's limbo linkage.
    pub fn set_limbo_next(&self, next: usize) {
        // ORDER: Release — published to the collector by the head CAS.
        self.limbo_next.store(next, Ordering::Release);
    }

    /// The epoch this node was retired at (meaningful only in limbo).
    pub fn retire_epoch(&self) -> usize {
        self.retire_epoch.load(Ordering::Acquire)
    }

    /// Stamps the retirement epoch. Called by `EpochDomain::retire` while
    /// the retirer holds the claim.
    pub fn set_retire_epoch(&self, epoch: usize) {
        self.retire_epoch.store(epoch, Ordering::Release);
    }
}

impl Default for NodeHeader {
    fn default() -> Self {
        Self::new_free()
    }
}

impl fmt::Debug for NodeHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHeader")
            .field("refct", &self.refcount())
            .field("claim", &self.claim_is_set())
            .finish()
    }
}

/// Outgoing counted links collected from a node at reclamation time.
///
/// Fixed-capacity so the reclamation path never allocates for the common
/// case; see [`MAX_LINKS`].
pub struct ReclaimedLinks<N> {
    links: [*mut N; MAX_LINKS],
    len: usize,
}

impl<N> ReclaimedLinks<N> {
    /// An empty collection.
    pub fn new() -> Self {
        Self {
            links: [std::ptr::null_mut(); MAX_LINKS],
            len: 0,
        }
    }

    /// Records a drained link target. Null pointers are skipped.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_LINKS`] non-null links are pushed — that
    /// would mean the node type under-declared its link count and the
    /// protocol would leak references.
    pub fn push(&mut self, target: *mut N) {
        if target.is_null() {
            return;
        }
        assert!(
            self.len < MAX_LINKS,
            "node reported more than MAX_LINKS counted links"
        );
        self.links[self.len] = target;
        self.len += 1;
    }

    /// Number of recorded links.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no links were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the recorded targets.
    pub fn iter(&self) -> impl Iterator<Item = *mut N> + '_ {
        self.links[..self.len].iter().copied()
    }
}

impl<N> Default for ReclaimedLinks<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N> fmt::Debug for ReclaimedLinks<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReclaimedLinks")
            .field("len", &self.len)
            .finish()
    }
}

/// A node type managed by the [`Arena`](crate::Arena).
///
/// # Safety contract (enforced by convention, checked by tests)
///
/// * [`Managed::header`] must return the same header for the node's entire
///   life.
/// * [`Managed::free_link`] returns the pointer field the free list threads
///   through free nodes. The paper reuses the node's `next` field (Fig. 18
///   line 2 writes `p^.next`); implementations should do the same.
/// * [`Managed::drain_links`] is called exactly once per reclamation, by the
///   claim winner, when the count is zero (no other process can read the
///   node's fields). It must atomically take every *counted* outgoing link,
///   null the fields, drop any payload, and report the old targets so the
///   arena can release them.
/// * [`Managed::links`] yields, unchanged, the counted fields
///   `drain_links` takes (the `free_link` among them): the quiescent
///   audit counts them and the cycle sweep follows them.
/// * [`Managed::reset_for_alloc`] is called by `Alloc` while the allocator
///   is the sole owner, before the node is handed out.
pub trait Managed: Send + Sync {
    /// Reference-count / claim bookkeeping for this node.
    fn header(&self) -> &NodeHeader;

    /// The field the free list uses to chain free nodes.
    fn free_link(&self) -> &Link<Self>
    where
        Self: Sized;

    /// Takes all counted outgoing links and drops any payload; returns the
    /// old link targets for the arena to release.
    fn drain_links(&self) -> ReclaimedLinks<Self>
    where
        Self: Sized;

    /// Every counted link field of the node, read-only: the twin of
    /// [`Managed::drain_links`].
    fn links(&self) -> impl Iterator<Item = &Link<Self>>
    where
        Self: Sized;

    /// Re-initializes the node for a fresh life (clear payload slots, null
    /// links). Called with exclusive logical ownership.
    fn reset_for_alloc(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_starts_free() {
        let h = NodeHeader::new_free();
        assert_eq!(h.refcount(), 0);
        assert!(h.claim_is_set());
    }

    #[test]
    fn default_header_matches_new_free() {
        let h = NodeHeader::default();
        assert_eq!(h.refcount(), 0);
        assert!(h.claim_is_set());
    }

    #[test]
    fn reclaimed_links_skips_null() {
        let mut r: ReclaimedLinks<u8> = ReclaimedLinks::new();
        r.push(std::ptr::null_mut());
        assert!(r.is_empty());
        let mut x = 0u8;
        r.push(&mut x);
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap(), &mut x as *mut u8);
    }

    #[test]
    #[should_panic(expected = "MAX_LINKS")]
    fn reclaimed_links_overflow_panics() {
        let mut r: ReclaimedLinks<u8> = ReclaimedLinks::new();
        let mut xs = [0u8; MAX_LINKS + 1];
        for x in xs.iter_mut() {
            r.push(x as *mut u8);
        }
    }
}
