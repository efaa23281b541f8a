//! The list's node type: normal cells, auxiliary nodes, and the two
//! dummy cells (paper §3, Fig. 4), and the [`ListNode`] contract the §3
//! engine ([`Cursor`](crate::Cursor)) runs on.
//!
//! The paper distinguishes *normal cells* (carrying an item) from
//! *auxiliary nodes* ("a cell that contains only a `next` field"). Both are
//! backed by the same arena node type here — the §5.2 free list requires
//! all cells of one size class to be interchangeable — discriminated by a
//! kind tag set between `Alloc` and publication.
//!
//! A node type with several levels of links (the §4.1 skip list's towers)
//! implements [`ListNode`] too: each level is one Valois list, and the
//! same cursor code runs on every level.

use std::mem::MaybeUninit;
use valois_sync::shim::atomic::{AtomicU8, Ordering};
use valois_sync::shim::cell::UnsafeCell;

use valois_mem::{Link, Managed, NodeHeader, ReclaimedLinks};

/// Node discriminant. Stored as an atomic so invariant checkers may inspect
/// nodes at any time; it is only *written* while the writer has exclusive
/// ownership (post-alloc, pre-publish, or at reclamation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeKind {
    /// On the free list (or drained, awaiting push).
    Free = 0,
    /// Auxiliary node: only the `next` field is meaningful.
    Aux = 1,
    /// Normal cell carrying a value.
    Cell = 2,
    /// The first dummy cell (pointed at by the `First` root).
    FirstDummy = 3,
    /// The last dummy cell (pointed at by the `Last` root).
    LastDummy = 4,
}

impl NodeKind {
    fn from_u8(raw: u8) -> Self {
        match raw {
            1 => Self::Aux,
            2 => Self::Cell,
            3 => Self::FirstDummy,
            4 => Self::LastDummy,
            _ => Self::Free,
        }
    }

    /// "Normal cell" in the paper's sense: an item cell or a dummy —
    /// anything that is *not* an auxiliary node. (§3: "the list also
    /// contains two dummy cells as the first and last normal cells".)
    pub fn is_normal_cell(self) -> bool {
        matches!(self, Self::Cell | Self::FirstDummy | Self::LastDummy)
    }
}

/// A node of a Valois list with `LEVELS` levels of links: the contract
/// the §3 engine ([`Cursor`](crate::Cursor)) runs on.
///
/// A flat list's [`Node`] has one level. A skip-list tower cell is a
/// member of levels `0..height`, each an independent list with its own
/// `next[lvl]`/`back_link[lvl]`; an auxiliary node serves exactly one
/// level and answers its single link at every `lvl`.
///
/// # Safety
///
/// [`List`](crate::List) and [`Cursor`](crate::Cursor) dereference and
/// count through these accessors without further checks, so an
/// implementation must guarantee that `next(lvl)` and `back_link(lvl)`
/// are counted links of the node itself (an auxiliary node answering the
/// same link at every level) and among those [`Managed::links`] yields,
/// and that `item()` reads the slot written before the kind became
/// `Cell`.
pub unsafe trait ListNode: Managed + Default {
    /// The item a normal cell carries.
    type Item: Send + Sync;

    /// Levels of links per node (1 for a flat list).
    const LEVELS: usize;

    /// The kind discriminant (a [`NodeKind`] as `u8`), read and written
    /// through [`ListNode::kind`]/[`ListNode::set_kind`].
    fn tag(&self) -> &AtomicU8;

    /// The counted successor link at level `lvl`.
    fn next(&self, lvl: usize) -> &Link<Self>;

    /// The counted back link at level `lvl`, set by `TryDelete` (Fig. 10
    /// line 6) to the cell that preceded this one at that level.
    fn back_link(&self, lvl: usize) -> &Link<Self>;

    /// The item of a normal `Cell`.
    ///
    /// # Safety
    ///
    /// The caller must hold a protected reference (so the item cannot be
    /// dropped concurrently) and the node must be a `Cell`. Cell
    /// persistence (§2.2) makes this legal after the cell is deleted.
    unsafe fn item(&self) -> &Self::Item;

    /// The node's kind.
    fn kind(&self) -> NodeKind {
        // ORDER: Acquire — pairs with `set_kind`'s Release so a reader
        // that observes a kind also observes the initialization (value
        // write, link resets) that preceded the kind's publication.
        NodeKind::from_u8(self.tag().load(Ordering::Acquire))
    }

    /// Sets the discriminant. Caller must have exclusive logical ownership
    /// (freshly allocated, unpublished).
    fn set_kind(&self, kind: NodeKind) {
        // ORDER: Release — the discriminant is the last word written
        // during init (and the first during drain); it must publish every
        // prior field write to `kind()`'s Acquire load.
        self.tag().store(kind as u8, Ordering::Release);
    }

    /// Whether this is an auxiliary node.
    fn is_aux(&self) -> bool {
        self.kind() == NodeKind::Aux
    }

    /// Whether this is a normal cell (an item cell or a dummy).
    fn is_normal_cell(&self) -> bool {
        self.kind().is_normal_cell()
    }
}

/// A flat list node: either a normal cell, an auxiliary node, or a dummy.
///
/// Layout follows §2.1/§3: a `next` link, a `back_link` (added by §3 for
/// `TryDelete`'s recovery walk), the §5.1 header (`refct` + `claim`), and
/// an inline value slot used only by `Cell` nodes. Its fields are private
/// to this crate; it is public only as the default node of
/// [`List`](crate::List) and [`Cursor`](crate::Cursor).
pub struct Node<T> {
    header: NodeHeader,
    kind: AtomicU8,
    /// Counted link to the successor. Doubles as the free-list link when
    /// the node is free (Fig. 18 line 2 reuses `next`).
    pub(crate) next: Link<Node<T>>,
    /// Counted link set by `TryDelete` (Fig. 10 line 6) to the cell that
    /// preceded this one when it was deleted.
    pub(crate) back_link: Link<Node<T>>,
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: the value slot is only accessed under the protocol's ownership
// rules (exclusive at init/drop; shared reads only while the reader holds a
// counted reference and the node is a Cell), so a Node is as thread-safe as
// T itself.
unsafe impl<T: Send + Sync> Send for Node<T> {}
// SAFETY: as above — shared reads require a counted reference.
unsafe impl<T: Send + Sync> Sync for Node<T> {}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Self {
            header: NodeHeader::new_free(),
            kind: AtomicU8::new(NodeKind::Free as u8),
            next: Link::null(),
            back_link: Link::null(),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

impl<T: Send + Sync> std::fmt::Debug for Node<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.kind())
            .finish_non_exhaustive()
    }
}

// SAFETY: both accessors return the node's own counted links, and
// `item()` reads the slot `init_value` wrote before publishing the `Cell`
// kind.
unsafe impl<T: Send + Sync> ListNode for Node<T> {
    type Item = T;

    const LEVELS: usize = 1;

    fn tag(&self) -> &AtomicU8 {
        &self.kind
    }

    #[inline(always)]
    fn next(&self, _lvl: usize) -> &Link<Self> {
        &self.next
    }

    #[inline(always)]
    fn back_link(&self, _lvl: usize) -> &Link<Self> {
        &self.back_link
    }

    // SAFETY: the trait's contract — a protected reference on a `Cell`,
    // whose value slot was initialized before its kind was published.
    unsafe fn item(&self) -> &T {
        debug_assert_eq!(self.kind(), NodeKind::Cell);
        (*self.value.get()).assume_init_ref()
    }
}

impl<T: Send + Sync> Node<T> {
    /// Writes the value slot and marks the node a `Cell`.
    ///
    /// # Safety
    ///
    /// Caller must have exclusive ownership (unpublished) and the slot must
    /// be vacant.
    pub(crate) unsafe fn init_value(&self, value: T) {
        debug_assert_eq!(self.kind(), NodeKind::Free);
        (*self.value.get()).write(value);
        self.set_kind(NodeKind::Cell);
    }

    /// Moves the value out of a `Cell`, demoting it to a dummy (used by the
    /// queue's dequeue, where the winner of the head CAS gains the unique
    /// right to consume the cell's value).
    ///
    /// # Safety
    ///
    /// Caller must hold a counted reference, the node must be a `Cell`, and
    /// the caller must have won unique consume rights (no other process
    /// will ever read this cell's value slot).
    pub(crate) unsafe fn take_value(&self) -> T {
        debug_assert_eq!(self.kind(), NodeKind::Cell);
        // Demote first so a (protocol-violating) racer would read the kind
        // change before the moved-out slot.
        self.set_kind(NodeKind::FirstDummy);
        (*self.value.get()).assume_init_read()
    }
}

impl<T: Send + Sync> Managed for Node<T> {
    fn header(&self) -> &NodeHeader {
        &self.header
    }

    fn free_link(&self) -> &Link<Self> {
        &self.next
    }

    fn drain_links(&self) -> ReclaimedLinks<Self> {
        // Exclusive: we are the claim winner at count zero.
        let mut links = ReclaimedLinks::new();
        links.push(self.next.swap(std::ptr::null_mut()));
        links.push(self.back_link.swap(std::ptr::null_mut()));
        if self.kind() == NodeKind::Cell {
            // SAFETY: exclusive ownership; the slot was initialized when the
            // node became a Cell and is dropped exactly once here.
            unsafe { (*self.value.get()).assume_init_drop() };
        }
        self.set_kind(NodeKind::Free);
        links
    }

    fn links(&self) -> impl Iterator<Item = &Link<Self>> {
        [&self.next, &self.back_link].into_iter()
    }

    fn reset_for_alloc(&self) {
        // `next` held the free-list link whose count was transferred to the
        // free-list head at pop: null it *without* releasing.
        self.next.write(std::ptr::null_mut());
        self.back_link.write(std::ptr::null_mut());
        debug_assert_eq!(self.kind(), NodeKind::Free);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valois_mem::{Arena, ArenaConfig};

    #[test]
    fn kind_roundtrip() {
        let n: Node<u32> = Node::default();
        assert_eq!(n.kind(), NodeKind::Free);
        n.set_kind(NodeKind::Aux);
        assert!(n.is_aux());
        assert!(!n.is_normal_cell());
        n.set_kind(NodeKind::Cell);
        assert!(n.is_normal_cell());
    }

    #[test]
    fn dummies_are_normal_cells() {
        assert!(NodeKind::FirstDummy.is_normal_cell());
        assert!(NodeKind::LastDummy.is_normal_cell());
        assert!(!NodeKind::Aux.is_normal_cell());
        assert!(!NodeKind::Free.is_normal_cell());
    }

    #[test]
    fn value_lifecycle_drops_exactly_once() {
        use valois_sync::shim::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        // SAFETY in test: single-threaded exclusive use.
        unsafe impl Send for Probe {}
        unsafe impl Sync for Probe {}

        let arena: Arena<Node<Probe>> =
            Arena::with_config(ArenaConfig::new().initial_capacity(2).max_nodes(2));
        let p = arena.alloc().unwrap();
        unsafe {
            (*p).init_value(Probe);
            assert_eq!((*p).kind(), NodeKind::Cell);
            arena.release(p);
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 1, "reclaim drops the value");
        // Recycle as an aux node: no second drop.
        let q = arena.alloc().unwrap();
        assert_eq!(q, p);
        unsafe {
            (*q).set_kind(NodeKind::Aux);
            arena.release(q);
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drain_reports_both_links() {
        let arena: Arena<Node<u32>> =
            Arena::with_config(ArenaConfig::new().initial_capacity(4).max_nodes(4));
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        let c = arena.alloc().unwrap();
        unsafe {
            (*a).set_kind(NodeKind::Aux);
            arena.store_link(&(*a).next, b);
            arena.store_link(&(*a).back_link, c);
            arena.release(b);
            arena.release(c);
            // b and c are now held alive solely by a's links.
            arena.release(a);
        }
        assert_eq!(
            arena.live_nodes(),
            0,
            "drain must release both link targets"
        );
    }
}
