//! The list's node type: normal cells, auxiliary nodes, and the two
//! dummy cells (paper §3, Fig. 4).
//!
//! The paper distinguishes *normal cells* (carrying an item) from
//! *auxiliary nodes* ("a cell that contains only a `next` field"). Both are
//! backed by the same arena node type here — the §5.2 free list requires
//! all cells of one size class to be interchangeable — discriminated by a
//! kind tag set between `Alloc` and publication.
//!
//! A node with several levels of links is a §4.1 skip-list tower: each
//! level is one Valois list, and the same cursor code runs on every level.

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

/// A list node: a normal cell, an auxiliary node, or a dummy, with `L`
/// levels of links (one for a flat list).
///
/// Layout follows §2.1/§3: `next` links, `back_link`s (added by §3 for
/// `TryDelete`'s recovery walk), the §5.1 header (`refct` + `claim`), and
/// an inline value slot used only by `Cell` nodes. A §4.1 skip-list tower
/// cell is a member of levels `0..height`, each an independent list with
/// its own `next[lvl]`/`back_link[lvl]`; an auxiliary node serves exactly
/// one level and answers `next[0]` at every `lvl`. Its fields are private
/// to this crate; it is public as the node of [`List`](crate::List) and
/// [`Cursor`](crate::Cursor).
pub struct Node<T, const L: usize = 1> {
    header: NodeHeader,
    kind: AtomicU8,
    /// For a tower cell: the number of levels it spans (`1..=L`).
    height: AtomicU8,
    /// Counted links to the successor at each level. `next[0]` doubles as
    /// the free-list link when the node is free (Fig. 18 line 2 reuses
    /// `next`).
    next: [Link<Self>; L],
    /// Counted links set by `TryDelete` (Fig. 10 line 6) to the cell that
    /// preceded this one at each level when it was deleted there.
    back_link: [Link<Self>; L],
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: the value slot is only accessed under the protocol's ownership
// rules (exclusive at init/drop; shared reads only while the reader holds a
// counted reference and the node is a Cell), so a Node is as thread-safe as
// T itself.
unsafe impl<T: Send + Sync, const L: usize> Send for Node<T, L> {}
// SAFETY: as above — shared reads require a counted reference.
unsafe impl<T: Send + Sync, const L: usize> Sync for Node<T, L> {}

impl<T, const L: usize> Default for Node<T, L> {
    fn default() -> Self {
        Self {
            header: NodeHeader::new_free(),
            kind: AtomicU8::new(NodeKind::Free as u8),
            height: AtomicU8::new(0),
            next: std::array::from_fn(|_| Link::null()),
            back_link: std::array::from_fn(|_| Link::null()),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

impl<T: Send + Sync, const L: usize> std::fmt::Debug for Node<T, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.kind())
            .finish_non_exhaustive()
    }
}

impl<T: Send + Sync, const L: usize> Node<T, L> {
    /// The node's kind.
    pub fn kind(&self) -> NodeKind {
        // ORDER: Acquire — pairs with `set_kind`'s Release so a reader
        // that observes a kind also observes the initialization (value
        // write, link resets) that preceded the kind's publication.
        NodeKind::from_u8(self.kind.load(Ordering::Acquire))
    }

    /// Sets the discriminant. Caller must have exclusive logical ownership
    /// (freshly allocated, unpublished).
    pub fn set_kind(&self, kind: NodeKind) {
        // ORDER: Release — the discriminant is the last word written
        // during init (and the first during drain); it must publish every
        // prior field write to `kind()`'s Acquire load.
        self.kind.store(kind as u8, Ordering::Release);
    }

    /// Whether this is an auxiliary node.
    pub fn is_aux(&self) -> bool {
        self.kind() == NodeKind::Aux
    }

    /// Whether this is a normal cell (an item cell or a dummy).
    pub fn is_normal_cell(&self) -> bool {
        self.kind().is_normal_cell()
    }

    /// The counted successor link at level `lvl`. An auxiliary node serves
    /// one level, and its outgoing link is `next[0]` whichever that is;
    /// for a flat node (`L == 1`) the test folds away.
    #[inline(always)]
    pub fn next(&self, lvl: usize) -> &Link<Self> {
        if L == 1 || self.is_aux() {
            &self.next[0]
        } else {
            &self.next[lvl]
        }
    }

    /// The counted back link at level `lvl`, set by `TryDelete` (Fig. 10
    /// line 6) to the cell that preceded this one at that level.
    #[inline(always)]
    pub fn back_link(&self, lvl: usize) -> &Link<Self> {
        &self.back_link[if L == 1 { 0 } else { lvl }]
    }

    /// The number of levels a tower cell spans, as set by
    /// [`Node::set_height`] (0 until then).
    pub fn height(&self) -> usize {
        // ORDER: Acquire is belt-and-braces — the height is only ever
        // written before the node is published (the Release link CAS and
        // the counted reference a reader holds already order it); no
        // height store needs Release to pair with this.
        self.height.load(Ordering::Acquire) as usize
    }

    /// Records that a tower cell spans levels `0..height`. Caller must
    /// have exclusive logical ownership (freshly allocated, unpublished).
    pub fn set_height(&self, height: usize) {
        debug_assert!((1..=L).contains(&height), "height {height} of {L} levels");
        // ORDER: Relaxed — written before publication, which the link CAS
        // (Release) orders.
        self.height.store(height as u8, Ordering::Relaxed);
    }

    /// The item of a normal `Cell`.
    ///
    /// # Safety
    ///
    /// The caller must hold a protected reference (so the item cannot be
    /// dropped concurrently) and the node must be a `Cell`. Cell
    /// persistence (§2.2) makes this legal after the cell is deleted.
    pub unsafe fn item(&self) -> &T {
        debug_assert_eq!(self.kind(), NodeKind::Cell);
        (*self.value.get()).assume_init_ref()
    }

    /// Writes the value slot and marks the node a `Cell`.
    ///
    /// # Safety
    ///
    /// Caller must have exclusive ownership (unpublished) and the slot must
    /// be vacant.
    pub unsafe fn init_value(&self, value: T) {
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

impl<T: Send + Sync, const L: usize> Managed for Node<T, L> {
    fn header(&self) -> &NodeHeader {
        &self.header
    }

    fn free_link(&self) -> &Link<Self> {
        &self.next[0]
    }

    fn drain_links(&self) -> ReclaimedLinks<Self> {
        // Exclusive: we are the claim winner at count zero.
        let mut links = ReclaimedLinks::new();
        for l in self.links() {
            links.push(l.swap(std::ptr::null_mut()));
        }
        if self.kind() == NodeKind::Cell {
            // SAFETY: exclusive ownership; the slot was initialized when the
            // node became a Cell and is dropped exactly once here.
            unsafe { (*self.value.get()).assume_init_drop() };
        }
        self.set_kind(NodeKind::Free);
        links
    }

    fn links(&self) -> impl Iterator<Item = &Link<Self>> {
        self.next.iter().chain(&self.back_link)
    }

    fn reset_for_alloc(&self) {
        // `next[0]` held the free-list link whose count was transferred to
        // the free-list head at pop: null it *without* releasing.
        for l in self.links() {
            l.write(std::ptr::null_mut());
        }
        // ORDER: Relaxed — the node is exclusively owned until published.
        self.height.store(0, Ordering::Relaxed);
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
            arena.store_link((*a).next(0), b);
            arena.store_link((*a).back_link(0), c);
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

    #[cfg(all(target_pointer_width = "64", not(loom)))]
    #[test]
    fn height_byte_sits_in_padding() {
        use std::mem::size_of;
        assert_eq!(size_of::<Node<u64>>(), 56);
        assert_eq!(size_of::<Node<(u64, u64), 12>>(), 240);
    }

    #[test]
    fn aux_answers_next_0_at_every_level() {
        let n: Node<(u64, u64), 12> = Node::default();
        n.set_kind(NodeKind::Aux);
        for lvl in 0..12 {
            assert!(std::ptr::eq(n.next(lvl), &n.next[0]), "aux at {lvl}");
        }
        n.set_kind(NodeKind::Cell);
        for lvl in 0..12 {
            assert!(std::ptr::eq(n.next(lvl), &n.next[lvl]), "cell at {lvl}");
        }
    }
}
