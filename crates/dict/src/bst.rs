//! The binary search tree dictionary (paper §4.2, Fig. 14).
//!
//! "Each cell in the tree has a left and right auxiliary node between
//! itself and its subtrees (these auxiliary nodes are present even if the
//! subtree is empty). … insertion of new cells occurs only at the leaves
//! … adding new cells to the tree is fairly straightforward, involving
//! simply swinging the pointer in the auxiliary node at the leaf."
//!
//! # Our concretization of the §4.2 deletion sketch
//!
//! The paper describes deletion in prose and one figure; this module makes
//! it concrete (the choices are documented here and in DESIGN.md):
//!
//! * An **empty subtree** is an auxiliary node whose link is null.
//! * Every delete first wins a per-cell **gate** (`LIVE → DYING`, one CAS) —
//!   the linearization point; losers observe the key as already absent.
//!   Searches treat a `DYING` cell as a routing node only.
//! * **≤ 1 child** (the paper's "short circuit"): the gated deleter marks
//!   the empty side's terminal aux with the pinned `DEAD` sentinel (so the
//!   side can never gain a child), then *shunts*: the parent's aux is swung
//!   from the cell to the cell's live-side auxiliary node — an aux→aux
//!   link, exactly the paper's "shunting them to the other branch".
//!   Searches that run into `DEAD` *help* perform the shunt, which keeps
//!   these deletions lock-free even if the deleter stalls.
//! * **2 children** (Fig. 14): the gated deleter grafts the victim's left
//!   auxiliary node under the in-order successor's (empty) left aux —
//!   "swing the auxiliary node preceding its (empty) left child to point at
//!   the left subtree of the cell to be deleted" — then shunts the parent
//!   aux to the victim's right aux. Grafting the *aux* (not the subtree
//!   root cell) makes the victim's left link remain the single point of
//!   truth, so concurrent inserts into that subtree are never lost.
//!   If the chosen successor is itself `DYING` the deleter re-searches;
//!   two-child deletion is therefore obstruction-free rather than
//!   lock-free — the paper explicitly leaves this case's behaviour open
//!   ("the effect of this deletion method … is unknown").
//! * Chains of auxiliary nodes (left by shunts and grafts) are collapsed
//!   opportunistically during traversal, one CAS per adjacent pair, like
//!   the list's `Update` (the same frozen-chain argument applies: an aux
//!   whose link is an aux can never point at a cell again, so collapsing
//!   over it loses no updates).

use std::fmt;
use std::mem::MaybeUninit;
use valois_sync::shim::atomic::{AtomicU64, AtomicU8, Ordering};
use valois_sync::shim::cell::UnsafeCell;
use valois_sync::Backoff;

use valois_mem::{
    AllocError, Arena, ArenaConfig, Link, Managed, MemStats, NodeHeader, ReclaimedLinks,
};

use crate::traits::Dictionary;

const KIND_FREE: u8 = 0;
const KIND_AUX: u8 = 1;
const KIND_CELL: u8 = 2;
const KIND_DEAD: u8 = 3;

const LIVE: u8 = 0;
const DYING: u8 = 1;

/// Which side of a cell a descent takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// A tree node: an item cell (two side links, each always pointing at an
/// auxiliary node), an auxiliary node (one link in `left`), or the pinned
/// `DEAD` sentinel.
struct BstNode<K, V> {
    header: NodeHeader,
    kind: AtomicU8,
    /// Cells only: LIVE → DYING delete gate.
    del: AtomicU8,
    /// Cells: left side link (→ aux). Aux: its single outgoing link.
    left: Link<BstNode<K, V>>,
    /// Cells: right side link (→ aux). Aux/DEAD: unused.
    right: Link<BstNode<K, V>>,
    key: UnsafeCell<MaybeUninit<K>>,
    value: UnsafeCell<MaybeUninit<V>>,
}

// SAFETY: key/value slots follow the §5 ownership rules (exclusive at
// init/drain, shared reads only while counted and kind == CELL).
unsafe impl<K: Send + Sync, V: Send + Sync> Send for BstNode<K, V> {}
// SAFETY: as above — shared reads require a counted reference.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for BstNode<K, V> {}

impl<K, V> Default for BstNode<K, V> {
    fn default() -> Self {
        Self {
            header: NodeHeader::new_free(),
            kind: AtomicU8::new(KIND_FREE),
            del: AtomicU8::new(LIVE),
            left: Link::null(),
            right: Link::null(),
            key: UnsafeCell::new(MaybeUninit::uninit()),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

impl<K, V> BstNode<K, V> {
    fn kind(&self) -> u8 {
        self.kind.load(Ordering::Acquire)
    }

    fn is_dying(&self) -> bool {
        self.del.load(Ordering::Acquire) == DYING
    }

    fn side_link(&self, side: Side) -> &Link<BstNode<K, V>> {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    /// # Safety
    /// Counted reference held; kind == CELL.
    unsafe fn key(&self) -> &K {
        (*self.key.get()).assume_init_ref()
    }

    /// # Safety
    /// Counted reference held; kind == CELL.
    unsafe fn value(&self) -> &V {
        (*self.value.get()).assume_init_ref()
    }
}

impl<K: Send + Sync, V: Send + Sync> Managed for BstNode<K, V> {
    fn header(&self) -> &NodeHeader {
        &self.header
    }

    fn free_link(&self) -> &Link<Self> {
        &self.left
    }

    fn drain_links(&self) -> ReclaimedLinks<Self> {
        let mut links = ReclaimedLinks::new();
        links.push(self.left.swap(std::ptr::null_mut()));
        links.push(self.right.swap(std::ptr::null_mut()));
        if self.kind() == KIND_CELL {
            // SAFETY: claim winner at count zero — exclusive.
            unsafe {
                (*self.key.get()).assume_init_drop();
                (*self.value.get()).assume_init_drop();
            }
        }
        self.kind.store(KIND_FREE, Ordering::Release);
        links
    }

    fn links(&self) -> impl Iterator<Item = &Link<Self>> {
        [&self.left, &self.right].into_iter()
    }

    fn reset_for_alloc(&self) {
        self.left.write(std::ptr::null_mut());
        self.right.write(std::ptr::null_mut());
        self.del.store(LIVE, Ordering::Relaxed);
        debug_assert_eq!(self.kind(), KIND_FREE);
    }
}

/// Outcome of a tree search.
enum Search<K, V> {
    /// A live cell with the key; `in_aux` is the aux whose link is the cell
    /// (the "parent aux" needed for shunting). Both counted.
    Found {
        cell: *mut BstNode<K, V>,
        in_aux: *mut BstNode<K, V>,
    },
    /// Key absent; `terminal` (counted) is the aux whose link was null —
    /// the exact insertion point.
    NotFound { terminal: *mut BstNode<K, V> },
}

/// A non-blocking binary search tree dictionary (paper §4.2).
///
/// # Example
///
/// ```
/// use valois_dict::{Dictionary, BstDict};
///
/// let d: BstDict<i64, &str> = BstDict::new();
/// d.insert(2, "two");
/// d.insert(1, "one");
/// d.insert(3, "three");
/// assert_eq!(d.find(&1), Some("one"));
/// assert!(d.remove(&2), "internal node with two children");
/// assert_eq!(d.find(&2), None);
/// assert_eq!(d.find(&3), Some("three"));
/// ```
pub struct BstDict<K: Send + Sync, V: Send + Sync> {
    arena: Arena<BstNode<K, V>>,
    /// The tree entry: a counted link to the root auxiliary node
    /// (plays the role of a side link of a virtual super-cell).
    root: Link<BstNode<K, V>>,
    /// The pinned DEAD sentinel (counted by `dead_root` for its lifetime).
    dead_root: Link<BstNode<K, V>>,
    dead: *mut BstNode<K, V>,
    retries: AtomicU64,
}

// SAFETY: raw pointer fields are immutable after construction; shared
// state flows through the arena protocol.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for BstDict<K, V> {}
// SAFETY: as above — all shared mutation is CAS on counted links.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for BstDict<K, V> {}

impl<K, V> BstDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    /// Creates an empty tree with the default arena configuration.
    pub fn new() -> Self {
        Self::with_config(ArenaConfig::default())
    }

    /// Creates an empty tree with `config`.
    pub fn with_config(config: ArenaConfig) -> Self {
        let config = ArenaConfig {
            initial_capacity: config.initial_capacity.max(8),
            ..config
        };
        let arena: Arena<BstNode<K, V>> = Arena::with_config(config);
        let root_aux = arena.alloc().expect("pool too small");
        let dead = arena.alloc().expect("pool too small");
        let dict = Self {
            arena,
            root: Link::null(),
            dead_root: Link::null(),
            dead,
            retries: AtomicU64::new(0),
        };
        // SAFETY: single-threaded construction; fresh exclusive nodes.
        unsafe {
            (*root_aux).kind.store(KIND_AUX, Ordering::Release);
            (*dead).kind.store(KIND_DEAD, Ordering::Release);
            dict.arena.store_link(&dict.root, root_aux);
            dict.arena.store_link(&dict.dead_root, dead);
            dict.arena.release(root_aux);
            dict.arena.release(dead);
        }
        dict
    }

    fn bump_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Traversal primitives. Unsafe blocks rely on the §5 invariants: every
    // dereferenced pointer is counted; every link passed to the arena is a
    // counted link (side links of held cells, aux links of held auxes, or
    // the roots).
    // ------------------------------------------------------------------

    /// Walks the auxiliary chain hanging off `link` (a side link of a held
    /// cell, or the root), collapsing adjacent aux pairs opportunistically.
    /// Returns `(terminal_aux, value)` — both counted (`value` may be
    /// null = empty subtree); `value` is a cell or the DEAD sentinel.
    ///
    /// # Safety
    ///
    /// `link` must be a counted link the caller keeps alive for the call
    /// (a side link of a held cell, or one of the roots).
    unsafe fn walk_terminal(
        &self,
        link: &Link<BstNode<K, V>>,
    ) -> (*mut BstNode<K, V>, *mut BstNode<K, V>) {
        let mut a = self.arena.safe_read(link);
        debug_assert!(!a.is_null(), "side links always point at an aux");
        let mut v = self.arena.safe_read(&(*a).left);
        // WAIT-FREE: bounded by the aux-chain length; the collapse CAS is
        // one-shot per pair and its failure (someone else advanced) is
        // ignored, never retried in place.
        while !v.is_null() && (*v).kind() == KIND_AUX {
            // Collapse one aux of the frozen pair (list Fig. 5 line 7
            // analogue); failure means someone else already advanced.
            let _ = self.arena.swing(link, a, v);
            self.arena.release(a);
            a = v;
            v = self.arena.safe_read(&(*a).left);
        }
        (a, v)
    }

    /// Helps a stalled ≤1-child deletion: swings `in_aux`'s link from the
    /// dying `cell` to the cell's `live_side` auxiliary node.
    ///
    /// # Safety
    ///
    /// `cell` and `in_aux` must be counted references held by the caller.
    // GUARD: cell, in_aux — caller holds a count on each across the call.
    unsafe fn help_shunt(
        &self,
        cell: *mut BstNode<K, V>,
        in_aux: *mut BstNode<K, V>,
        live_side: Side,
    ) {
        let other = self.arena.safe_read((*cell).side_link(live_side));
        if !other.is_null() {
            let _ = self.arena.swing(&(*in_aux).left, cell, other);
            self.arena.release(other);
        }
    }

    /// Descends from the root looking for `key`.
    ///
    /// # Safety
    ///
    /// The dictionary must be alive (roots counted); the returned pointers
    /// are counted references the caller must release.
    unsafe fn search(&self, key: &K) -> Search<K, V> {
        'restart: loop {
            let (mut in_aux, mut cur) = self.walk_terminal(&self.root);
            loop {
                if cur.is_null() {
                    return Search::NotFound { terminal: in_aux };
                }
                debug_assert_ne!(
                    (*cur).kind(),
                    KIND_DEAD,
                    "DEAD is only reachable under its dying owner"
                );
                // cur is a cell.
                let side = {
                    let k = (*cur).key();
                    if key == k && !(*cur).is_dying() {
                        return Search::Found { cell: cur, in_aux };
                    }
                    if key < k {
                        Side::Left
                    } else {
                        Side::Right // includes key == k on a DYING cell
                    }
                };
                let (a, v) = self.walk_terminal((*cur).side_link(side));
                if !v.is_null() && (*v).kind() == KIND_DEAD {
                    // The side we want is the dying cell's dead side; its
                    // live side is the other one. Help and restart.
                    self.arena.release(v);
                    self.arena.release(a);
                    self.help_shunt(cur, in_aux, side.opposite());
                    self.arena.release(cur);
                    self.arena.release(in_aux);
                    self.bump_retry();
                    continue 'restart;
                }
                self.arena.release(in_aux);
                in_aux = a;
                self.arena.release(cur);
                cur = v;
            }
        }
    }

    fn insert_impl(&self, key: K, value: V) -> Result<bool, AllocError> {
        // SAFETY: §5 invariants as documented on the helpers.
        unsafe {
            // Cheap existence probe before paying for allocation.
            match self.search(&key) {
                Search::Found { cell, in_aux } => {
                    self.arena.release(cell);
                    self.arena.release(in_aux);
                    return Ok(false);
                }
                Search::NotFound { terminal } => self.arena.release(terminal),
            }
            // Prepare the cell with its two (empty) auxiliary nodes; the
            // retry loop reuses it (paper Fig. 12 allocates once). The
            // probe holds nothing any more, so on an exhausted pool the
            // shed can recycle everything reclaimable before one retry.
            let mut nodes = [std::ptr::null_mut(); 3];
            if self.arena.alloc_all(&mut nodes).is_err() {
                self.arena.shed_memory();
                self.arena.alloc_all(&mut nodes)?;
            }
            let [cell, la, ra] = nodes;
            (*la).kind.store(KIND_AUX, Ordering::Release);
            (*ra).kind.store(KIND_AUX, Ordering::Release);
            (*(*cell).key.get()).write(key);
            (*(*cell).value.get()).write(value);
            (*cell).kind.store(KIND_CELL, Ordering::Release);
            self.arena.store_link(&(*cell).left, la);
            self.arena.store_link(&(*cell).right, ra);
            self.arena.release(la);
            self.arena.release(ra);
            let mut backoff = Backoff::new();
            loop {
                let found = {
                    let key = (*cell).key();
                    self.search(key)
                };
                match found {
                    Search::Found {
                        cell: existing,
                        in_aux,
                    } => {
                        self.arena.release(existing);
                        self.arena.release(in_aux);
                        self.arena.release(cell); // drains key/value/auxes
                        return Ok(false);
                    }
                    Search::NotFound { terminal } => {
                        // The leaf insertion: one CAS on the empty aux
                        // ("simply swinging the pointer in the auxiliary
                        // node at the leaf").
                        if self
                            .arena
                            .swing(&(*terminal).left, std::ptr::null_mut(), cell)
                        {
                            self.arena.release(terminal);
                            self.arena.release(cell); // the tree link owns it now
                            return Ok(true);
                        }
                        self.arena.release(terminal);
                        self.bump_retry();
                        backoff.spin();
                    }
                }
            }
        }
    }

    fn remove_impl(&self, key: &K) -> bool {
        // SAFETY: §5 invariants as documented on the helpers.
        unsafe {
            let (cell, in_aux) = match self.search(key) {
                Search::NotFound { terminal } => {
                    self.arena.release(terminal);
                    return false;
                }
                Search::Found { cell, in_aux } => (cell, in_aux),
            };
            // The delete gate: unique winner, linearization point.
            if (*cell)
                .del
                .compare_exchange(LIVE, DYING, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                self.arena.release(cell);
                self.arena.release(in_aux);
                return false;
            }
            // We own cell's deletion. Classify (and reclassify if racing
            // inserts land in an empty side before we mark it).
            let mut backoff = Backoff::new();
            loop {
                let (lt_aux, lt) = self.walk_terminal(&(*cell).left);
                if lt.is_null() {
                    // Left empty: mark it, shunt parent to the right aux.
                    if self
                        .arena
                        .swing(&(*lt_aux).left, std::ptr::null_mut(), self.dead_ref())
                    {
                        self.arena.release(lt_aux);
                        self.finish_shunt(cell, in_aux, Side::Right);
                        return true;
                    }
                    self.arena.release(lt_aux);
                    self.bump_retry();
                    backoff.spin();
                    continue; // an insert landed; reclassify
                }
                let (rt_aux, rt) = self.walk_terminal(&(*cell).right);
                if rt.is_null() {
                    if self
                        .arena
                        .swing(&(*rt_aux).left, std::ptr::null_mut(), self.dead_ref())
                    {
                        self.arena.release(rt_aux);
                        self.arena.release(lt_aux);
                        self.arena.release(lt);
                        self.finish_shunt(cell, in_aux, Side::Left);
                        return true;
                    }
                    self.arena.release(rt_aux);
                    self.arena.release(lt_aux);
                    self.arena.release(lt);
                    self.bump_retry();
                    backoff.spin();
                    continue;
                }
                // Two children (Fig. 14): graft our left aux under the
                // in-order successor, then shunt to the right.
                let grafted = self.graft_under_successor(cell);
                self.arena.release(lt_aux);
                self.arena.release(lt);
                self.arena.release(rt_aux);
                self.arena.release(rt);
                if grafted {
                    self.finish_shunt(cell, in_aux, Side::Right);
                    return true;
                }
                self.bump_retry();
                backoff.spin();
            }
        }
    }

    /// Fig. 14 step: find the in-order successor (leftmost cell of the
    /// right subtree) and CAS its empty left terminal from null to the
    /// victim's left auxiliary node. Returns false to request a retry
    /// (successor dying or a raced CAS).
    ///
    /// # Safety
    ///
    /// `cell` must be a counted reference to the gated (DYING) victim.
    // GUARD: cell — caller holds a count on the victim across the call.
    unsafe fn graft_under_successor(&self, cell: *mut BstNode<K, V>) -> bool {
        let (ra, rv) = self.walk_terminal(&(*cell).right);
        self.arena.release(ra);
        if rv.is_null() || (*rv).kind() != KIND_CELL {
            // Right subtree vanished (became empty) — reclassify upstream.
            self.arena.release(rv);
            return false;
        }
        let mut s = rv;
        // WAIT-FREE: pure leftward descent, bounded by tree depth; the one
        // graft CAS is one-shot — on failure the *caller* reclassifies
        // (and backs off) rather than this loop retrying in place.
        loop {
            if (*s).is_dying() {
                // Successor being deleted: obstruction-free retry (the
                // paper leaves the 2-child case open; see module docs).
                self.arena.release(s);
                return false;
            }
            let (a, v) = self.walk_terminal(&(*s).left);
            if v.is_null() {
                // s is the successor; graft.
                let lfirst = self.arena.safe_read(&(*cell).left);
                debug_assert!(!lfirst.is_null());
                let ok = self.arena.swing(&(*a).left, std::ptr::null_mut(), lfirst);
                self.arena.release(lfirst);
                self.arena.release(a);
                self.arena.release(s);
                return ok;
            }
            if (*v).kind() == KIND_DEAD {
                // s's left is marked: s is mid-deletion.
                self.arena.release(v);
                self.arena.release(a);
                self.arena.release(s);
                return false;
            }
            // Descend left.
            self.arena.release(a);
            self.arena.release(s);
            s = v;
        }
    }

    /// Swings the parent aux from the dying cell to the cell's `live_side`
    /// auxiliary node, then releases the deleter's references. Helpers may
    /// have already done the swing (≤1-child case), so a failed CAS with a
    /// changed link is success.
    ///
    /// # Safety
    ///
    /// `cell` and `in_aux` must be counted references; this call consumes
    /// (releases) both.
    // GUARD: cell, in_aux — caller holds a count on each when calling;
    // both are consumed before return.
    unsafe fn finish_shunt(
        &self,
        cell: *mut BstNode<K, V>,
        in_aux: *mut BstNode<K, V>,
        live_side: Side,
    ) {
        let mut backoff = Backoff::new();
        loop {
            let other = self.arena.safe_read((*cell).side_link(live_side));
            debug_assert!(!other.is_null());
            let swung = self.arena.swing(&(*in_aux).left, cell, other);
            self.arena.release(other);
            if swung || (*in_aux).left.read() != cell {
                break;
            }
            self.bump_retry();
            backoff.spin();
        }
        self.arena.release(cell);
        self.arena.release(in_aux);
    }

    fn dead_ref(&self) -> *mut BstNode<K, V> {
        self.dead
    }

    fn find_impl<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        // SAFETY: §5 invariants as documented on the helpers.
        unsafe {
            match self.search(key) {
                Search::Found { cell, in_aux } => {
                    let r = f((*cell).value());
                    self.arena.release(cell);
                    self.arena.release(in_aux);
                    Some(r)
                }
                Search::NotFound { terminal } => {
                    self.arena.release(terminal);
                    None
                }
            }
        }
    }

    /// Runs `f` on the value stored under `key`, without cloning.
    pub fn with_value<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.find_impl(key, f)
    }

    /// In-order live keys (sorted by construction of the traversal).
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        // SAFETY: read-only counted traversal.
        unsafe {
            self.in_order(&self.root, &mut |cell| {
                if !(*cell).is_dying() {
                    out.push((*cell).key().clone());
                }
            });
        }
        out
    }

    /// Counted in-order traversal applying `f` to every reachable cell.
    /// Iterative (explicit stack of counted references): recursion would
    /// overflow on degenerate (spine-shaped) trees.
    ///
    /// # Safety
    ///
    /// `link` must be a counted link the caller keeps alive; `f` receives
    /// counted references valid only for the duration of each call.
    unsafe fn in_order(&self, link: &Link<BstNode<K, V>>, f: &mut impl FnMut(*mut BstNode<K, V>)) {
        enum Step<K2, V2> {
            /// Explore the subtree hanging off this (held) cell-or-root.
            Descend(*mut BstNode<K2, V2>),
            /// Visit this (held) cell, then explore its right side.
            Visit(*mut BstNode<K2, V2>),
        }
        // Resolve a side link (or the root) to its first cell, if any.
        let resolve = |link: &Link<BstNode<K, V>>| -> *mut BstNode<K, V> {
            let (a, v) = self.walk_terminal(link);
            self.arena.release(a);
            if v.is_null() {
                return std::ptr::null_mut();
            }
            if (*v).kind() == KIND_CELL {
                v
            } else {
                self.arena.release(v);
                std::ptr::null_mut()
            }
        };
        let mut stack: Vec<Step<K, V>> = Vec::new();
        let first = resolve(link);
        if !first.is_null() {
            stack.push(Step::Descend(first));
        }
        while let Some(step) = stack.pop() {
            match step {
                Step::Descend(cell) => {
                    // Left subtree first, then the cell itself.
                    stack.push(Step::Visit(cell));
                    let left = resolve(&(*cell).left);
                    if !left.is_null() {
                        stack.push(Step::Descend(left));
                    }
                }
                Step::Visit(cell) => {
                    f(cell);
                    let right = resolve(&(*cell).right);
                    self.arena.release(cell);
                    if !right.is_null() {
                        stack.push(Step::Descend(right));
                    }
                }
            }
        }
    }

    /// Total CAS retries across operations (the §4.2 extra-work measure —
    /// experiment E6).
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Memory-protocol counters (§5 traffic).
    pub fn mem_stats(&self) -> MemStats {
        self.arena.stats()
    }

    /// Quiescent invariant check (testing hook): in-order keys strictly
    /// sorted and no dying cells remain reachable.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check_invariants(&mut self) -> Result<(), String>
    where
        K: Clone + Ord,
    {
        let mut dying = 0usize;
        let mut keys = Vec::new();
        // SAFETY: &mut self — quiescent.
        unsafe {
            self.in_order(&self.root, &mut |cell| {
                if (*cell).is_dying() {
                    dying += 1;
                } else {
                    keys.push((*cell).key().clone());
                }
            });
        }
        if dying > 0 {
            return Err(format!("{dying} dying cells still reachable at quiescence"));
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err("in-order keys not strictly sorted".into());
        }
        Ok(())
    }

    /// Exact link-count audit over the `root` and `dead_root` links
    /// (testing hook; see [`Arena::audit_counts`]).
    ///
    /// # Errors
    ///
    /// Describes the first node whose count drifted.
    pub fn audit_refcounts(&mut self) -> Result<(), String> {
        let roots = [self.root.read(), self.dead_root.read()];
        self.arena.audit_counts(&roots)
    }
}

impl Side {
    fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

impl<K, V> Default for BstDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Send + Sync, V: Send + Sync> Drop for BstDict<K, V> {
    fn drop(&mut self) {
        // SAFETY: &mut self in drop — quiescent. Release roots, cascade,
        // then sweep anything a cycle kept alive.
        unsafe {
            let r = self.root.swap(std::ptr::null_mut());
            let d = self.dead_root.swap(std::ptr::null_mut());
            self.arena.release(r);
            self.arena.release(d);
        }
        self.arena.sweep_unreachable(&[]);
    }
}

impl<K, V> Dictionary<K, V> for BstDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        self.insert_impl(key, value)
    }

    fn remove(&self, key: &K) -> bool {
        self.remove_impl(key)
    }

    fn find(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.find_impl(key, V::clone)
    }

    fn contains(&self, key: &K) -> bool {
        self.find_impl(key, |_| ()).is_some()
    }

    fn len(&self) -> usize {
        let mut n = 0;
        // SAFETY: read-only counted traversal.
        unsafe {
            self.in_order(&self.root, &mut |cell| {
                if !(*cell).is_dying() {
                    n += 1;
                }
            });
        }
        n
    }
}

impl<K, V> fmt::Debug for BstDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BstDict")
            .field("len", &self.len())
            .field("retries", &self.retry_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let d: BstDict<i64, i64> = BstDict::new();
        for k in [50, 25, 75, 10, 30, 60, 90] {
            assert!(d.insert(k, k * 2));
        }
        for k in [50, 25, 75, 10, 30, 60, 90] {
            assert_eq!(d.find(&k), Some(k * 2));
        }
        assert_eq!(d.find(&99), None);
        assert_eq!(d.len(), 7);
    }

    #[test]
    fn duplicates_rejected() {
        let d: BstDict<u32, &str> = BstDict::new();
        assert!(d.insert(1, "a"));
        assert!(!d.insert(1, "b"));
        assert_eq!(d.find(&1), Some("a"));
    }

    #[test]
    fn delete_leaf() {
        let mut d: BstDict<i64, ()> = BstDict::new();
        for k in [2, 1, 3] {
            d.insert(k, ());
        }
        assert!(d.remove(&1));
        assert_eq!(d.keys(), vec![2, 3]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn delete_one_child_left() {
        let mut d: BstDict<i64, ()> = BstDict::new();
        for k in [5, 3, 2] {
            d.insert(k, ()); // 3 has only a left child (2)
        }
        assert!(d.remove(&3));
        assert_eq!(d.keys(), vec![2, 5]);
        assert_eq!(d.find(&2), Some(()));
        d.check_invariants().unwrap();
    }

    #[test]
    fn delete_one_child_right() {
        let mut d: BstDict<i64, ()> = BstDict::new();
        for k in [5, 3, 4] {
            d.insert(k, ()); // 3 has only a right child (4)
        }
        assert!(d.remove(&3));
        assert_eq!(d.keys(), vec![4, 5]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn delete_two_children_fig14() {
        // The Fig. 14 shape: F with left subtree and a right subtree whose
        // leftmost cell is the in-order successor.
        let mut d: BstDict<char, ()> = BstDict::new();
        for k in ['f', 'b', 'j', 'a', 'd', 'h', 'l', 'g', 'i'] {
            d.insert(k, ());
        }
        assert!(d.remove(&'f'));
        assert_eq!(
            d.keys(),
            vec!['a', 'b', 'd', 'g', 'h', 'i', 'j', 'l'],
            "in-order preserved after two-child delete"
        );
        d.check_invariants().unwrap();
        // Everything still findable.
        for k in ['a', 'b', 'd', 'g', 'h', 'i', 'j', 'l'] {
            assert!(d.contains(&k), "lost {k}");
        }
    }

    #[test]
    fn delete_root_repeatedly() {
        let mut d: BstDict<u32, ()> = BstDict::new();
        for k in [4, 2, 6, 1, 3, 5, 7] {
            d.insert(k, ());
        }
        // Delete in root-first order, exercising all deletion cases.
        for k in [4, 5, 6, 2, 1, 3, 7] {
            assert!(d.remove(&k), "remove {k}");
            d.check_invariants().unwrap();
        }
        assert!(d.is_empty());
    }

    #[test]
    fn sorted_insert_then_full_drain() {
        let mut d: BstDict<u32, u32> = BstDict::new();
        for k in 0..100 {
            d.insert(k, k); // degenerate right spine
        }
        assert_eq!(d.len(), 100);
        for k in 0..100 {
            assert!(d.remove(&k), "remove {k}");
        }
        assert!(d.is_empty());
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn random_churn_stays_sorted() {
        let mut d: BstDict<u64, u64> = BstDict::new();
        let mut x = 0x2545F491_4F6CDD1Du64;
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 128;
            if x & 0x100 == 0 {
                assert_eq!(d.insert(k, x), model.insert(k, x).is_none(), "insert {k}");
                if model.contains_key(&k) && d.find(&k).is_none() {
                    panic!("inserted key {k} not found");
                }
            } else {
                assert_eq!(d.remove(&k), model.remove(&k).is_some(), "remove {k}");
            }
        }
        let keys: Vec<u64> = model.keys().copied().collect();
        assert_eq!(d.keys(), keys);
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn reinsert_same_key_after_each_case() {
        let mut d: BstDict<i64, u32> = BstDict::new();
        // leaf
        d.insert(10, 0);
        assert!(d.remove(&10));
        assert!(d.insert(10, 1));
        assert_eq!(d.find(&10), Some(1));
        // one child
        d.insert(5, 0);
        assert!(d.remove(&10)); // 10 has left child 5
        assert!(d.insert(10, 2));
        // two children
        d.insert(20, 0);
        assert!(d.remove(&10));
        assert!(d.insert(10, 3));
        assert_eq!(d.find(&10), Some(3));
        d.check_invariants().unwrap();
        d.audit_refcounts().unwrap();
    }

    #[test]
    fn degenerate_spine_traversal_does_not_overflow() {
        // Ascending inserts build a pure right spine. Traverse it from a
        // thread with a deliberately tiny stack: a recursive in-order walk
        // would need one frame per level and overflow; the iterative walk
        // must not.
        let d: BstDict<u32, ()> = BstDict::new();
        let n = 3_000u32;
        for k in 0..n {
            d.insert(k, ());
        }
        std::thread::scope(|s| {
            let d = &d;
            let h = std::thread::Builder::new()
                .stack_size(64 * 1024)
                .spawn_scoped(s, move || d.keys())
                .unwrap();
            let keys = h.join().unwrap();
            assert_eq!(keys.len() as u32, n);
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
        });
    }

    #[test]
    fn drained_tree_memory_converges_under_traversal() {
        // Shunted-out aux chains are collapsed opportunistically by
        // traversals (one CAS per adjacent pair per pass); after a full
        // drain, repeated traversals must converge the structure back to
        // the 2-node skeleton (root aux + DEAD sentinel).
        let d: BstDict<u32, u32> = BstDict::new();
        let mut x = 0x5EED_BEEFu64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 48) as u32;
            if x & 2 == 0 {
                d.insert(k, k);
            } else {
                d.remove(&k);
            }
        }
        for k in 0..48 {
            d.remove(&k);
        }
        assert_eq!(d.len(), 0);
        let mut live = d.mem_stats().live_nodes();
        for _ in 0..64 {
            let _ = d.keys(); // collapse one chain pair per position
            let now = d.mem_stats().live_nodes();
            assert!(now <= live, "traversal must never grow live nodes");
            live = now;
            if live == 2 {
                break;
            }
        }
        assert_eq!(live, 2, "converged skeleton: root aux + DEAD sentinel only");
    }

    #[test]
    fn drop_releases_all_values() {
        use valois_sync::shim::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let d: BstDict<u32, Probe> = BstDict::new();
            for k in [5, 2, 8, 1, 3, 7, 9] {
                d.insert(k, Probe);
            }
            d.remove(&5);
            d.remove(&1);
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 7);
    }
}
