//! The lock-free singly-linked list (paper §3).
//!
//! A [`List`] owns a type-stable node arena and the two root pointers
//! `First` and `Last`. An empty list is two dummy cells separated by one
//! auxiliary node (Fig. 4):
//!
//! ```text
//! First ──▶ [first dummy] ──▶ (aux) ──▶ [last dummy] ◀── Last
//! ```
//!
//! All access goes through [`Cursor`]s (§2.1): traversal, insertion before
//! the cursor's position, and deletion of the visited item.
//!
//! The level count is a parameter: nodes with `k` levels of links make
//! the same `List` a collection of `k` lists over shared dummies — the
//! §4.1 skip list's levels — with one arena, one set of counters, one
//! reference-count audit and one cycle sweep.

use std::fmt;

use valois_mem::{AllocError, Arena, ArenaConfig, Managed, MemStats, Reclaimer, RefCount};

use crate::cursor::Cursor;
use crate::node::{Node, NodeKind};
use crate::stats::{ListCounters, ListStats};

/// A lock-free singly-linked list of `T` (Valois, PODC 1995, §3).
///
/// Any number of threads may concurrently traverse, insert, and delete at
/// arbitrary positions through [`Cursor`]s; all operations are non-blocking
/// (a stalled thread cannot prevent others from completing).
///
/// # Example
///
/// ```
/// use valois_core::List;
///
/// let list: List<i32> = List::new();
/// let mut cur = list.cursor();
/// cur.insert(2).unwrap();
/// cur.insert(1).unwrap(); // inserts before the cursor position
/// let collected: Vec<i32> = list.iter().collect();
/// assert_eq!(collected, vec![1, 2]);
/// ```
///
/// # Reclamation backends
///
/// The second type parameter selects the memory-reclamation backend
/// (see [`valois_mem::Reclaimer`]): the paper-faithful counted
/// [`RefCount`] default, or [`valois_mem::Epoch`], under which cursor
/// traversal takes no shared-memory RMWs per hop — the cursor pins an
/// epoch for its lifetime instead. The list algorithms are identical;
/// only the protection of *process* references changes. Link counts
/// (the structure's own `next`/`back_link`/root counts) are maintained
/// under both backends.
///
/// ```
/// use valois_core::List;
/// use valois_mem::Epoch;
///
/// let list: List<i32, Epoch> = List::new();
/// list.push_front(1).unwrap();
/// assert_eq!(list.iter().collect::<Vec<_>>(), vec![1]);
/// ```
///
/// # Levels
///
/// The third parameter `L` is the number of levels of links per
/// [`Node`], 1 by default. `L = k` makes this `k` lists that share the
/// two dummies (the §4.1 skip list, whose towers are `Node<T, k>`);
/// [`List::level_cursor`] opens a cursor on any one of them.
pub struct List<T: Send + Sync, R: Reclaimer = RefCount, const L: usize = 1> {
    pub(crate) arena: Arena<Node<T, L>, R>,
    /// `First` root (counted): points at the first dummy cell, immutable
    /// after construction.
    first_root: valois_mem::Link<Node<T, L>>,
    /// `Last` root (counted): points at the last dummy cell.
    last_root: valois_mem::Link<Node<T, L>>,
    /// Stable raw copies for pointer comparisons (the dummies are never
    /// reclaimed while the list lives — the roots hold counts).
    first: *mut Node<T, L>,
    last: *mut Node<T, L>,
    counters: ListCounters,
}

// SAFETY: all shared state is managed through the arena protocol and
// atomics; raw pointer fields are immutable after construction.
unsafe impl<T: Send + Sync, R: Reclaimer, const L: usize> Send for List<T, R, L> {}
// SAFETY: as above — shared access goes through the same protocol paths.
unsafe impl<T: Send + Sync, R: Reclaimer, const L: usize> Sync for List<T, R, L> {}

impl<T: Send + Sync, R: Reclaimer, const L: usize> List<T, R, L> {
    /// Creates an empty list with the default arena configuration.
    pub fn new() -> Self {
        Self::with_config(ArenaConfig::default())
    }

    /// Creates an empty list with `config`: the two dummy cells and, per
    /// level, one auxiliary node between them (Fig. 4, `L` times over).
    ///
    /// # Panics
    ///
    /// Panics if `config` caps the pool below the `L + 2` nodes
    /// an empty list needs.
    pub fn with_config(config: ArenaConfig) -> Self {
        let config = ArenaConfig {
            initial_capacity: config.initial_capacity.max(L + 7),
            ..config
        };
        let arena: Arena<Node<T, L>, R> = Arena::with_config(config);
        let first = arena.alloc().expect("pool too small for an empty list");
        let last = arena.alloc().expect("pool too small for an empty list");
        let list = Self {
            arena,
            first_root: valois_mem::Link::null(),
            last_root: valois_mem::Link::null(),
            first,
            last,
            counters: ListCounters::default(),
        };
        // SAFETY: construction is single-threaded; the nodes are fresh and
        // exclusively owned until `list` is returned.
        unsafe {
            (*first).set_kind(NodeKind::FirstDummy);
            (*last).set_kind(NodeKind::LastDummy);
            list.arena.store_link(&list.first_root, first);
            list.arena.store_link(&list.last_root, last);
            for lvl in 0..L {
                let aux = list
                    .arena
                    .alloc()
                    .expect("pool too small for an empty list");
                (*aux).set_kind(NodeKind::Aux);
                list.arena.store_link((*first).next(lvl), aux);
                list.arena.store_link((*aux).next(lvl), last);
                list.arena.release(aux);
            }
            // Drop the allocation references; counts are now exactly the
            // incoming links: first=1 (root), each aux=1 (first.next),
            // last=1+L (root + every aux.next).
            list.arena.release(first);
            list.arena.release(last);
        }
        list
    }

    /// Opens a cursor visiting the first item (Fig. 6), or the end position
    /// if the list is empty.
    pub fn cursor(&self) -> Cursor<'_, T, R, L> {
        self.level_cursor(0)
    }

    /// Opens a cursor visiting the first item of level `lvl` (Fig. 6 on
    /// that level's links).
    ///
    /// # Panics
    ///
    /// Panics if `lvl >= L`.
    pub fn level_cursor(&self, lvl: usize) -> Cursor<'_, T, R, L> {
        assert!(lvl < L, "level {lvl} out of range");
        Cursor::at_first(self, lvl)
    }

    /// Operation-scoped cursor access: opens a cursor at the first
    /// position, runs `f`, and drops the cursor before returning — the
    /// protection window (refcounts, or the epoch pin under
    /// [`valois_mem::Epoch`]) opens and closes *inside* the call.
    ///
    /// This is the API service layers should reach for:
    /// `Cursor<'_, T, Epoch>` is deliberately `!Send` (its pin lives in
    /// the creating thread's epoch slot), so a worker thread must open
    /// and close cursors locally rather than receive them from
    /// elsewhere. `with_cursor` makes that pattern a one-liner and makes
    /// it impossible to park a pinned cursor across requests — the
    /// stall that `epoch_pin_lag` exists to catch.
    ///
    /// ```
    /// use valois_core::List;
    /// use valois_mem::Epoch;
    ///
    /// let list: List<u64, Epoch> = (0..8).collect();
    /// let sum = list.with_cursor(|cur| {
    ///     let mut sum = 0;
    ///     while let Some(&v) = cur.get() {
    ///         sum += v;
    ///         if !cur.next() {
    ///             break;
    ///         }
    ///     }
    ///     sum
    /// });
    /// assert_eq!(sum, 28);
    /// ```
    ///
    /// The `!Send` contract itself is pinned by a compile-fail test: an
    /// epoch cursor cannot cross threads…
    ///
    /// ```compile_fail,E0277
    /// use valois_core::List;
    /// use valois_mem::Epoch;
    ///
    /// fn assert_send<T: Send>(_: T) {}
    /// let list: List<u64, Epoch> = List::new();
    /// assert_send(list.cursor()); // ERROR: `Cursor<'_, u64, Epoch>` is `!Send`
    /// ```
    ///
    /// …while the paper-faithful refcount cursor still can:
    ///
    /// ```
    /// use valois_core::List;
    ///
    /// fn assert_send<T: Send>(_: T) {}
    /// let list: List<u64> = List::new();
    /// assert_send(list.cursor()); // RefCount cursors are Send
    /// ```
    pub fn with_cursor<O>(&self, f: impl FnOnce(&mut Cursor<'_, T, R, L>) -> O) -> O {
        let mut cursor = self.cursor();
        f(&mut cursor)
    }

    /// Visits every item currently reachable, front to back.
    ///
    /// Under concurrency this is a linearizable traversal in the paper's
    /// sense: each step is atomic, but the sequence reflects the list as it
    /// evolves.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        let mut cursor = self.cursor();
        while !cursor.is_at_end() {
            if let Some(v) = cursor.get() {
                f(v);
            }
            if !cursor.next() {
                break;
            }
        }
    }

    /// Counts the items currently in the list. O(n); under concurrency the
    /// result is a snapshot-ish approximation (as any concurrent size is).
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.for_each(|_| n += 1);
        n
    }

    /// Whether the list currently has no items.
    pub fn is_empty(&self) -> bool {
        let cursor = self.cursor();
        cursor.is_at_end()
    }

    /// Snapshot of list-operation counters (retries, auxiliary-node
    /// overhead — the §4.1 "extra work" quantities).
    ///
    /// Cursors batch their events and fold them in when dropped; a
    /// still-live cursor's recent operations may not be visible yet
    /// (see [`Cursor::flush_stats`]).
    pub fn stats(&self) -> ListStats {
        self.counters.snapshot()
    }

    /// Snapshot of the underlying memory-protocol counters (§5 traffic).
    /// Subject to the same cursor-batching caveat as [`List::stats`].
    pub fn mem_stats(&self) -> MemStats {
        self.arena.stats()
    }

    /// Total nodes owned by the backing arena (free + live).
    pub fn node_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Memory-pressure shed: flushes every lockable per-thread magazine
    /// back to the global free list and, under the epoch backend, runs
    /// bounded advance+sweep rounds over the limbo list. Returns nodes
    /// made allocatable. The retry contract for a capped pool: on
    /// [`AllocError`](valois_mem::AllocError), drop every live cursor
    /// (their epoch pins block the grace period), `shed_memory`, retry
    /// once — see [`Arena::shed_memory`](valois_mem::Arena::shed_memory).
    pub fn shed_memory(&self) -> usize {
        self.arena.shed_memory()
    }

    /// Quiescent reference-count audit over the `First` and `Last` roots
    /// ([`Arena::audit_counts`]): at quiescence (`&mut self`: no cursors,
    /// no operations in flight) any mismatch is a leaked or
    /// double-released reference somewhere in the §5 implementation.
    ///
    /// # Errors
    ///
    /// Describes the first mismatching node.
    pub fn audit_refcounts(&mut self) -> Result<(), String> {
        self.arena.audit_counts(&[self.first, self.last])
    }

    /// Quiescent cycle collection (see DESIGN.md §1 note 3): returns every
    /// node unreachable from the `First` and `Last` roots to the free list
    /// ([`Arena::sweep_unreachable`]) and reports how many. Retire
    /// published entry roots first: they are not declared here.
    pub fn quiescent_collect(&mut self) -> usize {
        self.arena.sweep_unreachable(&[self.first, self.last])
    }

    // ------------------------------------------------------------------
    // Crate-internal accessors for Cursor / PreparedInsert.
    // ------------------------------------------------------------------

    /// The node arena: structures that build their own nodes over this
    /// list (the skip list's towers) allocate and count through it.
    pub fn arena(&self) -> &Arena<Node<T, L>, R> {
        &self.arena
    }

    pub(crate) fn first_root(&self) -> &valois_mem::Link<Node<T, L>> {
        &self.first_root
    }

    pub(crate) fn last_ptr(&self) -> *mut Node<T, L> {
        self.last
    }

    /// Verifies the §3 structural invariants of level `lvl` at quiescence
    /// (test helper): following `next(lvl)`, the list must be
    /// `FirstDummy (Aux Cell)* Aux LastDummy` — every normal cell with an
    /// auxiliary node as predecessor and successor, and no chains of
    /// auxiliary nodes. A plain list has one level, `0`.
    ///
    /// Requires `&mut self` so the borrow checker guarantees no live
    /// cursors or concurrent operations. The walk stops after one hop per
    /// arena node, since more hops than nodes means a cycle.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_structure(&mut self, lvl: usize) -> Result<(), String> {
        let nodes = self.arena.capacity();
        // SAFETY: &mut self guarantees quiescence; raw walks are exclusive.
        unsafe {
            let mut p = self.first;
            if (*p).kind() != NodeKind::FirstDummy {
                return Err("First root does not point at the first dummy".into());
            }
            let mut expect_aux = true;
            for _ in 0..nodes {
                let n = (*p).next(lvl).read();
                if n.is_null() {
                    return Err(format!("unexpected null next after kind {:?}", (*p).kind()));
                }
                match (*n).kind() {
                    NodeKind::Aux => {
                        if !expect_aux {
                            return Err("chain of two auxiliary nodes at quiescence".into());
                        }
                        expect_aux = false;
                    }
                    NodeKind::Cell => {
                        if expect_aux {
                            return Err("cell without auxiliary predecessor".into());
                        }
                        expect_aux = true;
                    }
                    NodeKind::LastDummy => {
                        if expect_aux {
                            return Err("last dummy without auxiliary predecessor".into());
                        }
                        return Ok(());
                    }
                    k => return Err(format!("unexpected node kind {k:?} in list")),
                }
                p = n;
            }
        }
        Err(format!("no last dummy within {nodes} hops (cycle)"))
    }

    pub(crate) fn absorb(&self, tally: &mut ListStats) {
        if !tally.is_empty() {
            self.counters.absorb(tally);
        }
    }
}

impl<T: Send + Sync, R: Reclaimer> List<T, R> {
    /// Allocates and initializes a cell + auxiliary node pair ready for
    /// [`Cursor::try_insert`]. The pair can be retried across cursor
    /// updates without reallocation (as the paper's `Insert`, Fig. 12,
    /// allocates once outside its retry loop).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the node pool is exhausted and capped.
    pub fn prepare_insert(&self, value: T) -> Result<PreparedInsert<'_, T, R>, AllocError> {
        self.try_prepare_insert(value).map_err(|(_, e)| e)
    }

    /// [`List::prepare_insert`] that hands the value back on failure, so
    /// callers holding reclaimable references (a cursor with parked
    /// deferred releases, a cached-cursor slot pinning an anchor) can
    /// free nodes and retry without losing it.
    ///
    /// # Errors
    ///
    /// Returns the value together with the [`AllocError`] when the node
    /// pool is exhausted and capped.
    // COUNT: the two fresh Alloc counts transfer into the returned
    // `PreparedInsert { cell, aux }`; its Drop (abandon) or publication
    // (try_insert) consumes them.
    pub fn try_prepare_insert(
        &self,
        value: T,
    ) -> Result<PreparedInsert<'_, T, R>, (T, AllocError)> {
        let mut pair = [std::ptr::null_mut(); 2];
        if let Err(e) = self.arena.alloc_all(&mut pair) {
            return Err((value, e));
        }
        let [cell, aux] = pair;
        // SAFETY: both nodes fresh, unpublished.
        unsafe {
            (*cell).init_value(value);
            (*aux).set_kind(NodeKind::Aux);
        }
        Ok(PreparedInsert {
            list: self,
            cell,
            aux,
        })
    }

    /// Inserts `value` at the front of the list.
    ///
    /// # Example
    ///
    /// ```
    /// use valois_core::List;
    /// let list: List<u32> = List::new();
    /// list.push_front(2)?;
    /// list.push_front(1)?;
    /// assert_eq!(list.iter().collect::<Vec<_>>(), vec![1, 2]);
    /// # Ok::<(), valois_core::AllocError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the node pool is exhausted and capped.
    pub fn push_front(&self, value: T) -> Result<(), AllocError> {
        let mut cursor = self.cursor();
        cursor.insert(value)
    }

    /// Visits every item **without** `SafeRead` protection — a raw pointer
    /// walk over the same memory layout. Requires `&mut self`, so the
    /// borrow checker provides the quiescence that the §5 protocol
    /// otherwise would. This is the experiment E8 ablation handle: the
    /// throughput difference between this and [`List::for_each`] is the
    /// cost of `SafeRead`/`Release`, which §6 calls "the most time
    /// consuming operation".
    pub fn for_each_unprotected(&mut self, mut f: impl FnMut(&T)) {
        // SAFETY: &mut self — no concurrent operations; nodes are alive
        // for the arena's lifetime.
        unsafe {
            let mut p = self.first;
            loop {
                let n = (*p).next(0).read();
                if n.is_null() {
                    break;
                }
                p = n;
                match (*p).kind() {
                    NodeKind::Cell => f((*p).item()),
                    NodeKind::LastDummy => break,
                    _ => {}
                }
            }
        }
    }

    /// Iterates over cloned items, front to back.
    pub fn iter(&self) -> Iter<'_, T, R>
    where
        T: Clone,
    {
        Iter {
            cursor: self.cursor(),
            done: false,
        }
    }

    /// Deletes every item for which `pred` returns `false`, concurrently
    /// safe (each deletion is an independent `TryDelete` with the standard
    /// retry discipline). Returns the number of items removed by *this*
    /// call.
    ///
    /// # Example
    ///
    /// ```
    /// use valois_core::List;
    /// let list: List<u32> = (0..10).collect();
    /// assert_eq!(list.retain(|v| v % 2 == 0), 5);
    /// assert_eq!(list.iter().collect::<Vec<_>>(), vec![0, 2, 4, 6, 8]);
    /// ```
    pub fn retain(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let mut removed = 0;
        let mut cursor = self.cursor();
        loop {
            let keep = match cursor.get() {
                None => {
                    if cursor.is_at_end() {
                        break;
                    }
                    true
                }
                Some(v) => pred(v),
            };
            if keep {
                if !cursor.next() {
                    break;
                }
            } else if cursor.try_delete() {
                removed += 1;
                cursor.update();
            } else {
                cursor.update();
            }
        }
        removed
    }

    /// Walks the list and reports auxiliary-node structure: the §3 theorem
    /// says chains of ≥ 2 auxiliary nodes exist **only while a `TryDelete`
    /// is in progress**, so after all operations complete
    /// [`AuxChainReport::runs_ge2`] must be 0 (verified by
    /// `aux_chain_theorem_holds_at_quiescence` and experiment E7).
    ///
    /// Safe to call concurrently (the walk is a protected traversal); the
    /// report is then a live sample rather than a ground truth. The walk
    /// stops at [`List::check_invariants`]' hop bound, so a cyclic chain
    /// yields a partial report rather than a hang.
    pub fn aux_chain_report(&self) -> AuxChainReport {
        let mut report = AuxChainReport::default();
        // The guard is the epoch backend's protection for the whole walk
        // (no-op under refcount, where the safe_read counts protect).
        let _pin = self.arena.pin();
        // SAFETY: roots and held-node fields are counted links of our arena.
        unsafe {
            let mut p = self.arena.safe_read(&self.first_root);
            let (mut run, mut hops) = (0usize, 0);
            while hops < self.hop_bound() {
                hops += 1;
                let n = self.arena.safe_read((*p).next(0));
                self.arena.unprotect(p);
                if n.is_null() {
                    // Fell off past the last dummy (shouldn't happen from
                    // first_root, but a concurrent drop-race tolerant exit).
                    // `p`'s reference was already given up above — releasing
                    // it again here would double-release (I11 violation found
                    // by the protection-window pass).
                    return report;
                }
                p = n;
                match (*p).kind() {
                    NodeKind::Aux => {
                        report.aux += 1;
                        run += 1;
                    }
                    kind => {
                        if run >= 2 {
                            report.runs_ge2 += 1;
                        }
                        report.max_run = report.max_run.max(run);
                        run = 0;
                        if kind == NodeKind::Cell {
                            report.cells += 1;
                        }
                        if kind == NodeKind::LastDummy {
                            break;
                        }
                    }
                }
            }
            self.arena.unprotect(p);
        }
        report
    }

    /// Concurrency-safe invariant walker (testing hook), in every profile.
    ///
    /// Unlike [`List::check_structure`] — which demands the strict
    /// quiescent shape and therefore `&mut self` — this uses a protected
    /// (counted) traversal and checks only the invariants that hold at
    /// *every* instant, even mid-operation:
    ///
    /// 1. the chain from the first dummy reaches the last dummy in a
    ///    bounded number of hops (connectivity, no cycles);
    /// 2. no reachable node is `Free`: a free node under a protected
    ///    reference means reclamation overtook a live link — the §5 bug
    ///    class the claim bit (and the epoch grace period) exists to
    ///    prevent;
    /// 3. under the refcount backend, every reachable node's reference
    ///    count is ≥ 1 (at minimum ours); under the epoch backend our
    ///    reference is uncounted and a just-unlinked node legitimately
    ///    reads 0 mid-retirement, so the check is skipped;
    /// 4. a normal cell's successor is an auxiliary node (§3 invariant;
    ///    auxiliary runs of length ≥ 2 are legal mid-`TryDelete`).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut hops = 0;
        // Epoch backend: the pin is the walk's protection window.
        let _pin = self.arena.pin();
        // SAFETY: the root and held-node `next` fields are counted links
        // of this arena; every protected node is unprotected exactly once.
        unsafe {
            let mut p = self.arena.safe_read(&self.first_root);
            if p.is_null() {
                return Err("first root is null".into());
            }
            while hops < self.hop_bound() {
                hops += 1;
                let kind = (*p).kind();
                let refct = (*p).header().refcount();
                if kind == NodeKind::Free {
                    let e = format!("node {p:p} is Free under a protected reference");
                    self.arena.unprotect(p);
                    return Err(e);
                }
                if R::COUNTED_READS && refct < 1 {
                    let e = format!("{kind:?} node {p:p} has count {refct} while referenced");
                    self.arena.unprotect(p);
                    return Err(e);
                }
                if kind == NodeKind::LastDummy {
                    self.arena.unprotect(p);
                    return Ok(());
                }
                let n = self.arena.safe_read((*p).next(0));
                if n.is_null() {
                    let e =
                        format!("{kind:?} node {p:p} has a null successor before the last dummy");
                    self.arena.unprotect(p);
                    return Err(e);
                }
                if kind != NodeKind::Aux && (*n).kind() != NodeKind::Aux {
                    let e = format!(
                        "§3 violation: {kind:?} node {p:p} is followed by {:?} {n:p} (expected Aux)",
                        (*n).kind()
                    );
                    self.arena.unprotect(p);
                    self.arena.unprotect(n);
                    return Err(e);
                }
                self.arena.unprotect(p);
                p = n;
            }
            self.arena.unprotect(p);
            Err(format!(
                "chain did not reach the last dummy within {hops} hops (cycle?)"
            ))
        }
    }

    /// The hop bound of a protected walk. Concurrent inserts may lengthen
    /// the chain under the walker's feet, so it follows the arena's
    /// growth; it exists only to turn a corruption cycle into an exit.
    fn hop_bound(&self) -> usize {
        self.arena.capacity() * 8 + 64
    }

    /// Renders the quiescent chain (and each node's header state) for
    /// failure diagnostics: `kind@addr[refct,claim]` hops from the first
    /// dummy, bounded so a corrupted cyclic chain still terminates.
    ///
    /// Requires `&mut self` so the borrow checker guarantees quiescence.
    pub fn dump_chain(&mut self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // SAFETY: &mut self guarantees quiescence; raw walks are exclusive.
        unsafe {
            let mut p = self.first;
            for hop in 0..64 {
                if hop > 0 {
                    out.push_str(" -> ");
                }
                if p.is_null() {
                    out.push_str("NULL");
                    break;
                }
                let _ = write!(
                    out,
                    "{:?}@{:#x}[rc={},claim={}]",
                    (*p).kind(),
                    p as usize,
                    (*p).header().refcount(),
                    (*p).header().claim_is_set(),
                );
                if (*p).kind() == NodeKind::LastDummy {
                    break;
                }
                p = (*p).next(0).read();
            }
        }
        out
    }
}

impl<T: Send + Sync, R: Reclaimer, const L: usize> Default for List<T, R, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync, R: Reclaimer, const L: usize> Drop for List<T, R, L> {
    fn drop(&mut self) {
        // Release the root counts; the cascade reclaims the whole chain.
        // SAFETY: &mut self (drop) guarantees no cursors or operations.
        unsafe {
            let f = self.first_root.swap(std::ptr::null_mut());
            let l = self.last_root.swap(std::ptr::null_mut());
            self.arena.release(f);
            self.arena.release(l);
        }
        // Back-link cycles among deleted cells survive the cascade; sweep
        // them so every value's Drop runs before the arena frees segments.
        self.arena.sweep_unreachable(&[]);
    }
}

impl<T: Send + Sync + fmt::Debug, R: Reclaimer> fmt::Debug for List<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("List")
            .field("len", &self.len())
            .field("node_capacity", &self.node_capacity())
            .finish()
    }
}

impl<T: Send + Sync, R: Reclaimer> FromIterator<T> for List<T, R> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let list = List::<T, R>::new();
        let mut cursor = list.cursor();
        // Insert each item before the end position, preserving order.
        while cursor.next() {}
        for item in iter {
            cursor
                .insert(item)
                .expect("default arena config grows on demand");
            cursor.update();
            while cursor.next() {}
        }
        drop(cursor);
        list
    }
}

impl<'a, T: Send + Sync + Clone, R: Reclaimer> IntoIterator for &'a List<T, R> {
    type Item = T;
    type IntoIter = Iter<'a, T, R>;

    fn into_iter(self) -> Iter<'a, T, R> {
        self.iter()
    }
}

/// Iterator over cloned items of a [`List`] (see [`List::iter`]).
pub struct Iter<'a, T: Send + Sync + Clone, R: Reclaimer = RefCount> {
    cursor: Cursor<'a, T, R>,
    done: bool,
}

impl<T: Send + Sync + Clone, R: Reclaimer> Iterator for Iter<'_, T, R> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        loop {
            if self.done || self.cursor.is_at_end() {
                return None;
            }
            let value = self.cursor.get().cloned();
            if !self.cursor.next() {
                self.done = true;
            }
            if value.is_some() {
                return value;
            }
        }
    }
}

impl<T: Send + Sync + Clone, R: Reclaimer> fmt::Debug for Iter<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Iter { .. }")
    }
}

/// Auxiliary-node structure report (see [`List::aux_chain_report`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuxChainReport {
    /// Normal (item) cells encountered.
    pub cells: usize,
    /// Auxiliary nodes encountered.
    pub aux: usize,
    /// Length of the longest run of consecutive auxiliary nodes.
    pub max_run: usize,
    /// Number of runs of length ≥ 2 (must be 0 at quiescence — §3 theorem).
    pub runs_ge2: usize,
}

/// A cell + auxiliary node pair prepared for insertion (Fig. 8's two new
/// nodes), reusable across [`Cursor::try_insert`] retries.
///
/// Dropping an unconsumed pair returns both nodes (and the value) to the
/// pool.
pub struct PreparedInsert<'a, T: Send + Sync, R: Reclaimer = RefCount> {
    pub(crate) list: &'a List<T, R>,
    pub(crate) cell: *mut Node<T>,
    pub(crate) aux: *mut Node<T>,
}

// SAFETY: the pair is exclusively owned (unpublished nodes reachable only
// through this value) and the list handle is Sync, so moving a prepared
// insertion to another thread is sound.
unsafe impl<T: Send + Sync, R: Reclaimer> Send for PreparedInsert<'_, T, R> {}

impl<'a, T: Send + Sync, R: Reclaimer> PreparedInsert<'a, T, R> {
    /// Reads back the prepared value.
    pub fn value(&self) -> &T {
        // SAFETY: we hold the allocation reference; the node is a Cell.
        unsafe { (*self.cell).item() }
    }

    pub(crate) fn consume(mut self) {
        // Successful publication: the list's links now count both nodes;
        // give up the allocation references.
        // SAFETY: pointers originate from this list's arena.
        unsafe {
            self.list.arena.release(self.cell);
            self.list.arena.release(self.aux);
        }
        self.cell = std::ptr::null_mut();
        self.aux = std::ptr::null_mut();
    }
}

impl<T: Send + Sync, R: Reclaimer> Drop for PreparedInsert<'_, T, R> {
    fn drop(&mut self) {
        if !self.cell.is_null() {
            // Unpublished: releasing the cell cascades into the aux via
            // q.next if try_insert ever linked them; release both
            // allocation references.
            // SAFETY: we exclusively own the unpublished nodes.
            unsafe {
                self.list.arena.release(self.cell);
                self.list.arena.release(self.aux);
            }
        }
    }
}

impl<T: Send + Sync, R: Reclaimer> fmt::Debug for PreparedInsert<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PreparedInsert { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_walks_stop_on_a_cycle() {
        let mut list: List<u32> = (0..3).collect();
        // SAFETY: single-threaded; the link is rewritten without count
        // changes and restored before the list drops.
        unsafe {
            let mut cells = Vec::new();
            let mut p = list.first;
            while (*p).kind() != NodeKind::LastDummy {
                p = (*p).next(0).read();
                if (*p).kind() == NodeKind::Cell {
                    cells.push(p);
                }
            }
            // The last cell's aux now leads back to the first cell.
            let aux = (*cells[2]).next(0).read();
            let last = (*aux).next(0).read();
            (*aux).next(0).write(cells[0]);
            assert!(list.check_structure(0).is_err());
            assert!(list.check_invariants().is_err());
            assert!(list.aux_chain_report().cells > 3);
            (*aux).next(0).write(last);
        }
        list.check_structure(0).unwrap();
    }
}
