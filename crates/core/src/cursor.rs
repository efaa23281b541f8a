//! Cursors: the paper's access abstraction (§2.1) and the §3 algorithms.
//!
//! A cursor is three counted pointers into the list (§3):
//!
//! * `target` — the cell at the visited position (`Last` dummy = the
//!   end-of-list position),
//! * `pre_aux` — an auxiliary node; the cursor is **valid** iff
//!   `pre_aux^.next == target`,
//! * `pre_cell` — the nearest preceding normal cell (used by `TryDelete`).
//!
//! | Paper figure | Method |
//! |---|---|
//! | Fig. 5 `Update`    | [`Cursor::update`] |
//! | Fig. 6 `First`     | [`Cursor::seek_first`] / [`List::cursor`] / [`List::level_cursor`] |
//! | Fig. 7 `Next`      | [`Cursor::next`] |
//! | Fig. 9 `TryInsert` | [`Cursor::try_link`] (wrapped by [`Cursor::try_insert`]) |
//! | Fig. 10 `TryDelete`| [`Cursor::try_delete`] |
//! | Fig. 11 `FindFrom` | [`Cursor::find_from`] |
//! | Fig. 12 `Insert`   | [`Cursor::link_unique`] (wrapped by [`Cursor::insert_unique`]) |
//! | Fig. 13 `Delete`   | [`Cursor::find_and_delete`] |
//!
//! The engine runs on one level of a multi-level [`Node`] at a time: a
//! flat [`List`] has the one level 0, and the §4.1 skip list, whose
//! towers are `Node<(K, V), MAX_LEVELS>`, runs every level's search,
//! insert and delete on this same code, moving one cursor between levels
//! with [`Cursor::lower`] and [`Cursor::reopen`].

use std::cmp::Ordering;
use std::fmt;

use valois_mem::{AllocError, DeferredReleases, Link, MemStats, Reclaimer, RefCount};

/// Race-window widener: under `--features race-amplify`, yields the CPU at
/// the algorithms' critical interleaving points so stress tests on few
/// cores explore adversarial schedules. Compiles to nothing otherwise.
#[inline(always)]
fn amplify() {
    #[cfg(feature = "race-amplify")]
    {
        use std::cell::Cell;
        thread_local! {
            static COIN: Cell<u32> = const { Cell::new(0x9E3779B9) };
        }
        // Yield ~1/4 of the time: constant yields would serialize threads
        // into lockstep and hide races rather than expose them.
        let flip = COIN.with(|c| {
            let mut x = c.get();
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            c.set(x);
            x & 3 == 0
        });
        if flip {
            valois_sync::shim::thread::yield_now();
        }
    }
}

use crate::list::{List, PreparedInsert};
use crate::node::{Node, NodeKind};
use crate::stats::ListStats;

/// Live-stats freshness bound: a cursor publishes its batched tallies to
/// the shared counters at least every this many `Update` calls (every
/// operation revalidates through `Update`, so this bounds staleness in
/// *operations*, not wall time). Keeps the hot path at one integer
/// compare per op while a monitoring thread sampling
/// [`List::stats`]/[`List::mem_stats`] once a second sees a long-lived
/// cursor's progress instead of counters frozen until cursor drop.
const STATS_FLUSH_EVERY: u32 = 256;

/// A cursor visiting one position of a [`List`] (§2.1).
///
/// Cursors are cheap to clone (three count increments) and release their
/// protected nodes on drop. A cursor whose vicinity was changed by another
/// process becomes *invalid*; every operation revalidates via
/// [`Cursor::update`] exactly where the paper's algorithms do, and the
/// `try_*` operations report `false` so callers can re-examine the list
/// before retrying (the paper's non-blocking retry discipline).
///
/// # Example
///
/// ```
/// use valois_core::List;
///
/// let list: List<u32> = (0..3).collect();
/// let mut cur = list.cursor();
/// assert_eq!(cur.get(), Some(&0));
/// assert!(cur.next());
/// assert_eq!(cur.get(), Some(&1));
/// assert!(cur.try_delete());
/// cur.update();
/// assert_eq!(cur.get(), Some(&2));
/// ```
///
/// # Reclamation backends
///
/// Under the default [`RefCount`] backend the three position pointers are
/// counted references (`SafeRead`/`Release` per hop). Under
/// [`valois_mem::Epoch`] the cursor instead *pins an epoch for its
/// lifetime* (taken at construction, dropped with the cursor): hops are
/// plain loads, and the pin keeps every node the cursor can still reach
/// out of reclamation (invariant I12). A long-parked pinned cursor
/// therefore holds up reclamation globally — prefer short-lived cursors
/// under the epoch backend (the `epoch_pin_lag` gauge in
/// [`List::mem_stats`] reports offenders).
///
/// # Levels
///
/// `L` is the list's number of levels (1 for a flat list). A cursor
/// visits one level at a time — every link it reads or swings is the
/// level-`lvl` one — so each skip-list level is this engine over that
/// level's links.
pub struct Cursor<'a, T: Send + Sync, R: Reclaimer = RefCount, const L: usize = 1> {
    list: &'a List<T, R, L>,
    /// The level whose links this cursor follows (0 for a flat list).
    lvl: usize,
    target: *mut Node<T, L>,
    pre_aux: *mut Node<T, L>,
    pre_cell: *mut Node<T, L>,
    /// Parked `Release`s from the hop loop (drained in batches, and fully
    /// on drop): deferring a decrement only delays reclamation, never
    /// anticipates it, so protection is unaffected.
    defer: DeferredReleases<Node<T, L>>,
    /// Batched §5 protocol events (folded into the arena's sharded
    /// counters on drop / [`Cursor::flush_stats`]).
    tally: MemStats,
    /// Batched list-operation events (same lifecycle).
    ops: ListStats,
    /// `Update` calls since the last tally publish; at
    /// [`STATS_FLUSH_EVERY`] the batches auto-flush so live monitoring
    /// reads fresh counters (the stale-live-stats fix).
    unflushed: u32,
}

// SAFETY: a refcount cursor is three counted references plus a shared
// list handle; counted references are not thread-bound (the §5 protocol
// is fully shared-memory), so moving one to another thread is sound.
// Epoch cursors are deliberately NOT Send: their protection is a pin in
// the *creating thread's* epoch slot, and `Drop` must unpin that same
// slot. Shared (&Cursor) access is read-only (`get`, `is_at_end`,
// `is_valid`) and the owner's pin protects those reads under either
// backend, so Sync is sound for both.
unsafe impl<T: Send + Sync, const L: usize> Send for Cursor<'_, T, RefCount, L> {}
// SAFETY: as above — the shared-reference surface is read-only.
unsafe impl<T: Send + Sync, R: Reclaimer, const L: usize> Sync for Cursor<'_, T, R, L> {}

impl<'a, T: Send + Sync, R: Reclaimer, const L: usize> Cursor<'a, T, R, L> {
    /// An unpositioned cursor at `lvl` (all three fields null). Opens
    /// the protection window; every constructor positions it next.
    pub(crate) fn unpositioned(list: &'a List<T, R, L>, lvl: usize) -> Self {
        // Epoch backend: the cursor's protection window opens here and
        // closes in `Drop` (matched `pin_exit`). No-op under refcount.
        list.arena().pin_enter();
        Self {
            list,
            lvl,
            target: std::ptr::null_mut(),
            pre_aux: std::ptr::null_mut(),
            pre_cell: std::ptr::null_mut(),
            defer: DeferredReleases::new(),
            tally: MemStats::default(),
            ops: ListStats::default(),
            unflushed: 0,
        }
    }

    /// Fig. 6 `First` at level `lvl`: a cursor visiting the level's first
    /// item (or the end position of an empty level).
    pub(crate) fn at_first(list: &'a List<T, R, L>, lvl: usize) -> Self {
        let mut cursor = Self::unpositioned(list, lvl);
        cursor.seek_first_inner();
        cursor
    }

    /// A cursor visiting the first position **after** the cell a published
    /// entry root points at (the §4.2 shortcut pattern: start an ordered
    /// traversal from an interior cell instead of `First`). Returns `None`
    /// if the root is unpublished (null).
    ///
    /// The entry cell plays the role the first dummy plays for
    /// [`Cursor::at_first`]: it becomes `pre_cell` and the cursor is
    /// updated to the first normal cell after it. The caller must
    /// guarantee the entry cell is never deleted while the root is
    /// published (bucket sentinels satisfy this by construction).
    // COUNT: both SafeRead counts are transferred into the cursor's
    // `pre_cell`/`pre_aux` fields; `Drop` releases them.
    pub(crate) fn at_entry(list: &'a List<T, R, L>, root: &Link<Node<T, L>>) -> Option<Self> {
        // Epoch backend: the pin is taken before the first read; the
        // early-return None path drops the cursor, whose Drop unpins.
        let mut cursor = Self::unpositioned(list, 0);
        let arena = list.arena();
        // SAFETY: `root` is a counted link of this list's arena;
        // `pre_cell` is held while its `next` is read (as Fig. 6 does for
        // the `First` root).
        unsafe {
            cursor.pre_cell = arena.safe_read_tallied(root, &mut cursor.tally);
            if cursor.pre_cell.is_null() {
                return None; // unpublished; cursor drop handles the nulls
            }
            cursor.pre_aux = arena.safe_read_tallied((*cursor.pre_cell).next(0), &mut cursor.tally);
            debug_assert!(
                !cursor.pre_aux.is_null(),
                "published entry cells always have a successor"
            );
        }
        cursor.update();
        Some(cursor)
    }

    /// The raw target pointer. The cursor protects it until it moves;
    /// structures built over the engine use it for pointer-identity
    /// matches and count transfers ([`List::publish_entry`], the skip
    /// list's tower unlinks).
    pub fn target_ptr(&self) -> *mut Node<T, L> {
        self.target
    }

    /// The raw `pre_cell` pointer (the cursor's anchor), protected until
    /// the cursor moves ([`List::cache_entry`]'s count transfer, the skip
    /// list's saved per-level predecessors).
    pub fn pre_cell_ptr(&self) -> *mut Node<T, L> {
        self.pre_cell
    }

    // COUNT: both SafeRead counts are transferred into the cursor's
    // `pre_cell`/`pre_aux` fields; `Drop`/`seek_first` release them.
    fn seek_first_inner(&mut self) {
        let arena = self.list.arena();
        // SAFETY: the roots are counted links; `pre_cell` is held while its
        // `next` is read (Fig. 6 lines 1-2).
        unsafe {
            self.pre_cell = arena.safe_read_tallied(self.list.first_root(), &mut self.tally);
            self.pre_aux =
                arena.safe_read_tallied((*self.pre_cell).next(self.lvl), &mut self.tally);
        }
        self.target = std::ptr::null_mut(); // Fig. 6 line 3
        self.update(); // Fig. 6 line 4
    }

    /// Re-positions this cursor at the first item of its level (Fig. 6 on
    /// an existing cursor).
    pub fn seek_first(&mut self) {
        let arena = self.list.arena();
        // SAFETY: all three fields hold protected references (or null);
        // parking them in the defer buffer keeps them counted until a
        // drain (refcount) or simply drops the window (epoch — the pin
        // still covers the new position).
        unsafe {
            arena.unprotect_deferred(&mut self.defer, self.pre_cell);
            arena.unprotect_deferred(&mut self.defer, self.pre_aux);
            arena.unprotect_deferred(&mut self.defer, self.target);
        }
        self.seek_first_inner();
    }

    /// Folds this cursor's batched statistics (list events and §5 protocol
    /// events) into the shared counters now instead of at drop, and drains
    /// any deferred releases. Call before reading
    /// [`List::stats`]/[`List::mem_stats`] while the cursor stays alive.
    pub fn flush_stats(&mut self) {
        let arena = self.list.arena();
        // SAFETY: the defer buffer holds counted references of this
        // cursor's arena.
        unsafe { arena.drain_deferred(&mut self.defer) };
        arena.flush_tally(&mut self.tally);
        self.list.absorb(&mut self.ops);
        self.unflushed = 0;
    }

    /// The periodic half of the stale-live-stats fix: publish the batched
    /// tallies every [`STATS_FLUSH_EVERY`] updates so counters advance
    /// *mid-operation* for live readers. Deliberately does **not** drain
    /// the deferred-release buffer — that is reclamation policy with its
    /// own batching, and stats freshness must not change it.
    #[inline]
    fn maybe_autoflush(&mut self) {
        self.unflushed += 1;
        if self.unflushed >= STATS_FLUSH_EVERY {
            self.unflushed = 0;
            self.list.arena().flush_tally(&mut self.tally);
            self.list.absorb(&mut self.ops);
        }
    }

    /// Fig. 5 `Update`: makes the cursor valid again after concurrent
    /// structural changes, skipping (and opportunistically unlinking)
    /// auxiliary-node chains.
    pub fn update(&mut self) {
        self.ops.updates += 1;
        self.maybe_autoflush();
        let arena = self.list.arena();
        let lvl = self.lvl;
        // SAFETY: `pre_aux`/`pre_cell` hold counted references; every
        // pointer read below is a counted link of a held node.
        unsafe {
            // Fig. 5 line 1: already valid?
            if (*self.pre_aux).next(lvl).read() == self.target {
                return;
            }
            // Fig. 5 lines 3-5.
            let mut p = self.pre_aux; // take over the cursor's reference
            amplify();
            let mut n = arena.safe_read_tallied((*p).next(lvl), &mut self.tally);
            arena.unprotect_deferred(&mut self.defer, self.target);
            // Fig. 5 lines 6-10: skip auxiliary nodes (dummies and cells
            // are "normal"), unlinking one of each adjacent pair.
            // WAIT-FREE: bounded by the aux-chain length; the CSW below is
            // one-shot per hop (a failure is not retried — someone else
            // already unlinked), so no backoff is needed.
            while !n.is_null() && (*n).is_aux() {
                self.ops.aux_skipped += 1;
                // Fig. 5 line 7: CSW(pre_cell^.next, p, n). Failure just
                // means someone else already cleaned up or moved on.
                if arena.swing((*self.pre_cell).next(lvl), p, n) {
                    self.ops.aux_unlinked += 1;
                }
                arena.unprotect_deferred(&mut self.defer, p);
                p = n;
                n = arena.safe_read_tallied((*p).next(lvl), &mut self.tally);
            }
            debug_assert!(!n.is_null(), "aux nodes always have a successor");
            // Fig. 5 lines 11-12.
            self.pre_aux = p;
            self.target = n;
        }
    }

    /// Fig. 10 lines 7-11, promoted to a shared primitive: walks
    /// `back_link`s from `from` to the nearest cell that has not itself
    /// been deleted (as of each link read) and returns it.
    ///
    /// # Safety
    ///
    /// `from` must carry a protected reference owned by the caller (a
    /// count under refcount; coverage by this cursor's pin under epoch).
    // GUARD: from — caller holds a protected reference when calling; the
    // walk hands it off hop by hop (consumed here, replaced by the
    // returned cell's).
    // COUNT: consumes the caller's reference on `from`; the returned
    // pointer carries one protected reference that transfers to the
    // caller.
    unsafe fn backtrack(&mut self, from: *mut Node<T, L>) -> *mut Node<T, L> {
        let arena = self.list.arena();
        let lvl = self.lvl;
        let mut p = from;
        while !(*p).back_link(lvl).read().is_null() {
            let q = arena.safe_read((*p).back_link(lvl));
            if q.is_null() {
                break; // back_links are never cleared while p is held
            }
            self.ops.backlink_hops += 1;
            arena.unprotect(p);
            p = q;
        }
        p
    }

    /// Backlink-guided retry resumption (the Fomitchev–Ruppert search
    /// pattern over the paper's §3 `back_link`s): if the cursor's anchor
    /// cell (`pre_cell`) was deleted by a concurrent operation, walk its
    /// `back_link` chain to the nearest predecessor that had not itself
    /// been deleted, re-enter the list there, and revalidate with
    /// [`Cursor::update`].
    ///
    /// This is the public retry protocol: after a failed
    /// [`Cursor::try_insert`]/[`Cursor::try_delete`] — or when reopening
    /// a cached cursor whose neighbourhood may have changed — call
    /// `resume()` instead of discarding the cursor and restarting from
    /// `First`. The cost is O(distance-to-conflict) back-link hops
    /// instead of an O(n) walk from the head; when the anchor is still
    /// live this is exactly an `update()` (no extra cost).
    ///
    /// Landing on a back-walked predecessor is consistent: the resumed
    /// position is at-or-before every position the cursor could need,
    /// and the forward revalidation cannot skip a concurrently present
    /// cell.
    // INVARIANT: I10
    pub fn resume(&mut self) {
        // SAFETY: `pre_cell` is a held counted reference; its `back_link`
        // is written exactly once (by the winning deleter, after the
        // deletion CAS) and never cleared while the cell is held, so a
        // non-null read is a stable "this anchor was deleted" signal.
        let deleted = unsafe { !(*self.pre_cell).back_link(self.lvl).read().is_null() };
        if !deleted {
            // Anchor still undeleted: plain Fig. 5 revalidation suffices.
            self.update();
            return;
        }
        self.ops.resumes += 1;
        let before = self.ops.backlink_hops;
        let arena = self.list.arena();
        // SAFETY: all three fields hold counted references; the back-walk
        // takes over `pre_cell`'s count and hands back one count on the
        // landing cell, and the superseded `pre_aux`/`target` counts are
        // parked for a deferred drain (delaying a decrement never
        // anticipates reclamation).
        // COUNT: `backtrack` consumes the count on the old `pre_cell` and
        // its returned count is stored into `pre_cell` (released on
        // `Drop`); the SafeRead count lands in `pre_aux` likewise.
        unsafe {
            let p = self.backtrack(self.pre_cell);
            self.pre_cell = p;
            arena.unprotect_deferred(&mut self.defer, self.pre_aux);
            self.pre_aux = arena.safe_read_tallied((*p).next(self.lvl), &mut self.tally);
            arena.unprotect_deferred(&mut self.defer, self.target);
            self.target = std::ptr::null_mut();
        }
        let hops = self.ops.backlink_hops - before;
        self.ops.resume_hops += hops;
        valois_trace::probe!(CursorResume, hops as usize, self.pre_cell as usize);
        self.update();
    }

    /// Moves this cursor down one level, keeping its anchor: `pre_cell`
    /// stays (and keeps its protection), `pre_aux` is re-read from the
    /// anchor's link at the new level, and the cursor revalidates. This
    /// is the skip-list descent step — one cursor per operation, so its
    /// batched tallies and deferred releases flush once, not per level.
    ///
    /// # Safety
    ///
    /// The cursor must be above level 0, and its `pre_cell` must be a
    /// normal cell (or dummy) that is, or was, a member of the level
    /// below — a skip list's subset property guarantees both for an
    /// anchor its search reached at this level.
    pub unsafe fn lower(&mut self) {
        debug_assert!(self.lvl > 0, "lower() at level 0");
        self.lvl -= 1;
        let arena = self.list.arena();
        // SAFETY: `pre_cell` is held and, per the contract, carries a
        // level-`lvl` link; the superseded `pre_aux`/`target` are parked.
        // COUNT: the SafeRead count lands in `pre_aux` (released on
        // `Drop` or the next move).
        unsafe {
            arena.unprotect_deferred(&mut self.defer, self.pre_aux);
            arena.unprotect_deferred(&mut self.defer, self.target);
            self.target = std::ptr::null_mut();
            self.pre_aux =
                arena.safe_read_tallied((*self.pre_cell).next(self.lvl), &mut self.tally);
        }
        self.update();
    }

    /// Re-anchors this cursor at `from` on level `lvl` and revalidates
    /// with [`Cursor::resume`]: if `from` has since been deleted at that
    /// level, the cursor first walks `back_link(lvl)` back to a live
    /// predecessor (I10), so a predecessor saved earlier is as good a
    /// start as the head.
    ///
    /// # Safety
    ///
    /// `from` must be a node of this cursor's list that the caller
    /// protects across the call, and a normal cell (or dummy) that is, or
    /// was, a member of level `lvl`.
    // GUARD: from — caller holds a protected reference across the call.
    // COUNT: the duplicated reference on `from` becomes `pre_cell`'s
    // (released on `Drop` or the next move); the superseded fields are
    // parked for a deferred drain.
    // INVARIANT: I10
    pub unsafe fn reopen(&mut self, lvl: usize, from: *mut Node<T, L>) {
        let arena = self.list.arena();
        // SAFETY: per the contract `from` is protected and carries a
        // level-`lvl` link; the cursor's own fields hold references.
        unsafe {
            arena.protect_dup(from);
            arena.unprotect_deferred(&mut self.defer, self.pre_cell);
            arena.unprotect_deferred(&mut self.defer, self.pre_aux);
            arena.unprotect_deferred(&mut self.defer, self.target);
            self.lvl = lvl;
            self.pre_cell = from;
            self.target = std::ptr::null_mut();
            self.pre_aux = arena.safe_read_tallied((*from).next(lvl), &mut self.tally);
        }
        self.resume();
    }

    /// Fig. 7 `Next`: advances to the next position. Returns `false` when
    /// already at the end-of-list position.
    ///
    /// (Named after the paper's operation; a cursor is not an `Iterator` —
    /// use [`List::iter`](crate::List::iter) for iteration.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> bool {
        // Fig. 7 lines 1-2.
        if self.target == self.list.last_ptr() {
            return false;
        }
        let arena = self.list.arena();
        // SAFETY: `target` is held; its count *transfers* to `pre_cell`
        // (where the paper SafeReads a private cursor field, lines 3-6, we
        // move the reference we already hold and null `target`, saving an
        // increment/release pair per hop); reading the held node's `next`
        // is protected.
        unsafe {
            arena.unprotect_deferred(&mut self.defer, self.pre_cell);
            self.pre_cell = self.target;
            self.target = std::ptr::null_mut(); // reference moved to pre_cell
            arena.unprotect_deferred(&mut self.defer, self.pre_aux);
            self.pre_aux =
                arena.safe_read_tallied((*self.pre_cell).next(self.lvl), &mut self.tally);
        }
        self.update(); // Fig. 7 line 7
        self.ops.next_steps += 1;
        valois_trace::probe!(CursorHop, self.pre_cell as usize, self.target as usize);
        true
    }

    /// Whether the cursor is at the end-of-list position (visiting no
    /// item).
    pub fn is_at_end(&self) -> bool {
        self.target == self.list.last_ptr()
    }

    /// Whether the cursor is currently valid (`pre_aux^.next == target`).
    /// Purely informational — operations revalidate internally.
    pub fn is_valid(&self) -> bool {
        // SAFETY: `pre_aux` is held.
        unsafe { (*self.pre_aux).next(self.lvl).read() == self.target }
    }

    /// The item at the cursor's position, or `None` at the end position.
    ///
    /// *Cell persistence* (§2.2): if the visited cell was deleted by
    /// another process, the cursor still reads its value until repositioned.
    pub fn get(&self) -> Option<&T> {
        if self.target.is_null() || self.is_at_end() {
            return None;
        }
        // SAFETY: `target` is held (counted), so the value cannot be
        // dropped; only Cell nodes carry values.
        unsafe {
            if (*self.target).kind() == NodeKind::Cell {
                Some((*self.target).item())
            } else {
                None
            }
        }
    }

    /// Fig. 9 `TryInsert` as the raw link step: links `cell` and its
    /// auxiliary node `aux` immediately **before** the cursor's position
    /// at the cursor's level. Returns whether the linking CAS won; on
    /// success the cursor is left invalid (the next
    /// [`Cursor::update`] visits `cell`).
    ///
    /// [`Cursor::try_insert`] wraps this for a flat list's
    /// [`PreparedInsert`]; a skip list calls it directly with a tower
    /// cell that is already published at the levels below.
    ///
    /// # Safety
    ///
    /// `cell` (a `Cell`) and `aux` (an `Aux` node) must be nodes of this
    /// cursor's list that the caller protects across the call, and this
    /// call must be their only linker at this level: neither may be
    /// reachable at this level yet.
    // GUARD: cell, aux — caller holds a count on each across the call.
    pub unsafe fn try_link(&mut self, cell: *mut Node<T, L>, aux: *mut Node<T, L>) -> bool {
        self.ops.insert_attempts += 1;
        let arena = self.list.arena();
        let lvl = self.lvl;
        // SAFETY: per the contract `cell`/`aux` are held and unlinked at
        // this level; `target` and `pre_aux` are held counted references.
        unsafe {
            // Fig. 9 lines 1-2. store_link installs a count on the new
            // target and releases the previous one, so counts stay exact
            // across retries.
            arena.store_link((*cell).next(lvl), aux);
            arena.store_link((*aux).next(lvl), self.target);
            // Fig. 9 line 3: CSW(pre_aux^.next, target, cell).
            amplify();
            if arena.swing((*self.pre_aux).next(lvl), self.target, cell) {
                self.ops.insert_successes += 1;
                valois_trace::probe!(TryInsertOk, self.pre_aux as usize, cell as usize);
                true
            } else {
                valois_trace::probe!(TryInsertFail, self.pre_aux as usize, cell as usize);
                false
            }
        }
    }

    /// Fig. 10 `TryDelete`: attempts to delete the cell the cursor is
    /// visiting.
    ///
    /// Returns `false` if the cursor is at the end position or was
    /// invalidated by a concurrent operation (caller should
    /// [`Cursor::update`] and re-examine, as Fig. 13 does). On success the
    /// cursor still *visits the deleted cell* — its value stays readable
    /// (cell persistence) — until the next `update`/`next` repositions it.
    pub fn try_delete(&mut self) -> bool {
        if self.is_at_end() {
            return false;
        }
        self.ops.delete_attempts += 1;
        let arena = self.list.arena();
        // SAFETY: every dereference below is of a node we hold a counted
        // reference on; links are counted links of this arena.
        unsafe {
            // Fig. 10 lines 1-2. The paper reads target^.next plainly; we
            // SafeRead so the subsequent swing holds a count on `n`
            // (required for the count-transfer protocol).
            let lvl = self.lvl;
            let d = self.target;
            let n = arena.safe_read((*d).next(lvl));
            debug_assert!(!n.is_null(), "cells always have a successor");
            amplify();
            // Fig. 10 line 3: the deletion CAS — unlink d.
            if !arena.swing((*self.pre_aux).next(lvl), d, n) {
                // Fig. 10 lines 4-5.
                arena.unprotect(n);
                valois_trace::probe!(TryDeleteFail, self.pre_aux as usize, d as usize);
                return false;
            }
            self.ops.delete_successes += 1;
            valois_trace::probe!(TryDeleteOk, self.pre_aux as usize, d as usize);
            amplify();
            // Fig. 10 line 6: record the back link. We won the deletion
            // CAS, so we are the unique writer of d's back_link. This is a
            // *link* count — installed under both backends (the back_link
            // chain must keep its targets out of reclamation even after
            // every pin drops).
            debug_assert!((*d).back_link(lvl).read().is_null());
            arena.incr_ref(self.pre_cell);
            (*d).back_link(lvl).write(self.pre_cell);
            // Fig. 10 lines 7-11: walk back links to the nearest cell that
            // has not itself been deleted (shared with `resume`).
            // COUNT: the duplicated process reference is consumed by
            // `backtrack`, which hands back one reference on `p` (given up
            // at the end).
            arena.protect_dup(self.pre_cell);
            let p = self.backtrack(self.pre_cell);
            // Fig. 10 line 12.
            let mut s = arena.safe_read((*p).next(lvl));
            // Fig. 10 lines 13-16: advance n to the end of the auxiliary
            // chain (until the node after n is a normal cell).
            let mut n = n;
            loop {
                let nn = arena.safe_read((*n).next(lvl));
                debug_assert!(!nn.is_null());
                let chain_continues = !(*nn).is_normal_cell();
                if !chain_continues {
                    arena.unprotect(nn);
                    break;
                }
                arena.unprotect(n);
                n = nn;
            }
            // Fig. 10 lines 17-21: swing p^.next over the whole chain,
            // giving up if p gets deleted or the chain gets extended
            // (another deleter has taken over the cleanup obligation).
            // WAIT-FREE: a failed swing means another operation changed
            // p^.next (system-wide progress); the loop then either
            // re-reads once or hands the cleanup obligation off and
            // exits, so it cannot spin against an unchanged word.
            loop {
                amplify();
                if arena.swing((*p).next(lvl), s, n) {
                    break;
                }
                self.ops.chain_cleanup_retries += 1;
                arena.unprotect(s);
                s = arena.safe_read((*p).next(lvl));
                if !(*p).back_link(lvl).read().is_null() {
                    break; // p itself was deleted
                }
                let nn = arena.safe_read((*n).next(lvl));
                let extended = !(*nn).is_normal_cell();
                arena.unprotect(nn);
                if extended {
                    break; // chain extended: successor deleter cleans up
                }
            }
            // Fig. 10 lines 22-24.
            arena.unprotect(p);
            arena.unprotect(s);
            arena.unprotect(n);
            true
        }
    }

    /// Fig. 11 `FindFrom`: advances until the cursor visits the first
    /// item that `cmp` does not order `Less` (or the end position),
    /// stepping over dummies. `cmp(item)` orders a visited item against
    /// the sought key. Returns `true` iff that item is `Equal`.
    ///
    /// On a `false` return, inserting before the cursor keeps a list
    /// sorted under `cmp` — the positioning contract of
    /// [`Cursor::insert_unique`].
    ///
    /// # Example
    ///
    /// ```
    /// use valois_core::List;
    ///
    /// let list: List<u32> = [10, 20, 30].into_iter().collect();
    /// let mut cur = list.cursor();
    /// assert!(cur.find_from(|x| x.cmp(&20)));
    /// assert_eq!(cur.get(), Some(&20));
    /// assert!(!cur.find_from(|x| x.cmp(&25)), "stops at the first item > 25");
    /// assert_eq!(cur.get(), Some(&30));
    /// ```
    pub fn find_from(&mut self, mut cmp: impl FnMut(&T) -> Ordering) -> bool {
        // Fig. 11 lines 1-8.
        while !self.is_at_end() {
            match self.get() {
                Some(item) => match cmp(item) {
                    Ordering::Equal => return true,
                    Ordering::Greater => return false,
                    Ordering::Less => {
                        if !self.next() {
                            return false;
                        }
                    }
                },
                // A dummy under the cursor (transient mid-reposition
                // state): step forward.
                None => {
                    if !self.next() {
                        return false;
                    }
                }
            }
        }
        false
    }

    /// Fig. 12 lines 8-12 as the raw step: links `cell` (with `aux`)
    /// before the cursor unless an item equal to it is present.
    /// `cmp(item, new)` orders a visited item against `cell`'s. The
    /// cursor must already be positioned by a [`Cursor::find_from`] that
    /// returned `false`.
    ///
    /// Returns `true` once the cell is linked (the cursor is left
    /// invalid, as after [`Cursor::try_link`]). Returns `false` when an
    /// equal item won a race; the cursor then visits that item and the
    /// caller still owns `cell` and `aux`.
    ///
    /// # Safety
    ///
    /// As [`Cursor::try_link`].
    // GUARD: cell, aux — caller holds a count on each across the call.
    pub unsafe fn link_unique(
        &mut self,
        cell: *mut Node<T, L>,
        aux: *mut Node<T, L>,
        mut cmp: impl FnMut(&T, &T) -> Ordering,
    ) -> bool {
        // WAIT-FREE: lock-free, not wait-free — each failed TryInsert
        // means another operation's CAS succeeded at this position
        // (§4.1's <= p-1 amortized retries).
        loop {
            // SAFETY: forwarded contract.
            if unsafe { self.try_link(cell, aux) } {
                return true;
            }
            // Revalidate from the nearest undeleted predecessor, then
            // re-check uniqueness before retrying.
            // INVARIANT: I10
            self.resume();
            // SAFETY: the caller protects `cell`, a `Cell`.
            let new = unsafe { (*cell).item() };
            if self.find_from(|item| cmp(item, new)) {
                return false;
            }
        }
    }

    /// Fig. 13: finds the item `cmp` orders `Equal` (see
    /// [`Cursor::find_from`]) and deletes it, retrying until the delete
    /// lands or the item is gone. Returns whether this call deleted it.
    pub fn find_and_delete(&mut self, mut cmp: impl FnMut(&T) -> Ordering) -> bool {
        // WAIT-FREE: lock-free, not wait-free — a failed TryDelete means
        // a concurrent operation's CAS invalidated the cursor.
        loop {
            // Fig. 13 lines 2-4.
            if !self.find_from(&mut cmp) {
                return false;
            }
            // Fig. 13 lines 5-7.
            if self.try_delete() {
                return true;
            }
            // Fig. 13 lines 8-9, resuming instead of restarting.
            // INVARIANT: I10
            self.resume();
        }
    }

    /// The list this cursor traverses.
    pub fn list(&self) -> &'a List<T, R, L> {
        self.list
    }
}

impl<'a, T: Send + Sync, R: Reclaimer> Cursor<'a, T, R> {
    /// Fig. 9 `TryInsert`: attempts to insert the prepared cell (and its
    /// auxiliary node) immediately **before** the cursor's position.
    ///
    /// On success the pair is consumed and `Ok(())` returned; the cursor is
    /// left invalid (call [`Cursor::update`] — it will then visit the new
    /// cell). On failure — the cursor was invalidated by a concurrent
    /// operation — the pair is handed back for a retry after the caller
    /// re-examines the list (Fig. 12's pattern).
    ///
    /// # Panics
    ///
    /// Panics if `prepared` was prepared by a different list.
    pub fn try_insert(
        &mut self,
        prepared: PreparedInsert<'a, T, R>,
    ) -> Result<(), PreparedInsert<'a, T, R>> {
        assert!(
            std::ptr::eq(self.list, prepared.list),
            "PreparedInsert used with a cursor of a different list"
        );
        // SAFETY: the prepared pair is exclusively owned (unpublished)
        // nodes of this list's arena.
        if unsafe { self.try_link(prepared.cell, prepared.aux) } {
            prepared.consume();
            Ok(())
        } else {
            Err(prepared)
        }
    }

    /// Convenience retry loop around [`Cursor::try_insert`]: prepares the
    /// pair once and retries with [`Cursor::update`] until the insertion
    /// lands (cannot livelock: a failure means some other operation
    /// succeeded — the non-blocking progress argument).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the node pool is exhausted and capped.
    pub fn insert(&mut self, value: T) -> Result<(), AllocError> {
        let mut prepared = match self.list.try_prepare_insert(value) {
            Ok(prepared) => prepared,
            Err((value, e)) => {
                // The pool may only look exhausted because our own defer
                // buffer parks the last references to reclaimable nodes:
                // drain it and retry once before giving up.
                if self.defer.is_empty() {
                    return Err(e);
                }
                // SAFETY: the buffer holds counted references of this
                // cursor's arena.
                unsafe { self.list.arena().drain_deferred(&mut self.defer) };
                match self.list.try_prepare_insert(value) {
                    Ok(prepared) => prepared,
                    Err((_, e)) => return Err(e),
                }
            }
        };
        loop {
            match self.try_insert(prepared) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    prepared = back;
                    self.update();
                }
            }
        }
    }

    /// Fig. 12 lines 8-12 for a prepared pair: links `prepared` before
    /// the cursor unless an item equal to it is present. `cmp(item, new)`
    /// orders a visited item against the prepared value. The cursor must
    /// already be positioned by a [`Cursor::find_from`] that returned
    /// `false`.
    ///
    /// Returns `true` once the cell is linked (the cursor is left
    /// invalid, as after [`Cursor::try_insert`]). Returns `false` — and
    /// drops `prepared`, returning its counts — when an equal item won
    /// a race; the cursor then visits that item.
    ///
    /// # Panics
    ///
    /// Panics if `prepared` was prepared by a different list.
    pub fn insert_unique(
        &mut self,
        prepared: PreparedInsert<'a, T, R>,
        cmp: impl FnMut(&T, &T) -> Ordering,
    ) -> bool {
        assert!(
            std::ptr::eq(self.list, prepared.list),
            "PreparedInsert used with a cursor of a different list"
        );
        // SAFETY: the prepared pair is exclusively owned (unpublished)
        // nodes of this list's arena.
        let linked = unsafe { self.link_unique(prepared.cell, prepared.aux, cmp) };
        if linked {
            prepared.consume();
        }
        linked
    }
}

impl<T: Send + Sync, R: Reclaimer, const L: usize> Clone for Cursor<'_, T, R, L> {
    fn clone(&self) -> Self {
        let arena = self.list.arena();
        // The clone protects its position independently: its own pin
        // under epoch (no-op under refcount)...
        arena.pin_enter();
        // SAFETY: we hold protected references on all three; duplicating
        // a held reference is protect_dup's contract. (...and its own
        // counts under refcount — no-ops under epoch.)
        unsafe {
            arena.protect_dup(self.target);
            arena.protect_dup(self.pre_aux);
            arena.protect_dup(self.pre_cell);
        }
        Self {
            list: self.list,
            lvl: self.lvl,
            target: self.target,
            pre_aux: self.pre_aux,
            pre_cell: self.pre_cell,
            // Batches are per-cursor state, not position: the clone starts
            // with empty buffers of its own.
            defer: DeferredReleases::new(),
            tally: MemStats::default(),
            ops: ListStats::default(),
            unflushed: 0,
        }
    }
}

impl<T: Send + Sync, R: Reclaimer, const L: usize> Drop for Cursor<'_, T, R, L> {
    fn drop(&mut self) {
        let arena = self.list.arena();
        // SAFETY: the cursor's fields are protected references (or null),
        // and the defer buffer holds counted references of this arena.
        unsafe {
            arena.unprotect_deferred(&mut self.defer, self.target);
            arena.unprotect_deferred(&mut self.defer, self.pre_aux);
            arena.unprotect_deferred(&mut self.defer, self.pre_cell);
            arena.drain_deferred(&mut self.defer);
        }
        arena.flush_tally(&mut self.tally);
        self.list.absorb(&mut self.ops);
        // Epoch backend: the protection window taken at construction
        // closes last, after every field access above.
        arena.pin_exit();
    }
}

impl<T: Send + Sync, R: Reclaimer, const L: usize> fmt::Debug for Cursor<'_, T, R, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cursor")
            .field("level", &self.lvl)
            .field("at_end", &self.is_at_end())
            .field("valid", &self.is_valid())
            .finish()
    }
}
