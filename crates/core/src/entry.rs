//! Interior entry points: published counted shortcuts into a [`List`].
//!
//! §4.2 structures (hash tables) want to start a traversal in the middle
//! of a list instead of at `First`. An [`EntryRoot`] is a *structure
//! root* in the §5 sense — a counted link owned by the enclosing data
//! structure — that, once published, points at a designated cell (a
//! bucket sentinel). Opening a cursor from it ([`List::cursor_at`]) is
//! Fig. 6 `First` with the entry cell in the role of the first dummy.
//!
//! The lifecycle mirrors the lazy bucket initialization of split-ordered
//! hash tables:
//!
//! 1. the root starts null (unpublished);
//! 2. an initializer inserts (or finds) the designated cell and calls
//!    [`List::publish_entry`] — a counted CAS (`swing`) from null, so
//!    when several initializers race, **exactly one** publication wins
//!    and every loser's prospective count is released by the failed
//!    swing (no leak, no double-link);
//! 3. readers open cursors through [`List::cursor_at`];
//! 4. the owner calls [`List::retire_entry`] before dropping the list,
//!    returning the root's count.
//!
//! The caller must guarantee the entry cell is never deleted while the
//! root is published; sentinels that are never removed satisfy this by
//! construction. (A deleted entry cell would not be unsafe — the count
//! keeps it readable, cell persistence — but cursors opened from it
//! could start before list structure they can no longer reach.)
//!
//! Cached cursors use roots the other way: [`List::cache_entry`]
//! overwrites a root with the cell a cursor just passed, which may be
//! deleted later, and [`List::cursor_at_nearest`] opens at the nearest
//! usable anchor among many roots, resuming past a dead one and swinging
//! that root to the live cell it landed on (invariant I10).

use std::cmp::Ordering;
use std::fmt;
use std::mem::MaybeUninit;

use valois_mem::{Link, Reclaimer};

use crate::cursor::Cursor;
use crate::list::List;
use crate::node::{ListNode, Node, NodeKind};

/// A published, counted shortcut into a [`List`] (see the module docs).
///
/// Starts unpublished (null). Publication is a one-shot counted CAS via
/// [`List::publish_entry`]; the root then owns one count on the entry
/// cell until [`List::retire_entry`]. Dropping a still-published root
/// without retiring it leaks that count (the root itself cannot release
/// — it has no arena handle), so owners retire every root on teardown.
pub struct EntryRoot<T: Send + Sync> {
    pub(crate) link: Link<Node<T>>,
}

impl<T: Send + Sync> EntryRoot<T> {
    /// A fresh, unpublished root.
    pub fn new() -> Self {
        Self { link: Link::null() }
    }

    /// Whether a publication has landed (a relaxed peek — a false
    /// `false` only means the caller should take the initialization
    /// path, which re-checks through the CAS).
    pub fn is_published(&self) -> bool {
        !self.link.read().is_null()
    }
}

impl<T: Send + Sync> Default for EntryRoot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync> fmt::Debug for EntryRoot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EntryRoot")
            .field("published", &self.is_published())
            .finish()
    }
}

impl<T: Send + Sync, R: Reclaimer> List<T, R> {
    /// Opens a cursor at the first position **after** the cell `root`
    /// points at, or `None` if the root is unpublished.
    pub fn cursor_at<'a>(&'a self, root: &EntryRoot<T>) -> Option<Cursor<'a, T, R>> {
        Cursor::at_entry(self, &root.link)
    }

    /// Publishes the cell `cursor` is visiting as `root`'s entry cell:
    /// a counted CAS from null. Returns `true` if this call's
    /// publication won; on `false` another publication was already in
    /// place and this call's prospective count has been released (the
    /// loser-releases discipline of the lazy-initialization race).
    ///
    /// # Panics
    ///
    /// Panics if `cursor` belongs to a different list or does not visit
    /// a normal cell (the end position and dummies are not publishable).
    pub fn publish_entry(&self, root: &EntryRoot<T>, cursor: &Cursor<'_, T, R>) -> bool {
        assert!(
            std::ptr::eq(self, cursor.list()),
            "cursor of a different list"
        );
        let target = cursor.target_ptr();
        // SAFETY: the cursor holds a counted reference on `target`, so
        // inspecting its kind is protected.
        let is_cell = !target.is_null() && unsafe { (*target).kind() == NodeKind::Cell };
        assert!(is_cell, "entry roots must point at a normal cell");
        // SAFETY: `root.link` is a counted link of this arena; the cursor
        // holds `target` so swing's increment targets a live node.
        // COUNT: on success the root's link owns one count on `target`
        // (released by `retire_entry`); on failure swing released the
        // prospective count itself.
        unsafe { self.arena().swing(&root.link, std::ptr::null_mut(), target) }
    }

    /// Re-points `root` at the cursor's current anchor (`pre_cell`) — the
    /// Träff & Pöter cached-cursor pattern: a slot remembers a recently
    /// visited neighbourhood so a later operation can start there instead
    /// of at `First`. Any number of threads may cache into one root. Returns `false` (slot untouched) when
    /// the anchor is a dummy, i.e. the cursor sits at the start of the
    /// list and caching would buy nothing.
    ///
    /// Unlike [`List::publish_entry`] this *overwrites*: the slot's
    /// previous count is released after the swap. Unlike bucket
    /// sentinels, a cached anchor **may be deleted** while the slot
    /// points at it — cell persistence keeps it (and its `back_link`
    /// chain) readable, and a cursor reopened from the slot must call
    /// [`Cursor::resume`] before use so it re-enters the live list at an
    /// undeleted predecessor (invariant I10 in docs/PROTOCOL.md).
    // INVARIANT: I10
    pub fn cache_entry(&self, root: &EntryRoot<T>, cursor: &Cursor<'_, T, R>) -> bool {
        assert!(
            std::ptr::eq(self, cursor.list()),
            "cursor of a different list"
        );
        let anchor = cursor.pre_cell_ptr();
        // SAFETY: the cursor holds a counted reference on its `pre_cell`,
        // so inspecting its kind is protected.
        if anchor.is_null() || unsafe { (*anchor).kind() } != NodeKind::Cell {
            return false;
        }
        // SAFETY: `anchor` is held by the cursor, so incr_ref targets a
        // live node; the link's previous count transfers to us on the
        // swap and releasing it is the transfer's obligation.
        // COUNT: the incr_ref's count transfers to the slot's link
        // (released by the next `cache_entry`/`retire_entry`).
        unsafe {
            self.arena().incr_ref(anchor);
            let old = root.link.swap(anchor);
            self.arena().release(old);
        }
        true
    }

    /// Opens a cursor at the furthest usable anchor among `roots` — the
    /// cached-cursor probe over every slot. Each distinct published
    /// anchor costs one protected read: a root whose pointer equals one
    /// this open already probed is skipped before its read (skipping
    /// only loses a duplicate candidate). `usable` filters the anchors
    /// (dictionaries pass `anchor.key < search_key`), `order` ranks the
    /// survivors, and one cursor is opened at the greatest via
    /// [`Cursor::reopen`], so it has already been [`Cursor::resume`]d.
    /// Returns `None` when no root holds a usable anchor.
    ///
    /// If the chosen anchor had been deleted, `resume` walked its
    /// `back_link`s to a live predecessor, and the root is repaired: swung
    /// from the dead anchor to that cell, or unpublished when the walk
    /// reached the list head. So no root keeps pinning a growing
    /// `back_link` chain, whether or not the thread that cached it is
    /// still running. The repair is a counted CAS against the anchor
    /// just read; if the root moved meanwhile (some thread re-cached
    /// it), nothing happens.
    // INVARIANT: I10
    pub fn cursor_at_nearest<'a>(
        &'a self,
        roots: &[EntryRoot<T>],
        mut usable: impl FnMut(&T) -> bool,
        mut order: impl FnMut(&T, &T) -> Ordering,
    ) -> Option<Cursor<'a, T, R>> {
        // The cursor's protection window (the epoch pin) opens before the
        // first probe and covers every candidate.
        let mut cursor = Cursor::unpositioned(self, 0);
        let mut buf = [MaybeUninit::uninit(); PROBED_MAX];
        let mut probed = Probed::new(&mut buf, roots.len());
        let mut best: *mut Node<T> = std::ptr::null_mut();
        let mut best_root = None;
        for root in roots {
            // A plain load, never dereferenced: it only names the anchor
            // for the duplicate check.
            let peek = root.link.read();
            if peek.is_null() || !probed.insert(peek as usize) {
                continue;
            }
            // SAFETY: `root.link` is a counted link of this arena; the
            // probe holds `p` (and `best`) while reading their items, and
            // only cells reach a root, so both carry values.
            // COUNT: the probe's reference is parked at once unless `p`
            // becomes the new `best`, whose superseded reference is
            // parked instead.
            unsafe {
                let p = cursor.protect_read(&root.link);
                if p.is_null() {
                    continue;
                }
                let item = (*p).item();
                if usable(item) && (best.is_null() || order(item, (*best).item()).is_gt()) {
                    cursor.park(best);
                    best = p;
                    best_root = Some(root);
                } else {
                    cursor.park(p);
                }
            }
        }
        let root = best_root?;
        // SAFETY: the probe holds `best` across the reopen and the
        // repair; the cursor holds the cell it landed on.
        // COUNT: `reopen` duplicates the reference on `best` for the
        // cursor; the probe's own is parked after the repair.
        unsafe {
            cursor.reopen(0, best);
            let landed = cursor.pre_cell_ptr();
            if landed != best {
                self.repair_entry(root, best, landed);
            }
            cursor.park(best);
        }
        Some(cursor)
    }

    /// Swings `root` from its dead anchor `dead` to `live`, the cell a
    /// resumed cursor landed on, or to null when `live` is the head
    /// dummy (nothing worth caching). A counted CAS: when the root no
    /// longer holds `dead` this does nothing; when it holds `dead` again
    /// after other swaps (ABA), the swing still moves exactly the count
    /// the link holds, so counts stay exact either way.
    ///
    /// # Safety
    ///
    /// The caller must hold protected references on `dead` and `live`.
    // GUARD: dead, live — caller holds protected references on both.
    unsafe fn repair_entry(&self, root: &EntryRoot<T>, dead: *mut Node<T>, live: *mut Node<T>) {
        // SAFETY: `live` is held, so inspecting its kind is protected.
        let live = if unsafe { (*live).kind() } == NodeKind::Cell {
            live
        } else {
            std::ptr::null_mut()
        };
        // SAFETY: `root.link` is a counted link of this arena and the
        // caller holds `dead` and `live`.
        // COUNT: on success the root's count moves from `dead` to `live`
        // (released by the next `cache_entry`/`retire_entry`); on
        // failure swing undid its own increment.
        unsafe {
            self.arena().swing(&root.link, dead, live);
        }
    }

    /// Reads the entry cell's value under protection, or `None` if the
    /// root is unpublished.
    pub fn with_entry<O>(&self, root: &EntryRoot<T>, f: impl FnOnce(&T) -> O) -> Option<O> {
        // Epoch backend: the guard is the read's protection window.
        let _pin = self.arena().pin();
        // SAFETY: `root.link` is a counted link of this arena.
        let p = unsafe { self.arena().safe_read(&root.link) };
        if p.is_null() {
            return None;
        }
        // SAFETY: `p` is held (protected); only publishable cells reach a
        // root (enforced by `publish_entry`), and cells carry values.
        let out = unsafe {
            let out = f((*p).item());
            self.arena().unprotect(p);
            out
        };
        Some(out)
    }

    /// Unpublishes `root` and returns its count. Idempotent; the owner's
    /// teardown path (called before dropping the list so the root's
    /// count does not keep the entry cell — and everything it links —
    /// alive past the cascade).
    pub fn retire_entry(&self, root: &EntryRoot<T>) {
        let old = root.link.swap(std::ptr::null_mut());
        // SAFETY: the link's count transfers to us on the swap; releasing
        // it is the transfer's obligation. Null (never/already retired)
        // is a no-op.
        unsafe { self.arena().release(old) };
    }

    /// [`List::audit_refcounts`] for lists with published entry roots:
    /// each published root holds one count on its entry cell, so it is
    /// declared to the audit as one more root.
    ///
    /// # Errors
    ///
    /// Describes the first mismatching node.
    pub fn audit_refcounts_with_entries<'r>(
        &mut self,
        roots: impl IntoIterator<Item = &'r EntryRoot<T>>,
    ) -> Result<(), String>
    where
        T: 'r,
    {
        let mut all = vec![self.first_root().read(), self.last_ptr()];
        all.extend(roots.into_iter().map(|r| r.link.read()));
        self.arena.audit_counts(&all)
    }
}

/// The anchors one open has probed: an open-addressed set of pointer
/// values in a stack table at most half full, so the duplicate check
/// costs O(1) per root. Only the `capacity` entries in use are
/// initialized.
struct Probed<'t> {
    table: &'t mut [usize],
}

/// [`Probed`]'s stack table size: room for 64 roots at half load.
const PROBED_MAX: usize = 128;

impl<'t> Probed<'t> {
    /// An empty set sized for `roots` pointers at half load. Beyond
    /// `PROBED_MAX` distinct pointers the table is full, and every
    /// further insert reports its pointer as new (no skip).
    fn new(buf: &'t mut [MaybeUninit<usize>; PROBED_MAX], roots: usize) -> Self {
        let capacity = (2 * roots).next_power_of_two().clamp(2, PROBED_MAX);
        for entry in &mut buf[..capacity] {
            entry.write(0);
        }
        // SAFETY: the first `capacity` entries were just initialized, and
        // the slice borrows `buf` exclusively for `'t`.
        let table = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast(), capacity) };
        Self { table }
    }

    /// Adds non-zero `value`; `false` when it was already present.
    fn insert(&mut self, value: usize) -> bool {
        let mask = self.table.len() - 1;
        // Fibonacci hashing: the product's top bits spread pointers that
        // differ only in their low (node-size) bits.
        let shift = usize::BITS - self.table.len().trailing_zeros();
        let mut at = value.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as usize) >> shift;
        for _ in 0..self.table.len() {
            match self.table[at] {
                0 => {
                    self.table[at] = value;
                    return true;
                }
                v if v == value => return false,
                _ => at = (at + 1) & mask,
            }
        }
        true
    }
}
