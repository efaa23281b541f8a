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
//! Cached cursors use roots the other way, through [`CacheSlot`]s:
//! [`List::cache_entry`] overwrites a slot with the cell a cursor just
//! passed, which may be deleted later, and [`List::cursor_at_nearest`]
//! probes many slots without counting, opens at the nearest usable
//! anchor, resumes past a dead one and swings that slot to the live cell
//! it landed on (invariants I10 and I12).

use std::cmp::Ordering as KeyOrder;
use std::fmt;

use valois_mem::{Link, Reclaimer};
use valois_sync::shim::atomic::{AtomicUsize, Ordering};
use valois_sync::shim::hint::prefetch_read;

use crate::cursor::Cursor;
use crate::list::List;
use crate::node::{Node, NodeKind};

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

/// One slot of a shared cursor cache: an anchor root that opens probe
/// without counting ([`List::cursor_at_nearest`]), the count last
/// displaced from it, and a gate that serializes the slot's writers.
///
/// Under `RefCount` a probe reads a slot's anchor inside a pin of the
/// arena's epoch domain, with no count of its own, so the anchor must
/// stay readable while any probe pinned before a write to the slot may
/// still be reading it. A write therefore does not release the count it
/// displaces while any pin is held: the count waits in `displaced`,
/// stamped with the global epoch, until its grace period has elapsed
/// (I12's rule, `stamp + 2 <= horizon`), and the next write to the slot
/// releases it. A write that finds the displaced count still inside its
/// grace period skips. So a slot holds at most two counts, and a stalled
/// probe stops saves rather than growing memory.
///
/// Dropping a slot that still holds counts leaks them (it has no arena
/// handle), so owners call [`List::retire_cache`] on every slot first.
pub struct CacheSlot<T: Send + Sync> {
    anchor: EntryRoot<T>,
    displaced: EntryRoot<T>,
    /// The displaced count's epoch stamp, or [`GATE_BUSY`] while a
    /// writer holds the slot.
    gate: AtomicUsize,
}

/// [`CacheSlot::gate`] value while a writer holds the slot.
const GATE_BUSY: usize = usize::MAX;

impl<T: Send + Sync> CacheSlot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Self {
            anchor: EntryRoot::new(),
            displaced: EntryRoot::new(),
            gate: AtomicUsize::new(0),
        }
    }

    /// The anchor root, for reading the anchor with
    /// [`List::with_entry`].
    pub fn anchor(&self) -> &EntryRoot<T> {
        &self.anchor
    }

    /// Both counted roots (the anchor and the displaced count), for
    /// [`List::audit_refcounts_with_entries`].
    pub fn roots(&self) -> [&EntryRoot<T>; 2] {
        [&self.anchor, &self.displaced]
    }

    /// Takes the gate: `Some(stamp of the displaced count)`, or `None`
    /// when another writer holds it.
    fn lock(&self) -> Option<usize> {
        // ORDER: Acquire — pairs with `unlock`'s Release, so this writer
        // sees the previous writer's anchor, displaced link and stamp.
        let stamp = self.gate.load(Ordering::Acquire);
        if stamp == GATE_BUSY {
            return None;
        }
        // ORDER: Acquire on success, as above; a failure means another
        // writer took the gate, and this one skips.
        self.gate
            .compare_exchange(stamp, GATE_BUSY, Ordering::Acquire, Ordering::Relaxed)
            .ok()
    }

    /// Releases the gate, recording the displaced count's `stamp`.
    fn unlock(&self, stamp: usize) {
        // ORDER: Release — publishes this writer's link writes to the
        // next writer's `lock`.
        self.gate.store(stamp, Ordering::Release);
    }
}

impl<T: Send + Sync> Default for CacheSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync> fmt::Debug for CacheSlot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheSlot")
            .field("anchored", &self.anchor.is_published())
            .field("displaced", &self.displaced.is_published())
            .finish()
    }
}

impl<T: Send + Sync, R: Reclaimer> List<T, R> {
    /// Opens a cursor at the first position **after** the cell `root`
    /// points at, or `None` if the root is unpublished.
    pub fn cursor_at<'a>(&'a self, root: &EntryRoot<T>) -> Option<Cursor<'a, T, R>> {
        Cursor::at_entry(self, &root.link)
    }

    /// The hint pass of a batched lookup: warms the cache lines that
    /// [`List::cursor_at`] and the following search will load, for
    /// every root at once. Stage by stage across all `roots` — first
    /// each published entry cell, then `hops` links past each, one
    /// prefetch per hop — so the dependent misses of separate lookups
    /// overlap instead of running back to back. `None` roots, and
    /// unpublished ones, are skipped.
    ///
    /// Every read here is a hint read (docs/PROTOCOL.md, "Hint reads"):
    /// a plain atomic load whose value is used only as a prefetch
    /// address, never dereferenced for data and never counted or
    /// pinned. A stale or recycled pointer only wastes a prefetch.
    pub fn prefetch_entry(&self, roots: &[Option<&EntryRoot<T>>], hops: usize) {
        let mut at = [std::ptr::null_mut::<Node<T>>(); HINT_ROUND];
        for chunk in roots.chunks(HINT_ROUND) {
            for (p, root) in at.iter_mut().zip(chunk) {
                *p = root.map_or(std::ptr::null_mut(), |r| r.link.read());
                prefetch_read(*p);
            }
            for _ in 0..hops {
                for p in at[..chunk.len()].iter_mut().filter(|p| !p.is_null()) {
                    // SAFETY: `*p` came from a link of this list, and the
                    // arena is type-stable: its segments stay mapped while
                    // the list lives, so `*p` addresses some `Node<T>` of
                    // it, live or recycled, whose `next` is an atomic word
                    // (the hint rule in docs/PROTOCOL.md).
                    *p = unsafe { (**p).next(0).read() };
                    prefetch_read(*p);
                }
            }
        }
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

    /// Re-points `slot` at the cursor's current anchor (`pre_cell`) — the
    /// Träff & Pöter cached-cursor pattern: a slot remembers a recently
    /// visited neighbourhood so a later operation can start there instead
    /// of at `First`. Any number of threads may cache into one slot.
    /// Returns whether the slot now names the anchor; `false` (slot
    /// untouched) when the anchor is a dummy, i.e. the cursor sits at the
    /// start of the list and caching would buy nothing, or when the
    /// slot is busy (another writer holds it) or its displaced count is
    /// still inside its grace period. A save is only a hint, so skipping
    /// one loses nothing but a start position.
    ///
    /// The slot's previous count is displaced, not released at once
    /// under `RefCount`: a probe pinned before the swap may still be
    /// reading that anchor ([`CacheSlot`]). Unlike bucket sentinels, a
    /// cached anchor **may be deleted** while the slot points at it —
    /// cell persistence keeps it (and its `back_link` chain) readable,
    /// and a cursor reopened from the slot must call [`Cursor::resume`]
    /// before use so it re-enters the live list at an undeleted
    /// predecessor (invariant I10 in docs/PROTOCOL.md).
    // INVARIANT: I10
    pub fn cache_entry(&self, slot: &CacheSlot<T>, cursor: &Cursor<'_, T, R>) -> bool {
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
        // SAFETY: the cursor holds `anchor` across the call.
        unsafe { self.replace_slot(slot, None, anchor) }
    }

    /// Empties `slot`: its anchor's count and any displaced count are
    /// released once no probe can still read them. Returns `false` when
    /// a count had to stay (the slot was busy, or a pinned probe may
    /// still read its displaced anchor); at quiescence (no pins, no
    /// concurrent writer — e.g. the owner's teardown) it always empties
    /// the slot.
    pub fn retire_cache(&self, slot: &CacheSlot<T>) -> bool {
        // SAFETY: null needs no protection.
        unsafe { self.replace_slot(slot, None, std::ptr::null_mut()) }
    }

    /// Opens a cursor at the furthest usable anchor among `slots` — the
    /// cached-cursor probe over every slot. The probe is uncounted: under
    /// a pin of the arena's epoch domain (the cursor's own pin under
    /// `Epoch`, a separate one under `RefCount`) it plain-loads each
    /// slot and reads that anchor's item, which the grace rule for
    /// displaced slot counts keeps readable (I12). `usable` filters the
    /// anchors (dictionaries pass `anchor.key < search_key`), `order`
    /// ranks the survivors, and one cursor is opened at the greatest via
    /// [`Cursor::reopen`], which takes the open's one counted reference
    /// and has already [`Cursor::resume`]d. Returns `None` when no slot
    /// holds a usable anchor.
    ///
    /// If the chosen anchor had been deleted, `resume` walked its
    /// `back_link`s to a live predecessor, and the slot is repaired:
    /// swung from the dead anchor to that cell, or emptied when the walk
    /// reached the list head. So no slot keeps pinning a growing
    /// `back_link` chain, whether or not the thread that cached it is
    /// still running. If the slot moved meanwhile (some thread re-cached
    /// it) or is busy, nothing happens.
    // INVARIANT: I10, I12
    pub fn cursor_at_nearest<'a>(
        &'a self,
        slots: &[CacheSlot<T>],
        mut usable: impl FnMut(&T) -> bool,
        mut order: impl FnMut(&T, &T) -> KeyOrder,
    ) -> Option<Cursor<'a, T, R>> {
        // Under `Epoch` the cursor's pin opens before the first probe and
        // covers every candidate; under `RefCount` the slot pin does.
        let mut cursor = Cursor::unpositioned(self, 0);
        let pin = R::COUNTED_READS.then(|| self.arena().epoch_domain().pin_guard());
        let mut best: *mut Node<T> = std::ptr::null_mut();
        let mut best_slot = None;
        for slot in slots {
            let p = slot.anchor.link.read_seqcst();
            if p.is_null() {
                continue;
            }
            // SAFETY: only cells reach a slot, and cells carry values.
            // GUARD: p, best — slot anchors loaded inside the pin: a count
            // displaced from a slot is released only after every pin that
            // could have loaded it has ended (I12), so both stay readable.
            let wins = unsafe {
                let item = (*p).item();
                usable(item) && (best.is_null() || order(item, (*best).item()).is_gt())
            };
            if wins {
                best = p;
                best_slot = Some(slot);
            }
        }
        let slot = best_slot?;
        // SAFETY: the pin keeps `best` readable with a non-zero count, so
        // `reopen` may duplicate a counted reference on it.
        // GUARD: best — loaded from a slot inside the pin (I12).
        // COUNT: `reopen` takes the open's one counted reference on
        // `best` for the cursor's `pre_cell` (released when it moves).
        unsafe { cursor.reopen(0, best) };
        drop(pin);
        let landed = cursor.pre_cell_ptr();
        if landed != best {
            // SAFETY: `landed` is the cell the cursor holds; the dead
            // anchor is only compared against the slot, never read.
            // `landed` is the head dummy when the walk reached the
            // start, and then there is nothing worth caching.
            unsafe {
                let live = if (*landed).kind() == NodeKind::Cell {
                    landed
                } else {
                    std::ptr::null_mut()
                };
                self.replace_slot(slot, Some(best), live);
            }
        }
        Some(cursor)
    }

    /// Writes `new` into `slot` if the slot holds `expect` (any value
    /// when `None`), displacing its previous count; the one writer of
    /// slot anchors (saves, repairs and retires all come here). Returns
    /// whether the slot now holds `new`.
    ///
    /// The slot's gate makes writers exclusive: a writer that finds the
    /// gate busy skips. Under the gate it first releases the slot's
    /// displaced count if that count's grace period has elapsed, and
    /// skips if it has not (so a slot holds at most two counts). Then it
    /// swaps the anchor. Under `RefCount` the old anchor's count is
    /// released at once only when no pin is held, and otherwise waits
    /// in the displaced link, stamped; under `Epoch` it is released at
    /// once, since its drop to zero already retires through limbo.
    ///
    /// # Safety
    ///
    /// The caller must hold a protected reference on non-null `new`.
    // GUARD: new — caller holds a protected reference across the call.
    // INVARIANT: I10, I12
    unsafe fn replace_slot(
        &self,
        slot: &CacheSlot<T>,
        expect: Option<*mut Node<T>>,
        new: *mut Node<T>,
    ) -> bool {
        let Some(stamp) = slot.lock() else {
            return false;
        };
        let arena = self.arena();
        let domain = arena.epoch_domain();
        let parked = slot.displaced.link.read();
        if !parked.is_null() {
            if !domain.grace_elapsed(stamp) {
                slot.unlock(stamp);
                return false;
            }
            slot.displaced.link.write(std::ptr::null_mut());
            // SAFETY: the displaced link's count transfers to us, and its
            // grace period has elapsed: no probe can still read it.
            unsafe { arena.release(parked) };
        }
        let old = slot.anchor.link.read();
        if expect.is_some_and(|e| e != old) || old == new {
            slot.unlock(stamp);
            return old == new;
        }
        // SAFETY: `new` is held by the caller, so incr_ref targets a live
        // node; the anchor link's old count transfers to us on the swap.
        // COUNT: the incr_ref's count transfers to the anchor link
        // (displaced by the next write to the slot); the old count is
        // released now or parked in the displaced link.
        unsafe {
            arena.incr_ref(new);
            slot.anchor.link.swap(new);
        }
        let mut stamp = stamp;
        if !old.is_null() {
            if R::COUNTED_READS {
                stamp = domain.displace_stamp();
                if domain.grace_elapsed(stamp) {
                    // SAFETY: no pin is held, so no probe can read `old`.
                    unsafe { arena.release(old) };
                } else {
                    slot.displaced.link.write(old);
                }
            } else {
                // SAFETY: probes under `Epoch` are covered by their
                // cursor's pin, and the release retires through limbo.
                unsafe { arena.release(old) };
            }
        }
        slot.unlock(stamp);
        true
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

/// Roots per stage of [`List::prefetch_entry`]: enough independent
/// misses in flight to cover a cold lookup's chain, few enough that the
/// first root's lines are still cached when its lookup runs.
pub const HINT_ROUND: usize = 16;
