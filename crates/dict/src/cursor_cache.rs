//! Per-thread cached cursors (Träff & Pöter, arXiv:2010.15755).
//!
//! Their `lsingly_cursor` observation: most operations on a sorted list
//! land near the previous operation of the same thread, so remembering
//! the last visited neighbourhood converts the per-operation O(n)
//! positioning scan into O(distance-moved). Here the remembered position
//! is a counted [`EntryRoot`] per thread shard, re-pointed after every
//! operation via [`List::cache_entry`].
//!
//! Opening reads every thread's slot, not only the caller's
//! ([`List::cursor_at_nearest`]): one protected read per published
//! slot, and the search starts at the nearest usable anchor any thread
//! cached. On uniform keys with `k` published anchors the expected walk
//! is about n/(k + 2) cells instead of the n/3 a search pays whenever its
//! own anchor is unusable and it restarts at `First`.
//!
//! Invalidation is the subtle part: the anchor cell may be deleted (or
//! the list arbitrarily reshaped) between operations. The slot's count
//! keeps the cell readable — cell persistence — and invariant I10
//! (docs/PROTOCOL.md) guarantees that a cursor reopened from *any* held
//! node, after [`Cursor::resume`], observes every cell that is
//! continuously present; whose slot the node came from does not matter.
//! The one thing counts cannot preserve is key ordering relative to a
//! *new* search: a deleted anchor with key equal to the search key would
//! sit at-or-past the cells the search must inspect, so
//! [`CursorCache::open`] demands the caller's `usable` predicate hold on
//! the anchor (dictionaries pass `anchor.key < search_key`, strictly)
//! and falls back to the list head when no slot qualifies.
//!
//! A dead anchor is repaired when an open picks it: the slot is swung to
//! the live cell the resumed cursor landed on. Without that, the slot of
//! a thread that has exited would pin its deleted anchor, and the
//! `back_link` chain behind it would grow, for the list's lifetime.

use std::cmp::Ordering;

use valois_core::{Cursor, EntryRoot, List, Reclaimer};
use valois_sync::sharded::Sharded;

/// Per-thread-shard cached list positions (see the module docs).
///
/// Slots hold counts on their anchors, which pins those cells (and the
/// `back_link` chains hanging off them) until the slot is re-pointed,
/// repaired or retired — owners must call [`CursorCache::retire_all`]
/// before the list is dropped, and may call it mid-flight to shed pinned
/// memory when a capped arena runs dry.
pub(crate) struct CursorCache<T: Send + Sync> {
    slots: Sharded<EntryRoot<T>>,
}

impl<T: Send + Sync> CursorCache<T> {
    pub(crate) fn new() -> Self {
        Self {
            slots: Sharded::new(),
        }
    }

    /// Opens a cursor at the nearest usable cached position of *any*
    /// thread: every published slot is probed, those whose anchor fails
    /// `usable` are skipped, and the cursor opens at the greatest of the
    /// rest under `order`. `None` when no slot qualifies (caller falls
    /// back to [`List::cursor`]).
    ///
    /// The returned cursor has been [`Cursor::resume`]d: if the anchor
    /// was deleted, it already back-walked to an undeleted predecessor,
    /// and the slot has been re-pointed there (see
    /// [`List::cursor_at_nearest`]).
    // INVARIANT: I10
    pub(crate) fn open<'a, R: Reclaimer>(
        &self,
        list: &'a List<T, R>,
        usable: impl FnMut(&T) -> bool,
        order: impl FnMut(&T, &T) -> Ordering,
    ) -> Option<Cursor<'a, T, R>> {
        list.cursor_at_nearest(self.slots.shards(), usable, order)
    }

    /// Re-points this thread's slot at `cursor`'s anchor (no-op when the
    /// cursor sits at the list head — nothing worth remembering).
    pub(crate) fn save<R: Reclaimer>(&self, list: &List<T, R>, cursor: &Cursor<'_, T, R>) {
        list.cache_entry(self.slots.get(), cursor);
    }

    /// Releases every slot's count (all threads' — quiescent callers
    /// only). Subsequent opens fall back to the head until positions are
    /// re-cached; used on teardown and under allocation pressure.
    pub(crate) fn retire_all<R: Reclaimer>(&self, list: &List<T, R>) {
        for slot in self.slots.shards() {
            list.retire_entry(slot);
        }
    }

    /// The slots, for refcount audits
    /// ([`List::audit_refcounts_with_entries`]).
    pub(crate) fn roots(&self) -> impl Iterator<Item = &EntryRoot<T>> {
        self.slots.shards()
    }
}

impl<T: Send + Sync> Default for CursorCache<T> {
    fn default() -> Self {
        Self::new()
    }
}
