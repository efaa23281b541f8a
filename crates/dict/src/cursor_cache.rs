//! Shared cached cursors (after Träff & Pöter, arXiv:2010.15755).
//!
//! Their `lsingly_cursor` observation: most operations on a sorted list
//! land near an earlier operation, so remembering recently visited
//! neighbourhoods converts the per-operation O(n) positioning scan into
//! O(distance-moved). Here a remembered position is a counted
//! [`EntryRoot`] slot, re-pointed after every operation via
//! [`List::cache_entry`].
//!
//! The slots belong to no thread. Each save writes the next slot of a
//! per-thread rotation that starts at the thread's [`thread_index`], so
//! the `k` slots hold the `k` most recent anchors of all threads, and
//! two threads saving at the same rate write different slots. Every
//! open reads every slot ([`List::cursor_at_nearest`]): one protected
//! read per published slot, and the search starts at the nearest usable
//! anchor. On uniform keys with `k` = 16 recent anchors the expected
//! walk is about n/(k + 2) = n/18 cells, against n/3 when a search has
//! only its own thread's last anchor and restarts at `First` whenever
//! that one lies past its key.
//!
//! Invalidation is the subtle part: the anchor cell may be deleted (or
//! the list arbitrarily reshaped) between operations. The slot's count
//! keeps the cell readable — cell persistence — and invariant I10
//! (docs/PROTOCOL.md) guarantees that a cursor reopened from *any* held
//! node, after [`Cursor::resume`], observes every cell that is
//! continuously present; who wrote the slot does not matter.
//! The one thing counts cannot preserve is key ordering relative to a
//! *new* search: a deleted anchor with key equal to the search key would
//! sit at-or-past the cells the search must inspect, so
//! [`CursorCache::open`] demands the caller's `usable` predicate hold on
//! the anchor (dictionaries pass `anchor.key < search_key`, strictly)
//! and falls back to the list head when no slot qualifies.
//!
//! A dead anchor leaves its slot in one of two ways: an open picks it
//! and swings the slot to the live cell the resumed cursor landed on,
//! or the next `k` saves, by any threads, overwrite it. So no slot pins a
//! deleted anchor, and the `back_link` chain behind it, for longer than
//! `k` saves, whether or not the thread that cached it is still running
//! and whether or not any search ever finds it usable.

use std::cell::Cell;
use std::cmp::Ordering;

use valois_core::{Cursor, EntryRoot, List, Reclaimer};
use valois_sync::sharded::{thread_index, Sharded};

/// Shared cached list positions (see the module docs).
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

    /// Re-points the next slot of this thread's rotation at `cursor`'s
    /// anchor (no-op when the cursor sits at the list head — nothing
    /// worth remembering — and the rotation then stays put).
    pub(crate) fn save<R: Reclaimer>(&self, list: &List<T, R>, cursor: &Cursor<'_, T, R>) {
        thread_local! {
            static NEXT: Cell<Option<usize>> = const { Cell::new(None) };
        }
        NEXT.with(|next| {
            let at = next.get().unwrap_or_else(thread_index);
            let slot = self.slots.shards().nth(at % self.slots.shard_count());
            if list.cache_entry(slot.expect("index below the slot count"), cursor) {
                next.set(Some(at.wrapping_add(1)));
            }
        });
    }

    /// Releases every slot's count. Subsequent opens fall back to the
    /// head until positions are re-cached; used on teardown and, by a
    /// running insert, under allocation pressure. Racing opens and saves
    /// need no quiescence: each slot is emptied by one atomic swap whose
    /// old count alone is released, a racing save's swap likewise
    /// releases only the count it took out, a racing repair's CAS fails
    /// against null, and a racing probe holds its own `SafeRead` count.
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
