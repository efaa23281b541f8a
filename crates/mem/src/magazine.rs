//! Per-thread free-node magazines: the alloc/reclaim fast path.
//!
//! Experiment E8 showed `Arena::alloc` and the reclamation `push_free`
//! hammering the single global `free_head` word: every allocation is a
//! `SafeRead` + CAS on it, every reclamation a CAS, and every thread pays
//! the cache-line transfer. A *magazine* is a small per-thread stack of
//! free nodes threaded through their `free_link` fields — exactly the
//! free-list representation — that absorbs most alloc/free traffic with
//! plain (uncontended) loads and stores, refilling from and flushing to
//! the global Treiber list in batches.
//!
//! # Invariants (same as the global free list)
//!
//! Every node parked in a magazine is in the ordinary free-list state:
//!
//! * reference count exactly 1 — the incoming free-structure pointer
//!   (the magazine head for the top node, the predecessor's `free_link`
//!   for the rest),
//! * `claim` set (cleared only by `Alloc` at hand-out),
//! * chained through [`Managed::free_link`].
//!
//! Moving nodes between a magazine and the global list is therefore pure
//! *count transfer* — no reference count is touched. The quiescent audit
//! and sweep (`Arena::audit_counts`, `Arena::sweep_unreachable`) flush
//! every magazine first, so they see one free structure: the global list.
//!
//! # Locking and lock-freedom
//!
//! A magazine slot is guarded by an `AtomicBool` **try**-lock: a thread
//! whose slot is busy (another thread hashed to it) immediately falls back
//! to the global lock-free path instead of waiting, so `Alloc`/`Reclaim`
//! remain non-blocking — the lock is an opportunistic fast path, never a
//! progress requirement. Slots are selected by
//! [`valois_sync::sharded::thread_index`]; under `--cfg loom` there is a
//! single slot (and tiny capacities) so the model checker explores
//! magazine interleavings deterministically.

use valois_sync::shim::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::managed::{Link, Managed};

/// Number of magazine slots (power of two, masked by thread index).
#[cfg(not(loom))]
pub(crate) const MAG_SLOTS: usize = 16;
/// One slot under the model checker: every thread shares it, so the
/// try-lock contention path is explored deterministically.
#[cfg(loom)]
pub(crate) const MAG_SLOTS: usize = 1;

/// Nodes a magazine may hold before `push_free` flushes the excess back
/// to the global list (it flushes down to half, keeping a working set).
#[cfg(not(loom))]
pub(crate) const MAGAZINE_CAP: usize = 64;
/// Tiny capacity under the model checker so a handful of operations
/// reaches the flush path.
#[cfg(loom)]
pub(crate) const MAGAZINE_CAP: usize = 1;

/// Nodes `Alloc` pops from the global list into an empty magazine in one
/// refill (the first goes to the caller).
#[cfg(not(loom))]
pub(crate) const REFILL_BATCH: usize = 32;
/// Minimal refill under the model checker.
#[cfg(loom)]
pub(crate) const REFILL_BATCH: usize = 1;

/// One per-thread magazine: a bounded stack of free nodes chained through
/// their `free_link`s, guarded by a try-lock.
///
/// The head is a counted link (it holds the top node's single free-state
/// count); `len` is plain bookkeeping written only under the lock.
pub(crate) struct MagazineSlot<N: Managed> {
    lock: AtomicBool,
    head: Link<N>,
    len: AtomicUsize,
}

impl<N: Managed> Default for MagazineSlot<N> {
    fn default() -> Self {
        Self {
            lock: AtomicBool::new(false),
            head: Link::null(),
            len: AtomicUsize::new(0),
        }
    }
}

impl<N: Managed> MagazineSlot<N> {
    /// Attempts to acquire the slot. Never waits: contention means the
    /// caller takes the global path instead.
    pub(crate) fn try_lock(&self) -> Option<MagazineGuard<'_, N>> {
        if self
            .lock
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(MagazineGuard { slot: self })
        } else {
            None
        }
    }

    /// Nodes parked here, read without the lock: a hint for a thread that
    /// found the slot busy, exact only while the owner is not pushing or
    /// popping.
    pub(crate) fn parked(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

impl<N: Managed> std::fmt::Debug for MagazineSlot<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MagazineSlot")
            .field("len", &self.parked())
            .finish()
    }
}

/// Exclusive access to one magazine slot; unlocks on drop.
pub(crate) struct MagazineGuard<'a, N: Managed> {
    slot: &'a MagazineSlot<N>,
}

impl<N: Managed> Drop for MagazineGuard<'_, N> {
    fn drop(&mut self) {
        self.slot.lock.store(false, Ordering::Release);
    }
}

impl<N: Managed> MagazineGuard<'_, N> {
    /// Nodes currently parked in this magazine.
    pub(crate) fn len(&self) -> usize {
        self.slot.len.load(Ordering::Relaxed)
    }

    /// Pops the top node, transferring its free-state count (held by the
    /// magazine head link) to the caller. The popped node's `free_link`
    /// still names its old successor but no longer counts it — callers
    /// must treat it as garbage (`reset_for_alloc` nulls it without
    /// releasing, exactly as after a global-list pop).
    pub(crate) fn pop(&mut self) -> Option<*mut N> {
        let p = self.slot.head.read();
        if p.is_null() {
            return None;
        }
        // SAFETY: the magazine holds the top node's only count, and we hold
        // the slot lock, so `p` is ours exclusively.
        let next = unsafe { (*p).free_link().read() };
        // Count transfer: `p.free_link`'s count on `next` moves to the
        // magazine head; the head's count on `p` moves to the caller.
        self.slot.head.write(next);
        let len = self.slot.len.load(Ordering::Relaxed);
        self.slot.len.store(len - 1, Ordering::Relaxed);
        Some(p)
    }

    /// Pushes a node carrying one free-state count (the caller's — e.g.
    /// just installed by `Reclaim`'s increment, or popped from the global
    /// list). The count transfers to the magazine head link; the old
    /// head's count transfers to `p.free_link`.
    pub(crate) fn push(&mut self, p: *mut N) {
        let old = self.slot.head.read();
        // SAFETY: the caller transfers its exclusive free-state count on
        // `p`; under the slot lock nobody else writes `p.free_link`.
        unsafe {
            (*p).free_link().write(old);
        }
        self.slot.head.write(p);
        let len = self.slot.len.load(Ordering::Relaxed);
        self.slot.len.store(len + 1, Ordering::Relaxed);
    }

    /// Detaches up to `want` nodes from the top as a ready-linked chain,
    /// returning `(head, tail, taken)`. The chain stays internally counted
    /// (each node's `free_link` counts its successor); the *tail's*
    /// `free_link` is stale — its old count moved back to the magazine
    /// head — and must be overwritten before the chain is published (the
    /// arena's global splice does exactly that).
    pub(crate) fn take_chain(&mut self, want: usize) -> Option<(*mut N, *mut N, usize)> {
        if want == 0 {
            return None;
        }
        let head = self.slot.head.read();
        if head.is_null() {
            return None;
        }
        let mut tail = head;
        let mut taken = 1;
        // SAFETY: all chain nodes are exclusively ours under the slot lock.
        unsafe {
            while taken < want {
                let next = (*tail).free_link().read();
                if next.is_null() {
                    break;
                }
                tail = next;
                taken += 1;
            }
            let rest = (*tail).free_link().read();
            // Count transfer: `tail.free_link`'s count on `rest` moves to
            // the magazine head; the head's count on `head` moves to the
            // detached chain's owner (the caller).
            self.slot.head.write(rest);
        }
        let len = self.slot.len.load(Ordering::Relaxed);
        self.slot.len.store(len - taken, Ordering::Relaxed);
        Some((head, tail, taken))
    }
}

impl<N: Managed> std::fmt::Debug for MagazineGuard<'_, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MagazineGuard")
            .field("len", &self.len())
            .finish()
    }
}
