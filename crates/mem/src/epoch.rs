//! Epoch-based grace periods for the [`Epoch`](crate::reclaim::Epoch)
//! reclamation backend.
//!
//! One [`EpochDomain`] lives inside every [`Arena`](crate::Arena). Under
//! the refcount backend only one user pins it: the cursor cache's
//! uncounted probe, whose displaced slot counts wait out a grace period
//! ([`EpochDomain::displace_stamp`], [`EpochDomain::grace_elapsed`]);
//! limbo stays empty. It provides three things:
//!
//! 1. **Pins.** A thread calls [`EpochDomain::pin`] once per *operation*
//!    (cursor lifetime), publishing `(epoch, count)` in a per-thread slot,
//!    and [`EpochDomain::unpin`] when done. While pinned, the thread may
//!    follow counted links with plain loads — no per-hop RMWs.
//! 2. **Limbo.** When a node's link in-degree reaches zero the arena
//!    *retires* it here ([`EpochDomain::retire`]): the node is stamped with
//!    the current global epoch and pushed onto a lock-free Treiber stack
//!    threaded through the node header's dedicated `limbo_next` word. Its
//!    payload and outgoing links stay **intact** — pinned readers may still
//!    be standing on it or traverse *through* it (the paper's §2.2 cell
//!    persistence, now provided by the grace period instead of counts).
//! 3. **Advance/collect.** [`EpochDomain::try_advance`] moves the global
//!    epoch forward when every pinned slot has caught up with it; the
//!    arena's collector (`Arena::advance_and_collect`) then frees limbo
//!    nodes whose grace period has elapsed.
//!
//! # The grace-period rule (invariant I12, PROTOCOL.md)
//!
//! A node retired at observed global epoch `e` may be freed only when
//!
//! ```text
//! e + 2 <= min(global_epoch, every pinned slot's epoch)
//! ```
//!
//! The *two*-epoch lag (not one) is what makes the happens-before argument
//! close. Sketch (full argument in PROTOCOL.md): the advance `e+1 -> e+2`
//! can only succeed after every slot pinned at an epoch `<= e` has
//! unpinned, and the scan's acquire read of each such slot synchronizes
//! with that unpin's release — so the retiree's *unlink* (which preceded
//! its retirement, itself sequenced before the unpin) happens-before the
//! advance. Any reader that subsequently pins at `>= e+2` read the global
//! epoch from that advance's RMW (acquire), so the unlink happens-before
//! all of its traversal loads: it can never load a link value that still
//! points at the retired node. Readers pinned at `<= e+1` may well reach
//! the node — and they are exactly the ones the `min` above waits for.
//! A one-epoch lag has neither property: a reader pinning at `e+1`
//! concurrently with the collector's scan could hold a stale link to the
//! node with no ordering forcing it to see the unlink.
//!
//! With **no** thread pinned the rule still goes through `global_epoch`
//! (never "horizon = infinity"): the collector first *advances* until
//! `global >= e + 2`, and a future reader's pin reads the global word from
//! those advance RMWs, inheriting the same happens-before edge.
//!
//! # Liveness, not safety
//!
//! A stalled reader pinning an old epoch never makes the scheme unsafe —
//! it only stops the horizon. That surfaces as reclaim pressure:
//! [`EpochDomain::limbo_depth`] and [`EpochDomain::pin_lag`] are exported
//! through `MemStats` so a capped arena's `AllocError` under the epoch
//! backend is diagnosable (see `Arena::alloc` and the regression test
//! `stalled_pin_surfaces_as_reclaim_pressure`).

use std::fmt;

use valois_sync::pad::CachePadded;
use valois_sync::shim::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use crate::managed::Managed;
use crate::stats::MemStats;

/// Number of pin slots (power of two). Threads hash in by
/// `valois_sync::sharded::thread_index`; collisions are handled by the
/// conservative count/epoch merge in [`EpochDomain::pin`].
#[cfg(not(loom))]
pub(crate) const PIN_SLOTS: usize = 16;
/// Collapsed under loom so the model checker explores slot sharing.
#[cfg(loom)]
pub(crate) const PIN_SLOTS: usize = 1;

/// Retires between collection attempts on the retire path.
#[cfg(not(loom))]
pub(crate) const COLLECT_EVERY: usize = 64;
#[cfg(loom)]
pub(crate) const COLLECT_EVERY: usize = 1;

/// Low bits of a slot word hold the pin count; the rest hold the epoch.
/// 12 bits allow 4095 simultaneous pins per slot (nested or colliding
/// threads) before overflow — far beyond the one-pin-per-operation model.
const COUNT_BITS: u32 = 12;
const COUNT_MASK: usize = (1 << COUNT_BITS) - 1;

#[inline]
fn slot_epoch(word: usize) -> usize {
    word >> COUNT_BITS
}

#[inline]
fn slot_count(word: usize) -> usize {
    word & COUNT_MASK
}

#[inline]
fn pack(epoch: usize, count: usize) -> usize {
    debug_assert!(count <= COUNT_MASK, "pin count overflow");
    (epoch << COUNT_BITS) | count
}

/// One pin slot and the pin counter of the threads that hash to it,
/// sharing the cache line the pin writes anyway.
#[derive(Default)]
struct PinSlot {
    /// `(epoch << COUNT_BITS) | count`, count 0 = unpinned.
    word: AtomicUsize,
    /// Outermost pins taken through this slot (counter shard).
    pins: AtomicU64,
}

/// Per-arena epoch state: the global epoch, the pin slots, and the limbo
/// stack of retired nodes awaiting their grace period.
pub struct EpochDomain<N: Managed> {
    /// The global epoch. Starts at 2 so `retire_epoch + 2 <= global` can
    /// never be satisfied by an uninitialized zero stamp.
    global: CachePadded<AtomicUsize>,
    /// Pin slots; each also shards the outermost-pin counter.
    slots: Box<[CachePadded<PinSlot>]>,
    /// Treiber stack of retired nodes, chained through
    /// `NodeHeader::limbo_next` (a dedicated word — `free_link` aliases
    /// `next`, which must stay intact for pinned readers).
    limbo_head: CachePadded<AtomicUsize>,
    /// Nodes currently in limbo (gauge; exact under quiescence).
    limbo_len: AtomicUsize,
    /// Successful global-epoch advances (counter).
    advances: AtomicU64,
    /// Nodes retired into limbo (counter).
    retires: AtomicU64,
    /// Limbo nodes whose grace period elapsed and were freed (counter).
    frees: AtomicU64,
    _marker: std::marker::PhantomData<fn() -> N>,
}

impl<N: Managed> Default for EpochDomain<N> {
    fn default() -> Self {
        Self {
            global: CachePadded::new(AtomicUsize::new(2)),
            slots: (0..PIN_SLOTS)
                .map(|_| CachePadded::new(PinSlot::default()))
                .collect(),
            limbo_head: CachePadded::new(AtomicUsize::new(0)),
            limbo_len: AtomicUsize::new(0),
            advances: AtomicU64::new(0),
            retires: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<N: Managed> EpochDomain<N> {
    /// The current thread's slot.
    #[inline]
    fn slot(&self) -> &PinSlot {
        &self.slots[valois_sync::sharded::thread_index() & (PIN_SLOTS - 1)]
    }

    /// The current global epoch.
    #[inline]
    pub fn global_epoch(&self) -> usize {
        // ORDER: SeqCst — participates in the I12 total order with pin
        // CASes and advance scans.
        self.global.load(Ordering::SeqCst)
    }

    /// Pins the current thread: publishes `(global_epoch, 1)` in its slot
    /// (or bumps the count of an existing pin, keeping the *older* epoch —
    /// the conservative merge that makes slot collisions and reentrancy
    /// safe). Returns the epoch pinned at.
    ///
    /// Must be balanced by exactly one [`EpochDomain::unpin`]. Pointers
    /// read under a pin must not be used after the matching unpin.
    pub fn pin(&self) -> usize {
        let PinSlot { word: slot, pins } = self.slot();
        // WAIT-FREE: a failed CAS means another pin/unpin on this shared
        // slot made progress; retries are bounded by slot sharers.
        loop {
            // ORDER: SeqCst — the slot read joins the pin/scan total
            // order (I12): a zero read here that races an advance scan is
            // resolved by the publication CAS below, never by this load.
            let s = slot.load(Ordering::SeqCst);
            if slot_count(s) == 0 {
                let e = self.global_epoch();
                // ORDER: SeqCst RMW — the pin publication must be totally
                // ordered against advance scans (I12): either the scan
                // sees this pin (and the horizon waits for us), or this
                // CAS follows the scan in the SeqCst order and our
                // subsequent loads see every unlink that preceded the
                // advance we read `e` from.
                if slot
                    .compare_exchange(s, pack(e, 1), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    pins.fetch_add(1, Ordering::Relaxed);
                    valois_trace::probe!(EpochPin, e, slot_count(s) + 1);
                    return e;
                }
            } else {
                // Nested or colliding pin: keep the existing (older or
                // equal) epoch — strictly more conservative, so safe.
                // ORDER: AcqRel — the count bump need not join the SeqCst
                // order; the slot's epoch is already published.
                if slot
                    .compare_exchange(s, s + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return slot_epoch(s);
                }
            }
        }
    }

    /// Releases one pin taken by [`EpochDomain::pin`].
    pub fn unpin(&self) {
        let slot = &self.slot().word;
        // WAIT-FREE: a failed CAS means another pin/unpin on this shared
        // slot made progress; retries are bounded by slot sharers.
        loop {
            let s = slot.load(Ordering::Acquire);
            debug_assert!(slot_count(s) > 0, "unpin without matching pin");
            let next = if slot_count(s) == 1 { 0 } else { s - 1 };
            // ORDER: AcqRel — the release half publishes every traversal
            // load before the slot reads as unpinned, so an advance scan
            // that observes the unpin happens-after our last use of any
            // protected node (the unpin side of I12's synchronization).
            if slot
                .compare_exchange(s, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Whether the current thread's slot holds at least one pin (the slot
    /// may be shared, so this is necessary-not-sufficient — good enough
    /// for the debug assertions on the plain-read path).
    pub fn current_thread_pinned(&self) -> bool {
        slot_count(self.slot().word.load(Ordering::Acquire)) > 0
    }

    /// Pins the current thread for the guard's lifetime
    /// ([`EpochDomain::pin`] and [`EpochDomain::unpin`]). Usable under
    /// either backend: the cursor cache's uncounted probe pins this way
    /// under `RefCount`, where the arena's own `pin` is a no-op.
    pub fn pin_guard(&self) -> DomainPin<'_, N> {
        self.pin();
        DomainPin { domain: self }
    }

    /// Tries to advance the global epoch by one. Succeeds only when every
    /// pinned slot has caught up with the current epoch. Returns the new
    /// epoch on success.
    pub fn try_advance(&self) -> Option<usize> {
        // INVARIANT: I12
        // ORDER: SeqCst fence — globally orders this scan's slot loads
        // against pin-publication CASes: any pin this scan misses is
        // later in the SeqCst order and will observe (via its
        // global-epoch read) every unlink that precedes the advance
        // below.
        fence(Ordering::SeqCst);
        let g = self.global_epoch();
        for slot in self.slots.iter() {
            // ORDER: SeqCst — the scan side of the pin/scan total order
            // (I12); an Acquire load could legally miss a pin whose CAS
            // the fence above already ordered before us.
            let s = slot.word.load(Ordering::SeqCst);
            if slot_count(s) != 0 && slot_epoch(s) != g {
                return None;
            }
        }
        // ORDER: SeqCst RMW — publishes the new epoch; a pin that reads it
        // acquires everything that happened-before this advance,
        // including every unlink ordered by the scan above.
        if self
            .global
            .compare_exchange(g, g + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.advances.fetch_add(1, Ordering::Relaxed);
            valois_trace::probe!(EpochAdvance, g + 1);
            Some(g + 1)
        } else {
            None
        }
    }

    /// The reclamation horizon: `min(global_epoch, every pinned epoch)`.
    /// A limbo node is freeable iff `retire_epoch + 2 <= horizon()` (I12).
    pub fn horizon(&self) -> usize {
        let (global, oldest) = self.scan();
        oldest.map_or(global, |e| e.min(global))
    }

    /// The global epoch and the oldest pinned slot's stamp (`None` when
    /// no slot is pinned), read after a `SeqCst` fence.
    fn scan(&self) -> (usize, Option<usize>) {
        // INVARIANT: I12
        // ORDER: SeqCst fence — globally orders the slot loads below
        // against pin-publication CASes, exactly as in `try_advance`: a
        // pin missed by this scan is later in the SeqCst order, so its
        // stamp is >= the global epoch read here and cannot undercut the
        // returned horizon.
        fence(Ordering::SeqCst);
        let global = self.global_epoch();
        let mut oldest: Option<usize> = None;
        for slot in self.slots.iter() {
            // ORDER: SeqCst — scan side of the pin/scan total order
            // (I12); see `try_advance`.
            let s = slot.word.load(Ordering::SeqCst);
            if slot_count(s) != 0 {
                let e = slot_epoch(s);
                oldest = Some(oldest.map_or(e, |o| o.min(e)));
            }
        }
        (global, oldest)
    }

    /// Stamps a count just displaced from a location that pinned readers
    /// load without counting (a cursor-cache slot under `RefCount`): the
    /// global epoch, read after a `SeqCst` fence that orders the
    /// displacing write before it. Pass the stamp to
    /// [`EpochDomain::grace_elapsed`] before releasing the count.
    pub fn displace_stamp(&self) -> usize {
        // INVARIANT: I12
        // ORDER: SeqCst fence — a reader whose pin reads an epoch of at
        // least stamp + 2 pinned after this fence in the SeqCst order,
        // so its SeqCst load of the location sees the displacing write.
        fence(Ordering::SeqCst);
        self.global_epoch()
    }

    /// Whether a count stamped `stamp` by [`EpochDomain::displace_stamp`]
    /// may be released: no slot is pinned now, or `stamp + 2 <= horizon`
    /// (I12). When pinned slots hold it back, it tries one advance, so
    /// later checks can pass once the pins catch up.
    pub fn grace_elapsed(&self, stamp: usize) -> bool {
        let (global, oldest) = self.scan();
        let Some(oldest) = oldest else {
            // Every pin that could have read the old value has unpinned,
            // and the scan acquired each unpin.
            return true;
        };
        if stamp + 2 <= oldest.min(global) {
            return true;
        }
        self.try_advance();
        false
    }

    /// Retires a claimed node into limbo, stamped with the current global
    /// epoch. The node's payload and outgoing counted links are left
    /// intact (pinned readers may still traverse them); they are drained
    /// by the collector once the grace period elapses.
    ///
    /// Returns the number of retires since the last collection hint, so
    /// the caller can amortize `advance_and_collect` (see
    /// [`COLLECT_EVERY`]).
    ///
    /// # Safety
    ///
    /// The caller must hold the node's claim (won via `try_claim` at
    /// count zero, or a quiescent `set_claim`), and must not touch the
    /// node afterwards — ownership passes to the limbo list.
    // GUARD: p — caller holds the claim; ownership transfers to limbo at
    // the successful CAS below.
    pub unsafe fn retire(&self, p: *mut N) -> u64 {
        debug_assert!((*p).header().claim_is_set(), "retire requires the claim");
        (*p).header().set_retire_epoch(self.global_epoch());
        // Treiber push through the dedicated limbo_next word.
        // WAIT-FREE: a failed CAS means another retire landed — progress.
        loop {
            let head = self.limbo_head.load(Ordering::Acquire);
            (*p).header().set_limbo_next(head);
            // ORDER: AcqRel on success — publishes the node's retire stamp
            // and limbo link before the collector can take the chain.
            if self
                .limbo_head
                .compare_exchange(head, p as usize, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        self.limbo_len.fetch_add(1, Ordering::Relaxed);
        self.retires.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Detaches the entire limbo chain for a private walk. The caller
    /// (the arena's collector) must re-splice survivors via
    /// [`EpochDomain::requeue`] and report frees via
    /// [`EpochDomain::note_freed`].
    pub(crate) fn take_limbo(&self) -> *mut N {
        // ORDER: AcqRel — acquires every retire's publication (stamp +
        // payload) before the walk dereferences the chain.
        self.limbo_head.swap(0, Ordering::AcqRel) as *mut N
    }

    /// Pushes a not-yet-freeable node back onto limbo (same mechanics as
    /// retire, but the original epoch stamp is preserved and the gauge is
    /// untouched — the node never logically left limbo).
    ///
    /// # Safety
    ///
    /// `p` must have come from [`EpochDomain::take_limbo`] on this domain
    /// during the current collection walk.
    // GUARD: p — caller owns the detached limbo node; ownership returns
    // to the limbo list at the successful CAS below.
    pub(crate) unsafe fn requeue(&self, p: *mut N) {
        // WAIT-FREE: a failed CAS means another retire/requeue landed —
        // progress.
        loop {
            let head = self.limbo_head.load(Ordering::Acquire);
            (*p).header().set_limbo_next(head);
            if self
                .limbo_head
                .compare_exchange(head, p as usize, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Records `n` limbo nodes freed by the collector.
    pub(crate) fn note_freed(&self, n: usize) {
        if n > 0 {
            self.limbo_len.fetch_sub(n, Ordering::Relaxed);
            self.frees.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Nodes currently awaiting their grace period (reclaim-pressure
    /// gauge).
    pub fn limbo_depth(&self) -> usize {
        self.limbo_len.load(Ordering::Relaxed)
    }

    /// How far the oldest pinned thread lags the global epoch (0 when
    /// nothing is pinned or everyone is current). A large, persistent lag
    /// means a stalled reader is blocking reclamation.
    pub fn pin_lag(&self) -> usize {
        let g = self.global_epoch();
        let mut oldest = g;
        for slot in self.slots.iter() {
            // ORDER: SeqCst — same scan discipline as `horizon` (I12);
            // the gauge must never under-report a pin the collector
            // would have to respect.
            let s = slot.word.load(Ordering::SeqCst);
            if slot_count(s) != 0 {
                oldest = oldest.min(slot_epoch(s));
            }
        }
        g - oldest
    }

    /// Writes the `epoch_*` counters and gauges into `s`.
    pub(crate) fn record(&self, s: &mut MemStats) {
        s.epoch_pins = self
            .slots
            .iter()
            .map(|slot| slot.pins.load(Ordering::Relaxed))
            .sum();
        s.epoch_advances = self.advances.load(Ordering::Relaxed);
        s.epoch_retires = self.retires.load(Ordering::Relaxed);
        s.epoch_frees = self.frees.load(Ordering::Relaxed);
        s.epoch_limbo_depth = self.limbo_depth() as u64;
        s.epoch_pin_lag = self.pin_lag() as u64;
    }
}

/// RAII pin on an [`EpochDomain`] (see [`EpochDomain::pin_guard`]).
#[must_use = "dropping the guard immediately unpins"]
pub struct DomainPin<'a, N: Managed> {
    domain: &'a EpochDomain<N>,
}

impl<N: Managed> Drop for DomainPin<'_, N> {
    fn drop(&mut self) {
        self.domain.unpin();
    }
}

impl<N: Managed> fmt::Debug for DomainPin<'_, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DomainPin").finish_non_exhaustive()
    }
}

impl<N: Managed> fmt::Debug for EpochDomain<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochDomain")
            .field("global", &self.global_epoch())
            .field("limbo_depth", &self.limbo_depth())
            .field("pin_lag", &self.pin_lag())
            .finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::managed::{Link, NodeHeader, ReclaimedLinks};

    #[derive(Default)]
    struct TestNode {
        header: NodeHeader,
        next: Link<TestNode>,
    }

    impl Managed for TestNode {
        fn header(&self) -> &NodeHeader {
            &self.header
        }
        fn free_link(&self) -> &Link<Self> {
            &self.next
        }
        fn drain_links(&self) -> ReclaimedLinks<Self> {
            let mut links = ReclaimedLinks::new();
            links.push(self.next.swap(std::ptr::null_mut()));
            links
        }
        fn links(&self) -> impl Iterator<Item = &Link<Self>> {
            std::iter::once(&self.next)
        }
        fn reset_for_alloc(&self) {
            self.next.write(std::ptr::null_mut());
        }
    }

    #[test]
    fn pin_blocks_advance_until_unpin() {
        let d: EpochDomain<TestNode> = EpochDomain::default();
        let g0 = d.global_epoch();
        let e = d.pin();
        assert_eq!(e, g0);
        // Pinned at the current epoch: one advance is allowed (we are
        // current) ...
        assert_eq!(d.try_advance(), Some(g0 + 1));
        // ... but a second is not, until we catch up.
        assert_eq!(d.try_advance(), None);
        assert_eq!(d.pin_lag(), 1);
        d.unpin();
        assert_eq!(d.try_advance(), Some(g0 + 2));
        assert_eq!(d.pin_lag(), 0);
    }

    #[test]
    fn nested_pin_keeps_older_epoch() {
        let d: EpochDomain<TestNode> = EpochDomain::default();
        let e1 = d.pin();
        d.try_advance();
        let e2 = d.pin(); // nested: must keep the older pinned epoch
        assert_eq!(e2, e1);
        assert_eq!(d.horizon(), e1);
        d.unpin();
        d.unpin();
        assert_eq!(d.horizon(), d.global_epoch());
    }

    #[test]
    fn horizon_is_min_of_global_and_pins() {
        let d: EpochDomain<TestNode> = EpochDomain::default();
        assert_eq!(d.horizon(), d.global_epoch());
        let e = d.pin();
        d.try_advance();
        assert_eq!(d.horizon(), e);
        assert_eq!(d.global_epoch(), e + 1);
        d.unpin();
    }

    #[test]
    fn retire_take_requeue_roundtrip() {
        let d: EpochDomain<TestNode> = EpochDomain::default();
        let mut a = TestNode::default();
        let mut b = TestNode::default();
        let (pa, pb) = (&mut a as *mut TestNode, &mut b as *mut TestNode);
        unsafe {
            d.retire(pa);
            d.retire(pb);
        }
        assert_eq!(d.limbo_depth(), 2);
        let mut seen = Vec::new();
        let mut p = d.take_limbo();
        while !p.is_null() {
            let next = unsafe { (*p).header().limbo_next() } as *mut TestNode;
            seen.push(p);
            p = next;
        }
        assert_eq!(seen, vec![pb, pa], "LIFO order");
        assert_eq!(d.take_limbo(), std::ptr::null_mut());
        unsafe { d.requeue(pa) };
        assert_eq!(d.limbo_depth(), 2, "requeue does not change the gauge");
        d.note_freed(1);
        assert_eq!(d.limbo_depth(), 1);
        let mut s = MemStats::default();
        d.record(&mut s);
        assert_eq!((s.epoch_retires, s.epoch_frees), (2, 1));
    }
}
