//! The type-stable node arena and the §5 protocol operations.
//!
//! One [`Arena`] backs one concurrent data structure (or one size class, in
//! the paper's terms — §5.2 notes "free cells must all be of the same
//! size"). The arena owns every node for the structure's lifetime:
//! segments are allocated as the free list runs dry and are only freed when
//! the arena is dropped. This *type stability* is what makes the protocol's
//! transient touches of recycled nodes memory-safe (see crate docs).
//!
//! | Paper figure | Method |
//! |---|---|
//! | Fig. 15 `SafeRead`  | [`Arena::safe_read`] / [`Arena::safe_read_tallied`] |
//! | Fig. 16 `Release`   | [`Arena::release`] (batched: [`Arena::release_deferred`]) |
//! | Fig. 17 `Alloc`     | [`Arena::alloc`] |
//! | Fig. 18 `Reclaim`   | internal `push_free` (invoked by the claim winner inside `release`) |
//!
//! On top of the paper's global lock-free free list the arena layers
//! per-thread **magazines** (see [`crate::magazine`]): bounded node stacks
//! that absorb most `Alloc`/`Reclaim` traffic without touching the shared
//! `free_head` word, refilled and flushed in batches. The global list
//! remains the fallback on slot contention and the rendezvous for pool
//! pressure ([`Arena::flush_thread_caches`] / the internal scavenge), so
//! `AllocError` semantics for capped pools are preserved.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use valois_sync::shim::sync::Mutex;

use valois_sync::pad::CachePadded;
use valois_sync::Backoff;

use crate::defer::{DeferredReleases, DEFER_CAP};
use crate::epoch::{EpochDomain, COLLECT_EVERY};
use crate::magazine::{MagazineGuard, MagazineSlot, MAGAZINE_CAP, MAG_SLOTS, REFILL_BATCH};
use crate::managed::{Link, Managed};
use crate::reclaim::{Reclaimer, RefCount};
use crate::stats::{MemStats, StatCounters};

/// Configuration for an [`Arena`].
///
/// The paper assumes a preallocated pool of cells; [`ArenaConfig::max_nodes`]
/// recovers that model (alloc fails when the pool is exhausted), while the
/// default allows growth by doubling, which is an engineering convenience
/// outside the paper's model (growth takes a mutex, but only on the cold
/// path; `Alloc` itself stays lock-free whenever the free list is non-empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaConfig {
    /// Nodes allocated up front. Default 1024.
    pub initial_capacity: usize,
    /// Hard cap on total nodes; `None` (default) grows without bound.
    pub max_nodes: Option<usize>,
}

impl ArenaConfig {
    /// Default configuration (1024 preallocated nodes, unbounded growth).
    pub fn new() -> Self {
        Self {
            initial_capacity: 1024,
            max_nodes: None,
        }
    }

    /// Sets the initial capacity.
    pub fn initial_capacity(mut self, nodes: usize) -> Self {
        self.initial_capacity = nodes.max(1);
        self
    }

    /// Sets a hard pool limit (the paper's fixed-pool model).
    pub fn max_nodes(mut self, nodes: usize) -> Self {
        self.max_nodes = Some(nodes.max(1));
        self
    }
}

impl Default for ArenaConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Allocation failure: the pool hit [`ArenaConfig::max_nodes`] with no free
/// cells available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError;

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("node pool exhausted")
    }
}

impl Error for AllocError {}

/// Backoff rounds `alloc` waits for a busy magazine that holds free nodes
/// before it reports [`AllocError`].
const BUSY_SLOT_ROUNDS: u32 = 10;

/// What one [`Arena::scavenge`] pass found: nodes moved to the global free
/// list, and whether a busy magazine holding nodes was skipped.
struct Scavenged {
    moved: usize,
    skipped: bool,
}

/// A type-stable segmented pool of `N` nodes with the §5 reference-counting
/// protocol.
///
/// See the crate-level documentation for the counting invariant. All
/// pointer-returning methods hand out *counted* references; every such
/// pointer must eventually be passed to exactly one [`Arena::release`]
/// (possibly by way of [`Arena::release_deferred`]).
///
/// # Reclamation backends
///
/// The second type parameter selects the reclamation backend (see
/// [`crate::reclaim`]); it defaults to the paper-faithful
/// [`RefCount`] scheme, under which everything above holds verbatim.
/// Under [`crate::reclaim::Epoch`], *link* references (structure roots and
/// node link fields, maintained by [`Arena::swing`]/[`Arena::store_link`]/
/// [`Arena::incr_ref`]+[`Arena::release`]) remain counted, but *process*
/// references are protected by an epoch pin ([`Arena::pin`]) instead:
/// [`Arena::safe_read`] degenerates to a plain load, and the
/// process-reference half of the API goes through [`Arena::protect_dup`]/
/// [`Arena::unprotect`]/[`Arena::unprotect_deferred`], which are no-ops.
/// Nodes whose link in-degree reaches zero are retired into the arena's
/// [`EpochDomain`] limbo list and recycled only after their grace period
/// (invariant I12, PROTOCOL.md).
pub struct Arena<N: Managed, R: Reclaimer = RefCount> {
    /// Segment storage. Boxed slices never move, so node addresses are
    /// stable; the mutex is taken only to grow or enumerate.
    segments: Mutex<Vec<Box<[N]>>>,
    /// Head of the lock-free free list (a counted root: its current value
    /// contributes 1 to that node's count).
    free_head: CachePadded<Link<N>>,
    /// Per-thread free-node magazines (see [`crate::magazine`]): each slot
    /// is a bounded stack of free nodes in ordinary free-list state.
    slots: Box<[CachePadded<MagazineSlot<N>>]>,
    /// Grow serialization (kept out of `segments` so enumeration does not
    /// block growth decisions).
    grow_lock: Mutex<()>,
    counters: StatCounters,
    total_nodes: valois_sync::shim::atomic::AtomicUsize,
    max_nodes: Option<usize>,
    /// Epoch state for the [`crate::reclaim::Epoch`] backend (inert under
    /// [`RefCount`]: never pinned, limbo never populated).
    epoch: EpochDomain<N>,
    _backend: std::marker::PhantomData<R>,
}

impl<N: Managed + Default, R: Reclaimer> Arena<N, R> {
    /// Creates an arena with `config`, preallocating the initial segment.
    pub fn with_config(config: ArenaConfig) -> Self {
        let arena = Self {
            segments: Mutex::new(Vec::new()),
            free_head: CachePadded::new(Link::null()),
            slots: (0..MAG_SLOTS)
                .map(|_| CachePadded::new(MagazineSlot::default()))
                .collect(),
            grow_lock: Mutex::new(()),
            counters: StatCounters::default(),
            total_nodes: valois_sync::shim::atomic::AtomicUsize::new(0),
            max_nodes: config.max_nodes,
            epoch: EpochDomain::default(),
            _backend: std::marker::PhantomData,
        };
        let initial = match config.max_nodes {
            Some(max) => config.initial_capacity.min(max),
            None => config.initial_capacity,
        };
        arena.add_segment(initial.max(1));
        arena
    }

    /// Creates an arena with the default configuration.
    pub fn new() -> Self {
        Self::with_config(ArenaConfig::default())
    }

    /// Allocates one segment of `count` default-constructed nodes and
    /// splices them onto the global free list as one pre-linked chain —
    /// a single CAS instead of `count` pushes on the shared head.
    fn add_segment(&self, count: usize) {
        let segment: Box<[N]> = (0..count).map(|_| N::default()).collect();
        let mut chain_head: *mut N = std::ptr::null_mut();
        let mut tail: *mut N = std::ptr::null_mut();
        for node in segment.iter() {
            let p = node as *const N as *mut N;
            // SAFETY: the segment is freshly boxed and still private to
            // this call. Fresh nodes are born detached (count 0, claim
            // set); install the free structure's incoming-pointer count,
            // then chain.
            unsafe {
                (*p).header().incr_ref();
                (*p).free_link().write(chain_head);
            }
            if tail.is_null() {
                tail = p;
            }
            chain_head = p;
        }
        self.splice_free_global(chain_head, tail);
        self.total_nodes
            .fetch_add(count, valois_sync::shim::atomic::Ordering::Relaxed);
        self.segments.lock().unwrap().push(segment);
        self.counters.bump(|s| &s.grows);
    }

    /// Grows the pool if permitted. Returns `false` when at `max_nodes`.
    fn try_grow(&self) -> bool {
        let _g = self.grow_lock.lock().unwrap();
        // Re-check after acquiring: another thread may have grown (or
        // released nodes) while we waited.
        if !self.free_head.read().is_null() {
            return true;
        }
        let current = self
            .total_nodes
            .load(valois_sync::shim::atomic::Ordering::Relaxed);
        let want = current.max(1); // double
        let want = match self.max_nodes {
            Some(max) if current >= max => return false,
            Some(max) => want.min(max - current),
            None => want,
        };
        self.add_segment(want);
        true
    }

    /// The paper's `Alloc` (Fig. 17): pops a free cell, re-initializes it,
    /// and returns it with one counted reference (the caller's).
    ///
    /// Fast path: the current thread's magazine — plain uncontended
    /// loads/stores, zero shared RMWs. An empty magazine refills from the
    /// global list in one batch; a *busy* magazine slot (another thread
    /// hashed to it) falls through to the global lock-free pop, so `Alloc`
    /// never blocks. An empty global list triggers a (mutex-guarded)
    /// growth attempt, then a scavenge of every magazine, before the pool
    /// is declared exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the pool is exhausted and capped.
    pub fn alloc(&self) -> Result<*mut N, AllocError> {
        let mut tally = MemStats::default();
        let result = self.alloc_inner(&mut tally);
        self.flush_tally(&mut tally);
        result
    }

    /// Allocates one node into every slot of `nodes` (each with a count
    /// of one, as [`Arena::alloc`]), or none: when the pool runs dry part
    /// way, the nodes already taken go back before the error returns.
    /// Structures whose insert needs several nodes take them all before
    /// publishing any, so an exhausted pool leaves nothing half-linked.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the pool is exhausted and capped;
    /// `nodes` then holds no counted reference.
    pub fn alloc_all(&self, nodes: &mut [*mut N]) -> Result<(), AllocError> {
        for i in 0..nodes.len() {
            // COUNT: each allocation reference transfers to the caller in
            // `nodes`; a failure releases the ones already taken.
            match self.alloc() {
                Ok(p) => nodes[i] = p,
                Err(e) => {
                    for &taken in &nodes[..i] {
                        // SAFETY: fresh nodes this call allocated, never
                        // published.
                        unsafe { self.release(taken) };
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn alloc_inner(&self, tally: &mut MemStats) -> Result<*mut N, AllocError> {
        // Built on first use: construction reads a thread-local, and
        // almost every call returns before it needs to wait.
        let mut backoff: Option<Backoff> = None;
        let mut busy_rounds = 0;
        loop {
            if let Some(mut mag) = self.slot().try_lock() {
                let popped = mag.pop().or_else(|| self.refill_and_pop(&mut mag, tally));
                if let Some(p) = popped {
                    drop(mag);
                    return Ok(self.finish_alloc(p));
                }
            } else if let Some(p) = self.pop_free_global(tally) {
                // Slot contended: straight to the global Fig. 17 path
                // rather than waiting on the try-lock.
                return Ok(self.finish_alloc(p));
            }
            // Global list empty. Epoch backend: before growing (or
            // failing), force enough epoch advances for limbo garbage to
            // finish its grace period — otherwise a delete-heavy workload
            // would grow the pool (or exhaust a capped one) while
            // reclaimable memory sits in limbo.
            if self.pressure_collect(tally) > 0 {
                continue;
            }
            // Grow if permitted; otherwise pull back nodes parked in
            // other threads' magazines. Only when none of collect, grow,
            // or scavenge yields anything is the pool truly exhausted —
            // under the epoch backend that can mean a stalled reader is
            // pinning an old epoch: the `limbo_depth`/`pin_lag` gauges in
            // [`Arena::stats`] say so (see
            // `stalled_pin_surfaces_as_reclaim_pressure`).
            if self.try_grow() {
                continue;
            }
            let found = self.scavenge();
            if found.moved > 0 {
                continue;
            }
            // Free nodes in a busy magazine are held by an owner mid push
            // or pop, and an owner that only releases never allocates, so
            // it will not hand them back itself: wait for its lock. The
            // wait is bounded, so `alloc` never blocks on another thread.
            if !found.skipped || busy_rounds == BUSY_SLOT_ROUNDS {
                return Err(AllocError);
            }
            busy_rounds += 1;
            backoff.get_or_insert_with(Backoff::new).spin();
        }
    }

    /// Fig. 17 lines 7-8 plus bookkeeping: the caller owns `p` (one
    /// counted reference, claim still set from its free life).
    fn finish_alloc(&self, p: *mut N) -> *mut N {
        self.counters.bump(|s| &s.allocs);
        valois_trace::probe!(Alloc, p as usize);
        // SAFETY: `p` was just popped off a free structure with its claim
        // still set — the caller is its sole owner until it is published.
        unsafe {
            debug_assert!((*p).header().claim_is_set(), "free node must be claimed");
            debug_assert!((*p).header().refcount() >= 1, "caller's count must exist");
            (*p).reset_for_alloc();
            // Fig. 17 line 8: Write(q^.claim, 0) — the single point where
            // claim is cleared, while we are sole owner.
            (*p).header().clear_claim();
        }
        p
    }

    /// Pops from the global free list (the paper's Fig. 17 lines 1-6) and
    /// pushes up to [`REFILL_BATCH`]` - 1` more nodes into the held
    /// magazine, amortizing the shared-head traffic over the magazine's
    /// subsequent private pops. Returns the caller's node.
    fn refill_and_pop(
        &self,
        mag: &mut MagazineGuard<'_, N>,
        tally: &mut MemStats,
    ) -> Option<*mut N> {
        let first = self.pop_free_global(tally)?;
        let mut refilled = 0u64;
        for _ in 1..REFILL_BATCH {
            match self.pop_free_global(tally) {
                Some(p) => {
                    mag.push(p);
                    refilled += 1;
                }
                None => break,
            }
        }
        valois_trace::probe!(MagRefill, refilled);
        Some(first)
    }

    /// Fig. 17 lines 1-6: SafeRead the head, CAS it to its successor.
    /// Returns a node carrying one counted reference (ours), claim set,
    /// `free_link` stale (its count was transferred to the head root).
    fn pop_free_global(&self, tally: &mut MemStats) -> Option<*mut N> {
        // WAIT-FREE: a failed CSW means another allocator popped the head
        // (or a reclaimer pushed one) — system-wide progress every retry.
        loop {
            // Fig. 17 line 1: q <- SafeRead(Freelist).
            // SAFETY: the free-list head is a counted root, so SafeRead's
            // contract holds. Counted under both backends: the count is
            // the pop's ABA protection (see `safe_read_counted`).
            let q = unsafe { self.safe_read_counted(&self.free_head, tally) };
            if q.is_null() {
                return None;
            }
            // SAFETY: our counted reference keeps `q` from being recycled,
            // so its free link is stable while `q` remains the head.
            let next = unsafe { (*q).free_link().read() };
            // Fig. 17 line 4: CSW(Freelist, q, q^.next).
            if self.free_head.compare_and_swap(q, next) {
                // Count transfer: the root's count on `q` dies (released
                // below — we keep our SafeRead count as the allocation
                // reference); the root now counts `next`, which
                // simultaneously lost the count held by `q`'s free link
                // (net zero for `next`).
                // SAFETY: releasing the root's dead count on `q`, exactly
                // once, on the arena that owns it.
                unsafe { self.release_into(q, tally) };
                return Some(q);
            }
            // Fig. 17 lines 5-6: lost the race; drop protection and retry.
            // SAFETY: releasing the SafeRead count acquired above.
            unsafe { self.release_into(q, tally) };
            self.counters.bump(|s| &s.alloc_retries);
        }
    }
}

impl<N: Managed + Default, R: Reclaimer> Default for Arena<N, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Managed, R: Reclaimer> Arena<N, R> {
    /// The current thread's magazine slot (threads may collide; the slot
    /// try-lock keeps collisions safe, the global path keeps them
    /// non-blocking).
    #[inline]
    fn slot(&self) -> &MagazineSlot<N> {
        &self.slots[valois_sync::sharded::thread_index() & (MAG_SLOTS - 1)]
    }

    /// The paper's `SafeRead` (Fig. 15): atomically reads the counted link
    /// `src` and acquires a counted reference on the target.
    ///
    /// Returns null if the link is null. A non-null result must eventually
    /// be passed to exactly one [`Arena::release`].
    ///
    /// # Safety
    ///
    /// `src` must be a *counted link of this arena*: a location whose
    /// non-null values are always addresses of this arena's nodes and whose
    /// current value always contributes 1 to its target's count (a structure
    /// root, or a field of a node the caller holds a counted reference on).
    pub unsafe fn safe_read(&self, src: &Link<N>) -> *mut N {
        let mut tally = MemStats::default();
        let q = self.safe_read_tallied(src, &mut tally);
        self.flush_tally(&mut tally);
        q
    }

    /// [`Arena::safe_read`] with the statistics recorded into a caller
    /// tally instead of the shared counters — the hot-path variant for
    /// loops that perform many reads before flushing once (see
    /// [`MemStats`] and [`Arena::flush_tally`]).
    ///
    /// # Safety
    ///
    /// As [`Arena::safe_read`].
    pub unsafe fn safe_read_tallied(&self, src: &Link<N>, tally: &mut MemStats) -> *mut N {
        if !R::COUNTED_READS {
            // Epoch backend: the caller's pin is the protection — a plain
            // load, zero shared RMWs. The result must not outlive the pin
            // (and `release`-family calls on it become `unprotect`s).
            debug_assert!(
                self.epoch.current_thread_pinned(),
                "epoch-backend safe_read outside a pin"
            );
            let q = src.read();
            if !q.is_null() {
                tally.safe_reads += 1;
            }
            return q;
        }
        self.safe_read_counted(src, tally)
    }

    /// The counted Fig. 15 loop. Always used for the free-list head —
    /// under *both* backends — because the count it takes on the head
    /// node is what makes the free-list pop ABA-safe (a node with a
    /// transient SafeRead count can complete a full free→alloc→free
    /// cycle without ever re-reaching the head with a stale `free_link`).
    ///
    /// # Safety
    ///
    /// As [`Arena::safe_read`].
    unsafe fn safe_read_counted(&self, src: &Link<N>, tally: &mut MemStats) -> *mut N {
        loop {
            // Fig. 15 line 1: q <- Read(p).
            let q = src.read();
            if q.is_null() {
                return std::ptr::null_mut();
            }
            // Fig. 15 line 4: Increment(q^.refct). `q` may be stale — even
            // recycled — but it is always a valid node of this type-stable
            // arena, so the increment is memory-safe; the re-read below
            // rejects stale protections and `release` undoes the count.
            let prev = (*q).header().incr_ref();
            // Fig. 15 line 5: still current? Then our count was acquired
            // while `src` held a (counted) pointer to `q`, so `q` was live.
            if src.read() == q {
                tally.safe_reads += 1;
                valois_trace::probe!(SafeRead, q as usize, prev);
                return q;
            }
            // Fig. 15 lines 7-8.
            self.release_into(q, tally);
            tally.safe_read_retries += 1;
        }
    }

    /// Duplicates a counted reference the caller already holds (used when a
    /// held pointer is copied into a second long-lived location, e.g. a
    /// cursor field or a fresh node's link).
    ///
    /// # Safety
    ///
    /// The caller must hold a counted reference on non-null `p` (so it
    /// cannot be concurrently recycled).
    // GUARD: p — caller holds a counted reference for the call's duration.
    pub unsafe fn incr_ref(&self, p: *mut N) {
        if !p.is_null() {
            (*p).header().incr_ref();
        }
    }

    /// The paper's `Release` (Fig. 16): gives up one counted reference.
    /// If the count reaches zero, wins the `claim` arbitration and reclaims
    /// the node — draining its outgoing counted links (whose targets are
    /// released in turn, iteratively) and pushing it onto the free list.
    ///
    /// Null pointers are ignored (the paper's algorithms release cursor
    /// fields that may be NULL, e.g. `First` line 3 / `Update` line 5).
    ///
    /// # Safety
    ///
    /// Non-null `p` must be a counted reference obtained from this arena
    /// (`safe_read`/`incr_ref`/`alloc` or a drained link), released exactly
    /// once.
    // GUARD: p — caller holds the count being given up; `p`'s protection
    // window closes at this call.
    pub unsafe fn release(&self, p: *mut N) {
        if p.is_null() {
            return;
        }
        let mut tally = MemStats::default();
        self.release_into(p, &mut tally);
        self.flush_tally(&mut tally);
    }

    /// Fig. 16, recording statistics into `tally` (shared by the batched
    /// paths so a whole drain flushes once).
    ///
    /// # Safety
    ///
    /// As [`Arena::release`], except `p` must be non-null.
    // GUARD: p — as `release`: the caller's count is consumed here.
    unsafe fn release_into(&self, p: *mut N, tally: &mut MemStats) {
        self.release_with(p, tally, true)
    }

    /// Fig. 16 with an explicit collection hint. `allow_collect = false`
    /// is used by the epoch collector's own drain releases so a cascade
    /// of retirements cannot recurse back into collection.
    ///
    /// # Safety
    ///
    /// As [`Arena::release`], except `p` must be non-null.
    // GUARD: p — as `release`: the caller's count is consumed here.
    unsafe fn release_with(&self, p: *mut N, tally: &mut MemStats, allow_collect: bool) {
        // The common case releases one node and touches nothing else; the
        // worklist is only needed when a reclamation cascades through the
        // dying node's outgoing links (e.g. a chain of deleted cells).
        let mut worklist: Vec<*mut N> = Vec::new();
        let mut current = p;
        let mut collect_due = false;
        // WAIT-FREE: one iteration per released reference in the dying
        // subgraph — no CAS retries (`try_claim` is one-shot per node).
        loop {
            tally.releases += 1;
            // Fig. 16 line 1: c <- Fetch&Add(p^.refct, -1).
            let prev = (*current).header().decr_ref();
            valois_trace::probe!(Release, current as usize, prev);
            if prev == 1 {
                // Count hit zero: Fig. 16 lines 4-7 — claim arbitration,
                // with the Michael & Scott correction: the claim CAS
                // requires the count to *still* be zero, so a claim
                // attempt delayed past a recycling of this node fails
                // instead of freeing the new allocation (see
                // `NodeHeader::try_claim` and `RefClaim`).
                if (*current).header().try_claim() {
                    if R::COUNTED_READS {
                        // We are the unique reclaimer. No process or link
                        // references remain, so reading/draining fields is
                        // exclusive.
                        let links = (*current).drain_links();
                        for target in links.iter() {
                            worklist.push(target);
                        }
                        tally.reclaims += 1;
                        self.push_free(current);
                    } else {
                        // Epoch backend: the link in-degree is zero, but
                        // pinned readers may still stand on (or traverse
                        // through) this node — links and payload stay
                        // intact, ownership passes to limbo. The drain
                        // cascade happens at collection, after the grace
                        // period (I12).
                        let retires = self.epoch.retire(current);
                        if retires.is_multiple_of(COLLECT_EVERY as u64) {
                            collect_due = true;
                        }
                    }
                }
            }
            match worklist.pop() {
                Some(next) => current = next,
                None => break,
            }
        }
        if collect_due && allow_collect {
            self.collect_into(tally);
        }
    }

    /// Epoch backend: one advance attempt plus one limbo sweep. Frees
    /// every limbo node whose grace period has elapsed (`retire_epoch + 2
    /// <= horizon`, I12) *and* whose count is zero — a nonzero count means
    /// a still-pinned thread installed a transient link to it (e.g. a
    /// deleter's `back_link` to an already-retired predecessor); such a
    /// node stays in limbo until the link is drained. Returns nodes freed.
    /// Instant no-op (0) under the refcount backend.
    fn collect_into(&self, tally: &mut MemStats) -> usize {
        if R::COUNTED_READS {
            return 0;
        }
        self.epoch.try_advance();
        let mut chain = self.epoch.take_limbo();
        if chain.is_null() {
            return 0;
        }
        // ORDER: the horizon scan is sequenced *after* take_limbo and
        // *before* the refcount checks below — a transient-link installer
        // either shows up pinned here (its old epoch keeps its node in
        // limbo) or its unpin happened-before this scan, making its
        // increment visible to the refcount check (I12).
        let horizon = self.epoch.horizon();
        let mut freed = 0usize;
        let mut kept = 0usize;
        while !chain.is_null() {
            let p = chain;
            // SAFETY: nodes on the taken limbo chain are claimed and owned
            // by this walk; `limbo_next` was published by their retire.
            unsafe {
                chain = (*p).header().limbo_next() as *mut N;
                let header = (*p).header();
                if header.retire_epoch() + 2 <= horizon && header.refcount() == 0 {
                    // Grace period over: no pin can reach the node and no
                    // link counts it. Drain now (dropping the payload,
                    // releasing link targets — which may retire more nodes
                    // into the *live* limbo list, not this private chain)
                    // and recycle.
                    let links = (*p).drain_links();
                    for target in links.iter() {
                        self.release_with(target, tally, false);
                    }
                    tally.reclaims += 1;
                    self.push_free(p);
                    freed += 1;
                } else {
                    self.epoch.requeue(p);
                    kept += 1;
                }
            }
        }
        self.epoch.note_freed(freed);
        valois_trace::probe!(EpochDrain, freed, kept);
        freed
    }

    /// Epoch backend, allocation-pressure path: force up to three
    /// advance+sweep rounds so garbage retired just before the pressure
    /// can finish its two-epoch grace period. Stops early on progress.
    /// Returns nodes freed; always 0 under the refcount backend.
    fn pressure_collect(&self, tally: &mut MemStats) -> usize {
        if R::COUNTED_READS {
            return 0;
        }
        let mut total = 0;
        for _ in 0..3 {
            total += self.collect_into(tally);
            if total > 0 {
                break;
            }
        }
        total
    }

    /// Parks a counted reference in `defer` instead of releasing it now;
    /// drains the whole buffer through ordinary [`Arena::release`]s when
    /// it is full. Deferral can only *delay* a count reaching zero —
    /// reclamation is postponed, never anticipated — so it is safe
    /// wherever `release` is (see [`crate::defer`]).
    ///
    /// # Safety
    ///
    /// As [`Arena::release`]; additionally, `defer` must be drained via
    /// [`Arena::drain_deferred`] on **this** arena before it is dropped
    /// (the parked pointers are this arena's counted references).
    // GUARD: p — caller holds the count being parked; it stays live (deref
    // remains legal) until the buffer is drained.
    pub unsafe fn release_deferred(&self, defer: &mut DeferredReleases<N>, p: *mut N) {
        if p.is_null() {
            return;
        }
        if defer.len == DEFER_CAP {
            self.drain_deferred(defer);
        }
        defer.buf[defer.len] = p;
        defer.len += 1;
    }

    /// Releases every reference parked in `defer` (Fig. 16 each), sharing
    /// one statistics flush across the batch.
    ///
    /// # Safety
    ///
    /// `defer`'s parked pointers must be counted references of this arena
    /// (they are, if they were parked by [`Arena::release_deferred`] on
    /// this arena).
    pub unsafe fn drain_deferred(&self, defer: &mut DeferredReleases<N>) {
        if defer.len == 0 {
            return;
        }
        valois_trace::probe!(DeferFlush, defer.len);
        let mut tally = MemStats::default();
        for i in 0..defer.len {
            self.release_into(defer.buf[i], &mut tally);
        }
        defer.len = 0;
        self.flush_tally(&mut tally);
    }

    /// Folds a [`MemStats`] tally filled by [`Arena::safe_read_tallied`] into
    /// the shared counters and clears it. Call when the batching loop ends
    /// (the list cursor calls it on drop).
    ///
    /// Tallies record reads and releases only, so only `safe_reads`,
    /// `safe_read_retries`, `releases` and `reclaims` are folded; debug
    /// builds assert that the tally's other counters are zero.
    pub fn flush_tally(&self, tally: &mut MemStats) {
        self.counters.absorb_only(tally, |s| {
            [
                &mut s.safe_reads,
                &mut s.safe_read_retries,
                &mut s.releases,
                &mut s.reclaims,
            ]
        });
    }

    /// The paper's `Reclaim` (Fig. 18): returns a claimed, drained node to
    /// the free structure. Fast path: the current thread's magazine (no
    /// shared RMW); a busy slot falls back to the global Treiber push, and
    /// an over-full magazine flushes half of itself to the global list in
    /// one splice.
    fn push_free(&self, p: *mut N) {
        valois_trace::probe!(Reclaim, p as usize);
        // The free structure's incoming pointer is a counted reference:
        // *add* 1 (never store — a store would erase a concurrent transient
        // SafeRead increment; see crate docs "corrections").
        // SAFETY: the caller is the unique reclaimer (claim held), so `p`
        // is a valid, unpublished node of this arena.
        unsafe {
            (*p).header().incr_ref();
        }
        if let Some(mut mag) = self.slot().try_lock() {
            mag.push(p);
            let len = mag.len();
            if len > MAGAZINE_CAP {
                if let Some((h, t, taken)) = mag.take_chain(len - MAGAZINE_CAP / 2) {
                    self.splice_free_global(h, t);
                    valois_trace::probe!(MagFlush, taken);
                }
            }
            return;
        }
        self.push_free_global(p);
    }

    /// Fig. 18 proper: Treiber push of one node already carrying its
    /// free-structure count.
    fn push_free_global(&self, p: *mut N) {
        // WAIT-FREE: a failed CAS means another push or pop moved the head
        // — system-wide progress every retry.
        loop {
            // Fig. 18 lines 1-3. Plain read (not SafeRead): we never
            // dereference the old head, so a stale value only costs a CAS
            // retry, and head-recycling ABA is harmless because re-linking
            // the *current* head is exactly what push wants.
            let head = self.free_head.read();
            // SAFETY: `p` is unpublished (ours alone) until the CAS below.
            unsafe {
                (*p).free_link().write(head);
            }
            if self.free_head.compare_and_swap(head, p) {
                // Count transfer: root's count on `head` moves to
                // `p.free_link`; root now counts `p`.
                break;
            }
        }
    }

    /// Splices a pre-linked chain of free nodes (each internally counted,
    /// `chain_head` carrying the one loose count) onto the global list
    /// with a single CAS. The chain tail's `free_link` is overwritten with
    /// the old head *before* the CAS publishes it, so its stale value is
    /// never observable.
    fn splice_free_global(&self, chain_head: *mut N, chain_tail: *mut N) {
        // WAIT-FREE: a failed CAS means another push or pop moved the head
        // — system-wide progress every retry.
        loop {
            let head = self.free_head.read();
            // SAFETY: the chain is private until the CAS below publishes it.
            unsafe {
                (*chain_tail).free_link().write(head);
            }
            if self.free_head.compare_and_swap(head, chain_head) {
                // Count transfer: root's count on `head` moves to
                // `chain_tail.free_link`; root now counts `chain_head`.
                break;
            }
        }
    }

    /// Flushes every magazine it can lock back to the global free list.
    /// Called on pool pressure before reporting [`AllocError`]. A slot
    /// busy at that instant is skipped, and reported as `skipped` if it
    /// held nodes: its owner may be a thread that only releases, which
    /// never sees the pressure itself, so the caller must retry.
    fn scavenge(&self) -> Scavenged {
        let mut out = Scavenged {
            moved: 0,
            skipped: false,
        };
        for slot in self.slots.iter() {
            match slot.try_lock() {
                Some(mut mag) => {
                    let len = mag.len();
                    if let Some((h, t, taken)) = mag.take_chain(len) {
                        self.splice_free_global(h, t);
                        valois_trace::probe!(MagFlush, taken);
                        out.moved += taken;
                    }
                }
                None => out.skipped |= slot.parked() > 0,
            }
        }
        out
    }

    /// Flushes every thread magazine back to the global free list and
    /// returns the number of nodes moved. Quiescence/teardown hook: after
    /// this (with no concurrent operations), every free node is reachable
    /// from the global free head.
    pub fn flush_thread_caches(&self) -> usize {
        self.scavenge().moved
    }

    /// Memory-pressure shed hook for layers that can retry a failed
    /// operation: flushes every lockable per-thread magazine back to the
    /// global free list and, under the epoch backend, runs bounded
    /// advance+sweep rounds so limbo garbage whose grace period can now
    /// elapse is recycled. Returns the number of nodes made allocatable
    /// (magazine nodes moved plus limbo nodes freed).
    ///
    /// [`Arena::alloc`] already sheds under pressure — but it runs
    /// *inside* the failing operation, where the calling thread's own
    /// epoch pin (its live cursor) blocks every advance, so garbage that
    /// operation (or its neighbours in the same window) retired can
    /// never finish the two-epoch grace period (I12). The service-layer
    /// contract is therefore: on [`AllocError`], drop every protecting
    /// guard first, call `shed_memory`, and retry — what the bare
    /// pinned alloc could not free, the unpinned shed can. Calling it
    /// while still pinned is safe but sheds magazines only.
    pub fn shed_memory(&self) -> usize {
        let mut tally = MemStats::default();
        let mut reclaimed = self.scavenge().moved;
        if !R::COUNTED_READS {
            // Two advance+sweep rounds end any grace period that can end
            // (each round's try_advance moves one epoch when no stale pin
            // holds it back); extra rounds pick up nodes whose last link
            // was only released by an earlier round's drain. Bounded so a
            // concurrently stalled reader cannot spin us.
            let mut rounds = 0;
            loop {
                let freed = self.collect_into(&mut tally);
                reclaimed += freed;
                rounds += 1;
                if (freed == 0 && rounds >= 2) || rounds >= 8 {
                    break;
                }
            }
        }
        valois_trace::probe!(MemShed, reclaimed);
        self.flush_tally(&mut tally);
        reclaimed
    }

    /// Counted-link CAS swing with automatic count transfer.
    ///
    /// Increments `new`'s count (the prospective link), attempts
    /// `CAS(loc, old, new)`, and on success releases `old` (the count the
    /// link held); on failure the increment is undone. Returns the CAS
    /// outcome, which is the paper's "cursor became invalid" retry signal.
    ///
    /// # Safety
    ///
    /// `loc` must be a counted link of this arena; the caller must hold
    /// counted references on non-null `old` and `new` (this is what makes
    /// the CAS ABA-free: `old` cannot be recycled while protected).
    // GUARD: old, new — caller holds a count on each; the caller's counts
    // survive the call (only the link's own count moves).
    pub unsafe fn swing(&self, loc: &Link<N>, old: *mut N, new: *mut N) -> bool {
        self.counters.bump(|s| &s.swings);
        self.incr_ref(new);
        if loc.compare_and_swap(old, new) {
            self.release(old);
            true
        } else {
            self.release(new);
            self.counters.bump(|s| &s.swing_failures);
            false
        }
    }

    /// Initializing store into a link of an *unpublished* node (fresh from
    /// [`Arena::alloc`], not yet reachable by other processes): installs
    /// `new` with a count, releasing whatever the link previously counted
    /// (non-null only when a retry loop re-targets a prepared node, e.g.
    /// `TryInsert` rewriting `a^.next` after an invalid cursor).
    ///
    /// # Safety
    ///
    /// The node owning `loc` must be unpublished (exclusively owned);
    /// the caller must hold a counted reference on non-null `new`.
    // GUARD: new — caller holds a count on `new`; the link takes its own.
    pub unsafe fn store_link(&self, loc: &Link<N>, new: *mut N) {
        self.incr_ref(new);
        let old = loc.swap(new);
        self.release(old);
    }

    /// Returns a *detached* node to the free list: count zero and `claim`
    /// already won by the caller ([`Arena::sweep_unreachable`]).
    ///
    /// # Safety
    ///
    /// The caller must have exclusive ownership of `p` (won its claim, all
    /// counted links drained, count zero) and guarantee no concurrent
    /// protocol activity can reach `p`.
    // GUARD: p — caller owns `p` exclusively; nothing else can free it
    // during the call.
    unsafe fn reclaim_detached(&self, p: *mut N) {
        debug_assert_eq!((*p).header().refcount(), 0);
        debug_assert!((*p).header().claim_is_set());
        self.counters.bump(|s| &s.reclaims);
        self.push_free(p);
    }

    /// Pins the current thread for one epoch-protected operation and
    /// returns a guard that unpins on drop. Under the refcount backend
    /// both directions are no-ops.
    ///
    /// While pinned, [`Arena::safe_read`] results are plain loads; they
    /// must not be used after the guard drops (that is the epoch
    /// backend's version of the protection window — I12).
    pub fn pin(&self) -> EpochGuard<'_, N, R> {
        self.pin_enter();
        EpochGuard { arena: self }
    }

    /// Manual variant of [`Arena::pin`] for owners that cannot hold a
    /// guard (the list cursor pins in its constructor and unpins in its
    /// `Drop`). Must be balanced by exactly one [`Arena::pin_exit`].
    pub fn pin_enter(&self) {
        if !R::COUNTED_READS {
            self.epoch.pin();
        }
    }

    /// Releases a pin taken by [`Arena::pin_enter`].
    pub fn pin_exit(&self) {
        if !R::COUNTED_READS {
            self.epoch.unpin();
        }
    }

    /// Gives up a *process* reference: [`Arena::release`] under the
    /// refcount backend, a no-op under the epoch backend (the reference
    /// was never counted — the pin was the protection).
    ///
    /// Link counts (installed by [`Arena::swing`]/[`Arena::store_link`]/
    /// [`Arena::incr_ref`]) must still be given up with [`Arena::release`]
    /// under both backends.
    ///
    /// # Safety
    ///
    /// Refcount backend: as [`Arena::release`]. Epoch backend: `p` came
    /// from a `safe_read` under a pin the current thread still holds.
    // GUARD: p — the process reference's protection window closes here.
    pub unsafe fn unprotect(&self, p: *mut N) {
        if R::COUNTED_READS {
            self.release(p);
        }
    }

    /// Deferred-buffer variant of [`Arena::unprotect`]
    /// ([`Arena::release_deferred`] under refcount, no-op under epoch —
    /// the buffer stays empty, so its drain is free).
    ///
    /// # Safety
    ///
    /// As [`Arena::release_deferred`] / [`Arena::unprotect`].
    // GUARD: p — caller holds the process reference being parked; it stays
    // live until the buffer is drained.
    pub unsafe fn unprotect_deferred(&self, defer: &mut DeferredReleases<N>, p: *mut N) {
        if R::COUNTED_READS {
            self.release_deferred(defer, p);
        }
    }

    /// Duplicates a *process* reference ([`Arena::incr_ref`] under
    /// refcount, no-op under epoch — the new copy is covered by the same
    /// pin). For duplicating a pointer into a counted *link*, use
    /// [`Arena::incr_ref`]/[`Arena::store_link`] under both backends.
    ///
    /// # Safety
    ///
    /// Refcount backend: as [`Arena::incr_ref`]. Epoch backend: the
    /// current thread must hold a pin protecting `p`.
    // GUARD: p — caller holds a protected reference for the call's
    // duration; a second process-reference window opens here.
    pub unsafe fn protect_dup(&self, p: *mut N) {
        if R::COUNTED_READS {
            self.incr_ref(p);
        } else {
            debug_assert!(
                p.is_null() || self.epoch.current_thread_pinned(),
                "protect_dup outside a pin"
            );
        }
    }

    /// Epoch backend: attempts one epoch advance and sweeps limbo,
    /// freeing every node whose grace period has elapsed. Returns nodes
    /// freed (always 0 under the refcount backend). Safe to call from any
    /// thread at any time; the amortized retire/alloc hooks call it
    /// automatically, this is the explicit handle for tests and
    /// quiescent maintenance.
    pub fn advance_and_collect(&self) -> usize {
        let mut tally = MemStats::default();
        let freed = self.collect_into(&mut tally);
        self.flush_tally(&mut tally);
        freed
    }

    /// Epoch backend, quiescent teardown: advances and sweeps until limbo
    /// stops shrinking, which with no pin outstanding (`&mut self`: every
    /// guard and cursor borrows the arena) frees all acyclic limbo
    /// garbage, then detaches and returns what remains. Those nodes are
    /// back-link cycle members: claimed, unreachable from any root, links
    /// and payload intact. Empty under the refcount backend.
    fn take_cyclic_limbo(&mut self) -> Vec<*mut N> {
        let mut dry = 0;
        while self.epoch.limbo_depth() > 0 && dry < 3 {
            let freed = self.advance_and_collect();
            // Fresh garbage needs two advances to age out (I12); allow a
            // few dry rounds before concluding the rest is cyclic.
            dry = if freed == 0 { dry + 1 } else { 0 };
        }
        let mut out = Vec::new();
        let mut chain = self.epoch.take_limbo();
        while !chain.is_null() {
            out.push(chain);
            // SAFETY: quiescent (&mut self): the taken chain is exclusively
            // ours and every node on it is a valid node of this arena.
            chain = unsafe { (*chain).header().limbo_next() } as *mut N;
        }
        self.epoch.note_freed(out.len());
        out
    }

    /// Snapshot of the protocol counters.
    ///
    /// Hot paths batch events thread-locally (a [`MemStats`] tally);
    /// counts parked in un-flushed tallies (e.g. a still-live cursor's)
    /// are not yet visible here. The `epoch_*` fields are live gauges/counters from
    /// the arena's [`EpochDomain`] (all zero under the refcount backend).
    pub fn stats(&self) -> MemStats {
        let mut s = self.counters.snapshot();
        self.epoch.record(&mut s);
        s
    }

    /// Total nodes owned by the arena (free + live).
    pub fn capacity(&self) -> usize {
        self.total_nodes
            .load(valois_sync::shim::atomic::Ordering::Relaxed)
    }

    /// Nodes currently allocated (checked out and not yet reclaimed).
    pub fn live_nodes(&self) -> u64 {
        self.stats().live_nodes()
    }

    /// Visits the address of every node the arena owns (free or live).
    ///
    /// Safe in itself — the callback receives raw addresses and headers may
    /// be inspected through atomics at any time — but dereferencing payload
    /// fields requires the caller to guarantee quiescence (the `&mut self`
    /// audit and sweep below).
    fn for_each_node(&self, mut f: impl FnMut(*mut N)) {
        let segments = self.segments.lock().unwrap();
        for segment in segments.iter() {
            for node in segment.iter() {
                f(node as *const N as *mut N);
            }
        }
    }

    /// Quiescent link-count audit (PROTOCOL.md "Auditing"): each node's
    /// `refct` must equal the number of counted links ([`Managed::links`])
    /// of any node, entries of `roots` and the free head that point at
    /// it. The magazines are flushed first, so the free head is the one
    /// free-structure root and a counted free node on no free structure
    /// is drift. Exact under both backends at quiescence (`&mut self`):
    /// no process reference is outstanding, and a limbo node counts 0
    /// while its intact links still count for their targets.
    ///
    /// # Errors
    ///
    /// Describes the first node whose count differs from its in-degree.
    pub fn audit_counts(&mut self, roots: &[*mut N]) -> Result<(), String> {
        self.flush_thread_caches();
        let mut expected: HashMap<usize, usize> = HashMap::new();
        let mut count = |p: *mut N| *expected.entry(p as usize).or_insert(0) += 1;
        roots.iter().for_each(|&p| count(p));
        count(self.free_head.read());
        self.for_each_node(|p| {
            // SAFETY: quiescent (`&mut self`): no link changes under us.
            unsafe { (*p).links() }.for_each(|l| count(l.read()));
        });
        let mut result = Ok(());
        self.for_each_node(|p| {
            // SAFETY: `p` is a node of this arena; the header is atomic.
            let actual = unsafe { (*p).header().refcount() };
            let expect = expected.get(&(p as usize)).copied().unwrap_or(0);
            if actual != expect && result.is_ok() {
                result = Err(format!(
                    "refcount drift on node {p:p}: actual {actual}, expected {expect}"
                ));
            }
        });
        result
    }

    /// Quiescent cycle sweep (DESIGN.md §1 note 3): frees every node that
    /// no chain of counted links reaches from `roots` or from the free
    /// head (magazines flushed first) and returns how many it freed.
    /// Under the epoch backend, acyclic limbo garbage first ages out and
    /// the claimed cycle members left in limbo are swept here. An owner
    /// tearing down releases its roots and passes none.
    pub fn sweep_unreachable(&mut self, roots: &[*mut N]) -> usize {
        let limbo: HashSet<*mut N> = self.take_cyclic_limbo().into_iter().collect();
        self.flush_thread_caches();
        let mut reachable: HashSet<*mut N> = HashSet::new();
        let mut stack = roots.to_vec();
        stack.push(self.free_head.read());
        while let Some(p) = stack.pop() {
            if !p.is_null() && reachable.insert(p) {
                // SAFETY: quiescent; `p` was reached over counted links.
                stack.extend(unsafe { (*p).links() }.map(|l| l.read()));
            }
        }
        let mut garbage: HashSet<*mut N> = HashSet::new();
        self.for_each_node(|p| {
            if !reachable.contains(&p) {
                garbage.insert(p);
            }
        });
        // SAFETY: quiescent (`&mut self`): the garbage is unreachable and
        // unprotected, so the sweep owns it outright.
        unsafe {
            // Claim each first so no cascade can race the manual drain.
            // Only nodes taken from limbo were claimed (by their retirer).
            for &g in &garbage {
                let lost = (*g).header().set_claim();
                debug_assert!(!lost || limbo.contains(&g), "garbage already claimed");
            }
            for &g in &garbage {
                for t in (*g).drain_links().iter() {
                    if garbage.contains(&t) {
                        // Internal edge: the sweep, not a cascade, frees t.
                        (*t).header().decr_ref();
                    } else {
                        self.release(t);
                    }
                }
            }
            for &g in &garbage {
                self.reclaim_detached(g);
            }
        }
        garbage.len()
    }
}

impl<N: Managed, R: Reclaimer> fmt::Debug for Arena<N, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("backend", &R::NAME)
            .field("capacity", &self.capacity())
            .field("live_nodes", &self.live_nodes())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<N: Managed, R: Reclaimer> Drop for Arena<N, R> {
    fn drop(&mut self) {
        // Epoch backend backstop: graduate what limbo still holds so node
        // payloads are dropped, not leaked, when a bare arena is dropped
        // with garbage mid-grace. (Structure owners normally drain first
        // with `sweep_unreachable`; this also catches cycle garbage by
        // force-draining links without count bookkeeping — the memory
        // itself dies with the segments below.)
        for p in self.take_cyclic_limbo() {
            // SAFETY: &mut self — no pins, no other references; draining
            // drops the payload. The returned link targets are not
            // released: every remaining node is about to die with the
            // arena, so counts no longer matter.
            unsafe {
                let _ = (*p).drain_links();
            }
        }
    }
}

/// RAII pin for one epoch-protected operation (see [`Arena::pin`]).
/// Under the refcount backend, creation and drop are no-ops.
///
/// Pointers obtained from `safe_read` while the guard lives must not be
/// used after it drops — dropping the guard closes the protection window
/// (I12), exactly as `release` does for a counted reference.
#[must_use = "dropping the guard immediately unpins the epoch"]
pub struct EpochGuard<'a, N: Managed, R: Reclaimer> {
    arena: &'a Arena<N, R>,
}

impl<N: Managed, R: Reclaimer> Drop for EpochGuard<'_, N, R> {
    fn drop(&mut self) {
        self.arena.pin_exit();
    }
}

impl<N: Managed, R: Reclaimer> fmt::Debug for EpochGuard<'_, N, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochGuard")
            .field("backend", &R::NAME)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managed::{NodeHeader, ReclaimedLinks};
    use std::sync::Arc;
    use valois_sync::shim::atomic::{AtomicU64, Ordering};

    /// Minimal managed node: one value slot and two counted links, mirroring
    /// the list's cell shape.
    #[derive(Default)]
    struct TestNode {
        header: NodeHeader,
        next: Link<TestNode>,
        back: Link<TestNode>,
        value: AtomicU64,
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
            links.push(self.back.swap(std::ptr::null_mut()));
            links
        }

        fn links(&self) -> impl Iterator<Item = &Link<Self>> {
            [&self.next, &self.back].into_iter()
        }

        fn reset_for_alloc(&self) {
            // next held the free-list link whose count was transferred to
            // the free-list head at pop: null it without releasing.
            self.next.write(std::ptr::null_mut());
            self.back.write(std::ptr::null_mut());
            self.value.store(0, Ordering::Relaxed);
        }
    }

    fn small_arena(cap: usize) -> Arena<TestNode> {
        Arena::with_config(ArenaConfig::new().initial_capacity(cap).max_nodes(cap))
    }

    #[test]
    fn alloc_returns_reset_node_with_one_reference() {
        let arena = small_arena(4);
        let p = arena.alloc().unwrap();
        unsafe {
            assert_eq!((*p).header().refcount(), 1);
            assert!(!(*p).header().claim_is_set());
            assert!((*p).next.read().is_null());
        }
        unsafe { arena.release(p) };
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn release_reclaims_and_node_is_reusable() {
        let arena = small_arena(1);
        let p = arena.alloc().unwrap();
        unsafe { arena.release(p) };
        let q = arena.alloc().unwrap();
        assert_eq!(p, q, "single-node pool must recycle the same node");
        unsafe { arena.release(q) };
    }

    #[test]
    fn exhaustion_reports_alloc_error() {
        let arena = small_arena(2);
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        assert_eq!(arena.alloc(), Err(AllocError));
        unsafe {
            arena.release(a);
            arena.release(b);
        }
        assert!(arena.alloc().is_ok(), "released node must be allocatable");
    }

    #[test]
    fn alloc_all_takes_every_node_or_none() {
        let arena = small_arena(3);
        let mut four = [std::ptr::null_mut(); 4];
        assert_eq!(arena.alloc_all(&mut four), Err(AllocError));
        assert_eq!(arena.live_nodes(), 0, "the partial take went back");
        let mut three = [std::ptr::null_mut(); 3];
        arena.alloc_all(&mut three).unwrap();
        assert_eq!(arena.live_nodes(), 3);
        for p in three {
            // SAFETY: each pointer carries the alloc's counted reference.
            unsafe { arena.release(p) };
        }
    }

    /// Regression for the service-load AllocError contract: an
    /// allocation that fails *inside* a protection window (the calling
    /// thread's own epoch pin holds every retired node's grace period
    /// open — I12) must succeed after the window closes and
    /// [`Arena::shed_memory`] drains the limbo list. The bare in-window
    /// alloc failing first is part of the assertion: it shows the
    /// arena-internal pressure path genuinely cannot help here.
    #[test]
    fn pinned_alloc_error_then_unpinned_shed_retry_succeeds() {
        let cap = 8;
        let arena: Arena<TestNode, crate::Epoch> =
            Arena::with_config(ArenaConfig::new().initial_capacity(cap).max_nodes(cap));
        let guard = arena.pin();
        // Exhaust the pool and retire everything while pinned: the
        // garbage parks in limbo stamped with the pinned epoch.
        let nodes: Vec<_> = (0..cap).map(|_| arena.alloc().unwrap()).collect();
        for &p in &nodes {
            // SAFETY: each pointer carries the alloc's counted reference.
            unsafe { arena.release(p) };
        }
        // Bare retry inside the window: pressure_collect cannot advance
        // past our own pin, grow is capped, magazines are empty — the
        // alloc fails even though every node in the pool is reclaimable.
        assert_eq!(
            arena.alloc(),
            Err(AllocError),
            "alloc under the caller's own pin must not reach limbo garbage"
        );
        assert!(
            arena.stats().epoch_limbo_depth > 0,
            "the garbage must be parked in limbo, not lost"
        );
        // Close the window, shed, retry: the post-shed retry succeeds.
        drop(guard);
        let shed = arena.shed_memory();
        assert!(shed > 0, "shed must recycle the limbo garbage");
        let p = arena.alloc().expect("post-shed retry must succeed");
        // SAFETY: p carries the alloc's counted reference.
        unsafe { arena.release(p) };
    }

    /// Refcount twin: `shed_memory` moves nodes parked in per-thread
    /// magazines back to the global free list (and reports the count).
    #[test]
    fn shed_memory_flushes_magazines_under_refcount() {
        let arena = small_arena(16);
        // Churn so released nodes park in this thread's magazine.
        let held: Vec<_> = (0..16).map(|_| arena.alloc().unwrap()).collect();
        for &p in &held {
            // SAFETY: each pointer carries the alloc's counted reference.
            unsafe { arena.release(p) };
        }
        let moved = arena.shed_memory();
        assert!(moved > 0, "magazine nodes must be shed to the global list");
        // The shed nodes are allocatable (from the global list).
        let p = arena.alloc().expect("shed nodes must be allocatable");
        // SAFETY: p carries the alloc's counted reference.
        unsafe { arena.release(p) };
    }

    #[test]
    fn uncapped_arena_grows_by_doubling() {
        let arena: Arena<TestNode> = Arena::with_config(ArenaConfig::new().initial_capacity(2));
        let mut held = Vec::new();
        for _ in 0..10 {
            held.push(arena.alloc().unwrap());
        }
        assert!(arena.capacity() >= 10);
        assert!(arena.stats().grows >= 2);
        for p in held {
            unsafe { arena.release(p) };
        }
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn drained_links_release_targets_transitively() {
        let arena = small_arena(8);
        // Build a -> b -> c via counted links, then drop all process refs:
        // releasing `a` must cascade and reclaim all three.
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        let c = arena.alloc().unwrap();
        unsafe {
            (*b).next.write(c); // b's link now counts c: transfer our process ref
            (*a).next.write(b); // a's link now counts b
                                // (we transferred our alloc references into the links, so no
                                // incr_ref: each node's count is exactly 1, held by its parent.)
            assert_eq!((*c).header().refcount(), 1);
            arena.release(a);
        }
        assert_eq!(arena.live_nodes(), 0, "cascade must reclaim a, b, c");
        // All three must be allocatable again.
        let mut got = std::collections::HashSet::new();
        for _ in 0..3 {
            got.insert(arena.alloc().unwrap() as usize);
        }
        assert!(got.contains(&(a as usize)));
        assert!(got.contains(&(b as usize)));
        assert!(got.contains(&(c as usize)));
    }

    #[test]
    fn scavenge_reports_a_busy_slot_holding_nodes() {
        // The first alloc refills this thread's magazine from the global
        // list, so every free node is parked in one slot. While that slot
        // is locked, scavenge can move nothing but must say so, or a
        // capped alloc would report exhaustion with nodes still free.
        let arena = small_arena(8);
        let p = arena.alloc().unwrap();
        let guard = arena.slot().try_lock().expect("no other thread here");
        let busy = arena.scavenge();
        assert_eq!(busy.moved, 0);
        assert!(busy.skipped, "a locked slot holding nodes is reported");
        drop(guard);
        let free = arena.scavenge();
        assert_eq!(free.moved, 7, "every other node was parked in the slot");
        assert!(!free.skipped);
        unsafe { arena.release(p) };
    }

    #[test]
    fn safe_read_protects_against_concurrent_unlink() {
        let arena = Arc::new(small_arena(64));
        // A root link that one thread repeatedly re-targets while others
        // safe_read through it; counts must stay exact.
        let root: Arc<Link<TestNode>> = Arc::new(Link::null());
        let init = arena.alloc().unwrap();
        unsafe { arena.store_link(&root, init) };
        unsafe { arena.release(init) };

        std::thread::scope(|s| {
            let writer = {
                let arena = Arc::clone(&arena);
                let root = Arc::clone(&root);
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        let n = arena.alloc().unwrap();
                        unsafe {
                            (*n).value.store(i, Ordering::Relaxed);
                            // Publish: swing root from whatever it held.
                            loop {
                                let old = arena.safe_read(&root);
                                let ok = arena.swing(&root, old, n);
                                arena.release(old);
                                if ok {
                                    break;
                                }
                            }
                            arena.release(n);
                        }
                    }
                })
            };
            for _ in 0..3 {
                let arena = Arc::clone(&arena);
                let root = Arc::clone(&root);
                s.spawn(move || {
                    for _ in 0..20_000 {
                        unsafe {
                            let p = arena.safe_read(&root);
                            if !p.is_null() {
                                // Reading the payload of a protected node
                                // must always be coherent.
                                let _ = (*p).value.load(Ordering::Relaxed);
                                arena.release(p);
                            }
                        }
                    }
                });
            }
            writer.join().unwrap();
        });

        // Quiesce: drop the root's node.
        unsafe {
            let last = arena.safe_read(&root);
            assert!(arena.swing(&root, last, std::ptr::null_mut()));
            arena.release(last);
        }
        assert_eq!(arena.live_nodes(), 0, "all nodes reclaimed after quiesce");
        // Every node's count must be exactly its free structure's 1 —
        // whether parked on the global list or in a thread magazine.
        arena.for_each_node(|p| unsafe {
            assert_eq!((*p).header().refcount(), 1);
            assert!((*p).header().claim_is_set());
        });
    }

    #[test]
    fn concurrent_alloc_release_conserves_nodes() {
        let arena = Arc::new(small_arena(256));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let arena = Arc::clone(&arena);
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..10_000usize {
                        if i % 3 == 2 {
                            if let Some(p) = held.pop() {
                                unsafe { arena.release(p) };
                            }
                        } else if let Ok(p) = arena.alloc() {
                            held.push(p);
                        }
                        if held.len() > 16 {
                            for p in held.drain(..) {
                                unsafe { arena.release(p) };
                            }
                        }
                    }
                    for p in held {
                        unsafe { arena.release(p) };
                    }
                });
            }
        });
        assert_eq!(arena.live_nodes(), 0);
        let mut free = 0usize;
        arena.for_each_node(|p| unsafe {
            assert_eq!((*p).header().refcount(), 1, "free node count must be 1");
            free += 1;
        });
        assert_eq!(free, 256);
    }

    #[test]
    fn concurrent_growth_is_consistent() {
        // Many threads alloc-hold-release against a tiny initial segment:
        // growth must serialize correctly and never duplicate or lose
        // nodes.
        let arena: Arc<Arena<TestNode>> =
            Arc::new(Arena::with_config(ArenaConfig::new().initial_capacity(2)));
        let seen = std::sync::Mutex::new(std::collections::HashSet::<usize>::new());
        // Nobody releases until every thread holds its full batch, so the
        // distinctness check really is over simultaneously-live nodes.
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let arena = Arc::clone(&arena);
                let seen = &seen;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut held = Vec::new();
                    for _ in 0..200 {
                        let p = arena.alloc().expect("uncapped arena grows");
                        held.push(p);
                    }
                    {
                        let mut set = seen.lock().unwrap();
                        for &p in &held {
                            assert!(set.insert(p as usize), "duplicate live node");
                        }
                    }
                    barrier.wait();
                    for p in held {
                        unsafe { arena.release(p) };
                    }
                });
            }
        });
        assert_eq!(
            seen.lock().unwrap().len(),
            800,
            "every allocation distinct while simultaneously held"
        );
        assert!(arena.capacity() >= 800);
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn swing_failure_undoes_count() {
        let arena = small_arena(4);
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        let c = arena.alloc().unwrap();
        let root: Link<TestNode> = Link::null();
        unsafe {
            arena.store_link(&root, a);
            // CAS expecting `b` must fail and leave counts unchanged.
            let before = (*c).header().refcount();
            assert!(!arena.swing(&root, b, c));
            assert_eq!((*c).header().refcount(), before);
            assert_eq!(root.read(), a);
            // Clean up: unlink a, release all.
            assert!(arena.swing(&root, a, std::ptr::null_mut()));
            arena.release(a);
            arena.release(b);
            arena.release(c);
        }
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn stats_track_traffic() {
        let arena = small_arena(8);
        let base = arena.stats();
        let p = arena.alloc().unwrap();
        unsafe { arena.release(p) };
        let d = arena.stats().since(&base);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.reclaims, 1);
        assert!(d.safe_reads >= 1, "alloc uses SafeRead on the free head");
        assert!(d.releases >= 2, "pop transfer + final release");
    }

    #[test]
    fn config_builders_clamp_to_minimums() {
        let c = ArenaConfig::new().initial_capacity(0).max_nodes(0);
        assert_eq!(c.initial_capacity, 1);
        assert_eq!(c.max_nodes, Some(1));
        assert_eq!(format!("{}", AllocError), "node pool exhausted");
    }

    #[test]
    fn audit_reports_each_injected_fault() {
        let mut arena = small_arena(4);
        let root = Link::null();
        let (a, b) = (arena.alloc().unwrap(), arena.alloc().unwrap());
        unsafe {
            arena.store_link(&root, a);
            arena.store_link(&(*a).next, b);
            arena.release(a);
            arena.release(b);
        }
        let roots = [root.read()];
        arena.audit_counts(&roots).expect("exact at quiescence");
        // One extra count: a leaked SafeRead.
        let held = unsafe { arena.safe_read(&root) };
        let err = arena.audit_counts(&roots).unwrap_err();
        assert!(err.contains("actual 2, expected 1"), "{err}");
        unsafe { arena.release(held) };
        // One missing count: a link written without its increment.
        unsafe { (*a).back.write(b) };
        let err = arena.audit_counts(&roots).unwrap_err();
        assert!(err.contains("actual 1, expected 2"), "{err}");
        unsafe { (*a).back.write(std::ptr::null_mut()) };
        // A node in the free-list state (claim set, count 1) on no free
        // structure: a Reclaim that added the free structure's count but
        // never pushed the node. An audit that tolerates +1 on any free
        // node nobody points at accepts this; the free head, counted as
        // an explicit root, is what makes it drift.
        let lost = arena.alloc().unwrap();
        unsafe { (*lost).header().set_claim() };
        let err = arena.audit_counts(&roots).unwrap_err();
        assert!(err.contains("actual 1, expected 0"), "{err}");
        unsafe {
            (*lost).header().clear_claim();
            arena.release(lost);
        }
        arena.audit_counts(&roots).unwrap();
    }

    #[test]
    fn for_each_node_visits_exactly_capacity() {
        let arena = small_arena(17);
        let mut count = 0;
        arena.for_each_node(|_| count += 1);
        assert_eq!(count, 17);
    }

    #[test]
    fn store_link_replaces_and_releases_old() {
        let arena = small_arena(4);
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        let fresh = arena.alloc().unwrap();
        unsafe {
            // fresh.next := a (counted), then re-target to b: a's count from
            // the link must drop. store_link itself installs the link count.
            arena.store_link(&(*fresh).next, a);
            assert_eq!((*a).header().refcount(), 2);
            arena.store_link(&(*fresh).next, b);
            assert_eq!((*a).header().refcount(), 1);
            assert_eq!((*b).header().refcount(), 2);
            arena.release(a);
            arena.release(b);
            arena.release(fresh); // drains fresh.next -> releases b
        }
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn magazine_absorbs_alloc_release_cycles_without_global_traffic() {
        // After a warm-up alloc/release, a repeated single-node cycle runs
        // entirely against the thread magazine: the global head is
        // untouched, so alloc_retries stays 0 and (crucially) the same
        // node keeps being recycled.
        let arena = small_arena(8);
        let p0 = arena.alloc().unwrap();
        unsafe { arena.release(p0) };
        for _ in 0..1000 {
            let p = arena.alloc().unwrap();
            assert_eq!(p, p0, "magazine must recycle LIFO");
            unsafe { arena.release(p) };
        }
        let s = arena.stats();
        assert_eq!(s.allocs, 1001);
        assert_eq!(s.reclaims, 1001);
        assert_eq!(s.alloc_retries, 0);
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn flush_thread_caches_empties_magazines() {
        let arena = small_arena(16);
        // Park a few nodes in this thread's magazine.
        let held: Vec<_> = (0..4).map(|_| arena.alloc().unwrap()).collect();
        for p in held {
            unsafe { arena.release(p) };
        }
        let moved = arena.flush_thread_caches();
        assert!(moved >= 4, "magazine held at least the 4 recycled nodes");
        assert_eq!(arena.flush_thread_caches(), 0, "second flush finds nothing");
        // Conservation after the flush: all 16 free, each count 1.
        let mut free = 0;
        arena.for_each_node(|p| unsafe {
            assert_eq!((*p).header().refcount(), 1);
            assert!((*p).header().claim_is_set());
            free += 1;
        });
        assert_eq!(free, 16);
    }

    #[test]
    fn capped_pool_scavenges_magazines_under_pressure() {
        // Fill-and-release so nodes park in this thread's magazine, then
        // demand the whole pool at once: alloc must scavenge the parked
        // nodes back rather than report exhaustion.
        let arena = small_arena(8);
        let held: Vec<_> = (0..8).map(|_| arena.alloc().unwrap()).collect();
        for p in held {
            unsafe { arena.release(p) };
        }
        // All 8 nodes are somewhere between magazine and global list now.
        let again: Vec<_> = (0..8)
            .map(|i| arena.alloc().unwrap_or_else(|e| panic!("alloc {i}: {e}")))
            .collect();
        assert_eq!(arena.alloc(), Err(AllocError), "pool truly exhausted");
        for p in again {
            unsafe { arena.release(p) };
        }
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn deferred_release_delays_but_completes_reclamation() {
        let arena = small_arena(4);
        let mut defer = crate::DeferredReleases::new();
        let p = arena.alloc().unwrap();
        unsafe { arena.release_deferred(&mut defer, p) };
        assert_eq!(defer.len(), 1);
        assert_eq!(
            arena.live_nodes(),
            1,
            "parked reference must keep the node checked out"
        );
        unsafe { arena.drain_deferred(&mut defer) };
        assert!(defer.is_empty());
        assert_eq!(arena.live_nodes(), 0, "drain performs the release");
    }

    #[test]
    fn deferred_release_auto_drains_at_capacity() {
        let cap = crate::DeferredReleases::<TestNode>::CAPACITY;
        let arena = Arena::<TestNode>::with_config(ArenaConfig::new().initial_capacity(cap + 2));
        let mut defer = crate::DeferredReleases::new();
        // Park CAPACITY + 1 references: the overflow push must first drain
        // the full buffer.
        for _ in 0..=cap {
            let p = arena.alloc().unwrap();
            unsafe { arena.release_deferred(&mut defer, p) };
        }
        assert_eq!(defer.len(), 1, "auto-drain leaves only the overflow entry");
        assert_eq!(arena.live_nodes(), 1);
        unsafe { arena.drain_deferred(&mut defer) };
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn tallied_safe_read_defers_stats_until_flush() {
        let arena = small_arena(4);
        let root: Link<TestNode> = Link::null();
        let p = arena.alloc().unwrap();
        unsafe { arena.store_link(&root, p) };
        let base = arena.stats();
        let mut tally = MemStats::default();
        for _ in 0..10 {
            let q = unsafe { arena.safe_read_tallied(&root, &mut tally) };
            unsafe { arena.release(q) };
        }
        assert_eq!(
            arena.stats().since(&base).safe_reads,
            0,
            "tallied reads are invisible before the flush"
        );
        arena.flush_tally(&mut tally);
        assert_eq!(arena.stats().since(&base).safe_reads, 10);
        assert!(tally.is_empty());
        unsafe {
            let q = root.swap(std::ptr::null_mut());
            arena.release(q);
            arena.release(p);
        }
        assert_eq!(arena.live_nodes(), 0);
    }

    // ---- epoch backend ----

    use crate::reclaim::Epoch;

    fn small_epoch_arena(cap: usize) -> Arena<TestNode, Epoch> {
        Arena::with_config(ArenaConfig::new().initial_capacity(cap).max_nodes(cap))
    }

    #[test]
    fn epoch_release_retires_then_grace_period_recycles() {
        let arena = small_epoch_arena(1);
        let p = arena.alloc().unwrap();
        unsafe { arena.release(p) };
        // Retired into limbo, not yet recycled: the grace period is open.
        let s = arena.stats();
        assert_eq!(s.epoch_retires, 1);
        assert_eq!(s.epoch_limbo_depth, 1);
        // A pool of one with its node in limbo: alloc must force the
        // grace period closed (pressure collection) and recycle it.
        let q = arena.alloc().unwrap();
        assert_eq!(p, q, "single-node pool must recycle the same node");
        let s = arena.stats();
        assert!(s.epoch_frees >= 1);
        assert!(
            s.epoch_advances >= 2,
            "two-epoch grace (I12) needs at least two advances"
        );
        unsafe { arena.release(q) };
    }

    #[test]
    fn epoch_safe_read_is_uncounted_under_pin() {
        let arena = small_epoch_arena(4);
        let root: Link<TestNode> = Link::null();
        let p = arena.alloc().unwrap();
        unsafe { arena.store_link(&root, p) }; // alloc ref + root link = 2
        {
            let _g = arena.pin();
            unsafe {
                let q = arena.safe_read(&root);
                assert_eq!(p, q);
                assert_eq!((*q).header().refcount(), 2, "pinned read adds no count");
                arena.protect_dup(q); // process-ref ops are no-ops...
                assert_eq!((*q).header().refcount(), 2);
                arena.unprotect(q); // ...in both directions
                assert_eq!((*q).header().refcount(), 2);
            }
        }
        unsafe {
            arena.release(p); // the alloc reference; the root link remains
            assert_eq!((*p).header().refcount(), 1);
            let last = root.swap(std::ptr::null_mut());
            arena.release(last); // link count hits zero: retire
        }
        assert_eq!(arena.stats().epoch_retires, 1);
        assert_eq!(arena.live_nodes(), 1, "retired but not yet recycled");
        let mut freed = 0;
        for _ in 0..4 {
            freed += arena.advance_and_collect();
        }
        assert_eq!(freed, 1);
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn stalled_pin_surfaces_as_reclaim_pressure() {
        let arena = small_epoch_arena(2);
        let guard = arena.pin(); // a stalled reader pinned at the current epoch
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        unsafe {
            arena.release(a);
            arena.release(b);
        }
        // The stalled pin blocks the second advance, so the grace period
        // can never elapse: the capped pool must report exhaustion...
        assert_eq!(arena.alloc(), Err(AllocError));
        // ...and the stats must say why.
        let s = arena.stats();
        assert_eq!(s.epoch_limbo_depth, 2, "reclaimable memory stuck in limbo");
        assert!(
            s.epoch_pin_lag >= 1,
            "a pinned thread lags the global epoch"
        );
        drop(guard);
        // Unpinned: pressure collection can finish the grace period.
        let p = arena.alloc().expect("limbo ages out once the pin drops");
        assert_eq!(arena.stats().epoch_pin_lag, 0);
        unsafe { arena.release(p) };
    }

    #[test]
    fn epoch_drop_with_pending_limbo_is_clean() {
        let arena = small_epoch_arena(4);
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        unsafe {
            arena.store_link(&(*a).next, b); // a's link counts b
            arena.release(b);
            arena.release(a); // retires a (b stays counted by a's link)
        }
        assert!(arena.stats().epoch_limbo_depth >= 1);
        // Drop with limbo non-empty: the arena's Drop backstop must drain
        // payloads/links without double-freeing (Miri/asan would object).
        drop(arena);
    }

    #[test]
    fn epoch_pinned_reads_survive_concurrent_unlink() {
        let arena: Arc<Arena<TestNode, Epoch>> = Arc::new(Arena::with_config(
            ArenaConfig::new().initial_capacity(64).max_nodes(256),
        ));
        let root: Arc<Link<TestNode>> = Arc::new(Link::null());
        let init = arena.alloc().unwrap();
        unsafe {
            arena.store_link(&root, init);
            arena.release(init);
        }

        std::thread::scope(|s| {
            let writer = {
                let arena = Arc::clone(&arena);
                let root = Arc::clone(&root);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        // Retry: the capped pool transiently exhausts while
                        // concurrent pins hold grace periods open.
                        let n = loop {
                            match arena.alloc() {
                                Ok(n) => break n,
                                Err(AllocError) => std::thread::yield_now(),
                            }
                        };
                        unsafe {
                            (*n).value.store(i, Ordering::Relaxed);
                            let g = arena.pin();
                            loop {
                                let old = arena.safe_read(&root);
                                let ok = arena.swing(&root, old, n);
                                arena.unprotect(old);
                                if ok {
                                    break;
                                }
                            }
                            drop(g);
                            arena.release(n); // the alloc reference
                        }
                    }
                })
            };
            for _ in 0..2 {
                let arena = Arc::clone(&arena);
                let root = Arc::clone(&root);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        unsafe {
                            let _g = arena.pin();
                            let p = arena.safe_read(&root);
                            if !p.is_null() {
                                // Reading the payload of a pinned node must
                                // always be coherent, even mid-retirement.
                                let _ = (*p).value.load(Ordering::Relaxed);
                                arena.unprotect(p);
                            }
                        }
                    }
                });
            }
            writer.join().unwrap();
        });

        unsafe {
            let g = arena.pin();
            let last = arena.safe_read(&root);
            assert!(arena.swing(&root, last, std::ptr::null_mut()));
            arena.unprotect(last);
            drop(g);
        }
        // With no pins left, bounded advancing must drain all limbo garbage.
        for _ in 0..8 {
            if arena.live_nodes() == 0 {
                break;
            }
            arena.advance_and_collect();
        }
        assert_eq!(arena.live_nodes(), 0, "all garbage ages out once unpinned");
        arena.for_each_node(|p| unsafe {
            assert_eq!(
                (*p).header().refcount(),
                1,
                "free node holds only the list count"
            );
            assert!((*p).header().claim_is_set());
        });
    }
}
