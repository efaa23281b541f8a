//! Spin locks — the baselines the paper positions itself against.
//!
//! §1 of the paper: "a number of efficient *spin locking* techniques have
//! been developed [3, 8, 20]" (Anderson; Graunke & Thakkar; Mellor-Crummey &
//! Scott). The `vs_locks` bench (E1/E2/E9) compares the lock-free list
//! against lists protected by these locks, so this module implements the
//! standard progression:
//!
//! * [`TasLock`] — naive test-and-set,
//! * [`TtasLock`] — test-and-test-and-set with exponential backoff
//!   (Anderson \[3\]),
//! * [`TicketLock`] — FIFO ticket lock (Graunke & Thakkar \[8\] family),
//! * [`ClhLock`] — queue lock with local spinning (the CLH variant of the
//!   MCS idea from Mellor-Crummey & Scott \[20\]),
//! * [`AndersonLock`] — Anderson's array-based queue lock \[3\]: one
//!   padded flag per waiter slot, FIFO, local spinning without heap
//!   allocation.
//!
//! All implement the [`Lock`] trait and hand out RAII [`LockGuard`]s. These
//! are *mutual exclusion* devices: a thread preempted while holding one
//! blocks everyone — exactly the failure mode the lock-free list avoids,
//! and what experiment E2 demonstrates.

use crate::shim::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::fmt;

use crate::backoff::Backoff;
use crate::pad::CachePadded;

/// A mutual-exclusion spin lock.
///
/// Object-safe so the harness can select lock algorithms at run time.
///
/// # Example
///
/// ```
/// use valois_sync::{Lock, TtasLock};
///
/// let lock = TtasLock::new();
/// {
///     let _guard = lock.guard(); // released on drop
/// }
/// lock.acquire();
/// lock.release();
/// ```
pub trait Lock: Send + Sync {
    /// Acquires the lock, spinning until available.
    fn acquire(&self);
    /// Releases the lock.
    ///
    /// Callers must hold the lock; use [`Lock::guard`] to make that
    /// impossible to get wrong.
    fn release(&self);

    /// Acquires and returns an RAII guard that releases on drop.
    fn guard(&self) -> LockGuard<'_>
    where
        Self: Sized,
    {
        self.acquire();
        LockGuard { lock: self }
    }
}

/// RAII guard returned by [`Lock::guard`]; releases the lock on drop.
pub struct LockGuard<'a> {
    lock: &'a dyn Lock,
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.lock.release();
    }
}

impl fmt::Debug for LockGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LockGuard { .. }")
    }
}

/// Which spin-lock algorithm to instantiate (harness configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Naive test-and-set.
    Tas,
    /// Test-and-test-and-set with exponential backoff.
    Ttas,
    /// FIFO ticket lock.
    Ticket,
    /// CLH queue lock.
    Clh,
    /// Anderson array-based queue lock.
    Anderson,
}

impl LockKind {
    /// All lock kinds, for parameter sweeps.
    pub const ALL: [LockKind; 5] = [
        Self::Tas,
        Self::Ttas,
        Self::Ticket,
        Self::Clh,
        Self::Anderson,
    ];

    /// Instantiates the chosen lock.
    pub fn build(self) -> Box<dyn Lock> {
        match self {
            Self::Tas => Box::new(TasLock::new()),
            Self::Ttas => Box::new(TtasLock::new()),
            Self::Ticket => Box::new(TicketLock::new()),
            Self::Clh => Box::new(ClhLock::new()),
            Self::Anderson => Box::new(AndersonLock::new()),
        }
    }

    /// Short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Self::Tas => "tas",
            Self::Ttas => "ttas",
            Self::Ticket => "ticket",
            Self::Clh => "clh",
            Self::Anderson => "anderson",
        }
    }
}

impl fmt::Display for LockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Naive test-and-set spin lock: every acquisition attempt is a write,
/// producing heavy cache-line ping-pong under contention.
#[derive(Default)]
pub struct TasLock {
    flag: CachePadded<AtomicBool>,
}

impl TasLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Lock for TasLock {
    fn acquire(&self) {
        while self.flag.swap(true, Ordering::Acquire) {
            crate::shim::hint::spin_loop();
        }
    }

    fn release(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

impl fmt::Debug for TasLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TasLock")
            .field("locked", &self.flag.load(Ordering::Relaxed))
            .finish()
    }
}

/// Test-and-test-and-set with exponential backoff: spins read-only on the
/// cached flag, attempting the write only when the lock looks free.
#[derive(Default)]
pub struct TtasLock {
    flag: CachePadded<AtomicBool>,
}

impl TtasLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts a single acquisition without spinning.
    pub fn try_acquire(&self) -> bool {
        !self.flag.load(Ordering::Relaxed) && !self.flag.swap(true, Ordering::Acquire)
    }
}

impl Lock for TtasLock {
    fn acquire(&self) {
        let mut backoff = Backoff::new();
        loop {
            if self.try_acquire() {
                return;
            }
            while self.flag.load(Ordering::Relaxed) {
                backoff.spin();
            }
        }
    }

    fn release(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

impl fmt::Debug for TtasLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TtasLock")
            .field("locked", &self.flag.load(Ordering::Relaxed))
            .finish()
    }
}

/// FIFO ticket lock: acquisitions take a ticket with `Fetch&Add` and spin
/// until the grant counter reaches it. Fair, but preemption of any waiter
/// in line stalls everyone behind it.
#[derive(Default)]
pub struct TicketLock {
    next_ticket: CachePadded<AtomicUsize>,
    now_serving: CachePadded<AtomicUsize>,
}

impl TicketLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Lock for TicketLock {
    fn acquire(&self) {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        while self.now_serving.load(Ordering::Acquire) != ticket {
            crate::shim::hint::spin_loop();
        }
    }

    fn release(&self) {
        let current = self.now_serving.load(Ordering::Relaxed);
        self.now_serving.store(current + 1, Ordering::Release);
    }
}

impl fmt::Debug for TicketLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TicketLock")
            .field("next_ticket", &self.next_ticket.load(Ordering::Relaxed))
            .field("now_serving", &self.now_serving.load(Ordering::Relaxed))
            .finish()
    }
}

struct ClhNode {
    locked: AtomicBool,
}

thread_local! {
    /// Per-(thread, lock-acquisition) CLH state: the node we queued and the
    /// predecessor node we now own. Keyed by lock address to support a
    /// thread holding several CLH locks at once.
    static CLH_SLOTS: std::cell::RefCell<Vec<(usize, *mut ClhNode, *mut ClhNode)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// CLH queue lock: waiters form an implicit queue and each spins on its
/// *predecessor's* flag only, giving local spinning and FIFO order.
///
/// This is the allocating variant: each acquisition enqueues a fresh
/// heap node; the node is reclaimed by its successor. Nested acquisition of
/// *different* CLH locks by one thread is supported; recursive acquisition
/// of the same lock deadlocks (as with every lock here).
pub struct ClhLock {
    tail: CachePadded<AtomicPtr<ClhNode>>,
}

impl ClhLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        let dummy = Box::into_raw(Box::new(ClhNode {
            locked: AtomicBool::new(false),
        }));
        Self {
            tail: CachePadded::new(AtomicPtr::new(dummy)),
        }
    }
}

impl Default for ClhLock {
    fn default() -> Self {
        Self::new()
    }
}

impl Lock for ClhLock {
    fn acquire(&self) {
        let node = Box::into_raw(Box::new(ClhNode {
            locked: AtomicBool::new(true),
        }));
        let pred = self.tail.swap(node, Ordering::AcqRel);
        // SAFETY: `pred` stays alive until *we* free it after acquiring.
        unsafe {
            while (*pred).locked.load(Ordering::Acquire) {
                crate::shim::hint::spin_loop();
            }
        }
        CLH_SLOTS.with(|s| s.borrow_mut().push((self as *const _ as usize, node, pred)));
    }

    fn release(&self) {
        let key = self as *const _ as usize;
        let (node, pred) = CLH_SLOTS.with(|s| {
            let mut slots = s.borrow_mut();
            let idx = slots
                .iter()
                .rposition(|(k, _, _)| *k == key)
                .expect("release() without matching acquire() on this thread");
            let (_, node, pred) = slots.remove(idx);
            (node, pred)
        });
        // SAFETY: we own `pred` (we finished spinning on it) and `node` was
        // allocated by our acquire. Unlocking `node` transfers its ownership
        // to our successor (or to the lock's Drop if none arrives).
        unsafe {
            drop(Box::from_raw(pred));
            (*node).locked.store(false, Ordering::Release);
        }
    }
}

impl Drop for ClhLock {
    fn drop(&mut self) {
        // The final tail node is owned by nobody once the lock is idle.
        let tail = self.tail.load(Ordering::Acquire);
        if !tail.is_null() {
            // SAFETY: exclusive access in Drop; any released node reachable
            // here has no successor spinning on it.
            unsafe { drop(Box::from_raw(tail)) };
        }
    }
}

impl fmt::Debug for ClhLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ClhLock { .. }")
    }
}

/// Anderson's array-based queue lock (\[3\]): a ring of cache-padded
/// flags; each acquirer takes a slot with `Fetch&Add` and spins on *its
/// own* flag (no global cache-line ping-pong); release passes the flag to
/// the next slot. FIFO, allocation-free.
///
/// Capacity-bounded: at most [`AndersonLock::DEFAULT_SLOTS`] (or the value
/// given to [`AndersonLock::with_slots`]) threads may contend
/// simultaneously; more would alias slots.
pub struct AndersonLock {
    slots: Box<[CachePadded<AtomicBool>]>,
    next: CachePadded<AtomicUsize>,
}

thread_local! {
    /// (lock address, my slot) pairs for locks currently held/waited on.
    static ANDERSON_SLOTS: std::cell::RefCell<Vec<(usize, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl AndersonLock {
    /// Default waiter capacity.
    pub const DEFAULT_SLOTS: usize = 64;

    /// Creates a lock with the default capacity.
    pub fn new() -> Self {
        Self::with_slots(Self::DEFAULT_SLOTS)
    }

    /// Creates a lock supporting up to `slots` simultaneous contenders.
    pub fn with_slots(slots: usize) -> Self {
        let slots = slots.max(2);
        let flags: Box<[CachePadded<AtomicBool>]> = (0..slots)
            .map(|i| CachePadded::new(AtomicBool::new(i == 0)))
            .collect();
        Self {
            slots: flags,
            next: CachePadded::new(AtomicUsize::new(0)),
        }
    }
}

impl Default for AndersonLock {
    fn default() -> Self {
        Self::new()
    }
}

impl Lock for AndersonLock {
    fn acquire(&self) {
        let me = self.next.fetch_add(1, Ordering::AcqRel) % self.slots.len();
        while !self.slots[me].load(Ordering::Acquire) {
            crate::shim::hint::spin_loop();
        }
        // Re-arm our slot for its next lap around the ring.
        self.slots[me].store(false, Ordering::Relaxed);
        ANDERSON_SLOTS.with(|s| s.borrow_mut().push((self as *const _ as usize, me)));
    }

    fn release(&self) {
        let key = self as *const _ as usize;
        let me = ANDERSON_SLOTS.with(|s| {
            let mut v = s.borrow_mut();
            let idx = v
                .iter()
                .rposition(|(k, _)| *k == key)
                .expect("release() without matching acquire() on this thread");
            v.remove(idx).1
        });
        let nxt = (me + 1) % self.slots.len();
        self.slots[nxt].store(true, Ordering::Release);
    }
}

impl fmt::Debug for AndersonLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AndersonLock")
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn hammer(lock: Arc<dyn Lock>, threads: usize, iters: usize) -> usize {
        let counter = Arc::new(crate::shim::atomic::AtomicUsize::new(0));
        struct ForceSync<T>(T);
        unsafe impl<T> Sync for ForceSync<T> {}
        unsafe impl<T> Send for ForceSync<T> {}
        let shared = Arc::new(ForceSync(std::cell::UnsafeCell::new(0usize)));
        std::thread::scope(|s| {
            for _ in 0..threads {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    for _ in 0..iters {
                        lock.acquire();
                        // Non-atomic increment under the lock: torn or lost
                        // updates would reveal a broken lock.
                        unsafe {
                            let p = shared.0.get();
                            *p += 1;
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                        lock.release();
                    }
                });
            }
        });
        let inside = unsafe { *shared.0.get() };
        assert_eq!(inside, counter.load(Ordering::Relaxed));
        inside
    }

    #[test]
    fn tas_lock_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(TasLock::new()), 4, 5_000), 20_000);
    }

    #[test]
    fn ttas_lock_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(TtasLock::new()), 4, 5_000), 20_000);
    }

    #[test]
    fn ticket_lock_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(TicketLock::new()), 4, 5_000), 20_000);
    }

    #[test]
    fn clh_lock_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(ClhLock::new()), 4, 5_000), 20_000);
    }

    #[test]
    fn anderson_lock_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(AndersonLock::new()), 4, 5_000), 20_000);
    }

    #[test]
    fn anderson_ring_wraps_many_laps() {
        // Far more acquisitions than slots: the ring must keep rotating.
        let lock = AndersonLock::with_slots(4);
        for _ in 0..1_000 {
            lock.acquire();
            lock.release();
        }
    }

    #[test]
    fn guard_releases_on_drop() {
        let lock = TtasLock::new();
        {
            let _g = lock.guard();
            assert!(!lock.try_acquire());
        }
        assert!(lock.try_acquire());
        lock.release();
    }

    #[test]
    fn lock_kind_builds_all_variants() {
        for kind in LockKind::ALL {
            let lock = kind.build();
            lock.acquire();
            lock.release();
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn ticket_lock_is_fifo_single_thread() {
        let lock = TicketLock::new();
        lock.acquire();
        lock.release();
        lock.acquire();
        lock.release();
        assert_eq!(lock.next_ticket.load(Ordering::Relaxed), 2);
        assert_eq!(lock.now_serving.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn clh_nested_different_locks() {
        let a = ClhLock::new();
        let b = ClhLock::new();
        a.acquire();
        b.acquire();
        b.release();
        a.release();
    }

    #[test]
    fn tas_uncontended_reacquire() {
        let lock = TasLock::new();
        for _ in 0..1_000 {
            lock.acquire();
            lock.release();
        }
    }
}
