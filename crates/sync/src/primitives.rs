//! Paper-faithful wrappers for the atomic primitives of §2.1.
//!
//! Figure 1 of the paper defines `Compare&Swap(a, old, new)` as an atomic
//! conditional store returning a boolean. Modern hardware (and Rust's
//! [`std::sync::atomic`]) exposes the same operation as `compare_exchange`;
//! [`CasPtr`] keeps the paper's boolean-returning shape so the algorithm
//! implementations in `valois-core` read line-for-line like the paper's
//! pseudo-code.
//!
//! The memory manager's `Fetch&Add` on the reference count and its
//! `Test&Set` on the claim bit (§5, Figs. 15-18) live together in
//! [`RefClaim`], one word, with the claim taken by `Compare&Swap` (the
//! Michael & Scott correction).
//!
//! # Memory orderings
//!
//! The 1995 paper assumes sequential consistency. We use acquire/release
//! orderings at the points where the algorithms publish or consume nodes
//! (documented on each method), which is the standard, weaker-but-sufficient
//! mapping; statistics counters use `Relaxed`.

use crate::shim::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::fmt;

/// A shared pointer word supporting `Read`, `Write`, and `Compare&Swap`.
///
/// The paper's algorithms use `Compare&Swap` exclusively to *swing* pointers
/// (§2.1).
///
/// `CasPtr` stores raw pointers; it is up to the caller (the memory manager
/// in `valois-mem`) to guarantee the pointees outlive all readers. That is
/// exactly the job of the paper's `SafeRead`/`Release` protocol.
///
/// # Example
///
/// ```
/// use valois_sync::primitives::CasPtr;
///
/// let mut a = 1u32;
/// let mut b = 2u32;
/// let p = CasPtr::new(&mut a as *mut u32);
/// assert!(p.compare_and_swap(&mut a, &mut b), "swing a -> b");
/// assert!(!p.compare_and_swap(&mut a, std::ptr::null_mut()), "stale old value");
/// assert_eq!(p.read(), &mut b as *mut u32);
/// ```
pub struct CasPtr<T> {
    ptr: AtomicPtr<T>,
}

impl<T> CasPtr<T> {
    /// Creates a pointer cell holding `initial` (may be null).
    pub fn new(initial: *mut T) -> Self {
        Self {
            ptr: AtomicPtr::new(initial),
        }
    }

    /// Creates a null pointer cell.
    pub fn null() -> Self {
        Self::new(std::ptr::null_mut())
    }

    /// Atomic read with acquire ordering.
    pub fn read(&self) -> *mut T {
        // ORDER: Acquire — a pointer read here happens-after the Release
        // that published it, so the pointee's initialization is visible.
        self.ptr.load(Ordering::Acquire)
    }

    /// Atomic write with release ordering.
    pub fn write(&self, value: *mut T) {
        // ORDER: Release — publishing a node pointer must publish the
        // node's fields (kind, links, value) written before it.
        self.ptr.store(value, Ordering::Release);
    }

    /// Fig. 1 `Compare&Swap` on a pointer word.
    pub fn compare_and_swap(&self, old: *mut T, new: *mut T) -> bool {
        valois_trace::probe!(
            CasAttempt,
            self as *const Self as usize,
            old as usize,
            new as usize
        );
        // ORDER: AcqRel — a successful swing publishes `new` (Release)
        // and observes everything published before `old` was installed
        // (Acquire); failure still acquires the competing publication.
        match self
            .ptr
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                valois_trace::probe!(
                    CasSuccess,
                    self as *const Self as usize,
                    old as usize,
                    new as usize
                );
                true
            }
            Err(found) => {
                valois_trace::probe!(
                    CasFailure,
                    self as *const Self as usize,
                    old as usize,
                    found as usize
                );
                false
            }
        }
    }

    /// Unconditional atomic exchange; returns the previous value.
    pub fn swap(&self, new: *mut T) -> *mut T {
        // ORDER: AcqRel — used by `store_link` (publish `new`) and by
        // `drain_links` (take ownership of the old target for release);
        // both directions need their respective half of the barrier.
        self.ptr.swap(new, Ordering::AcqRel)
    }
}

impl<T> Default for CasPtr<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> fmt::Debug for CasPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CasPtr").field(&self.read()).finish()
    }
}

/// Reference count and claim bit **combined in one atomic word** — the
/// Michael & Scott correction to the paper's Figs. 15-18 memory manager.
///
/// The paper keeps `refct` and `claim` in separate words. That admits a
/// race the model checker in `valois-core/tests/loom_models.rs` finds
/// mechanically: a releaser decrements the count to zero and stalls
/// *before* its `Test&Set(claim)`; meanwhile a stale `SafeRead` briefly
/// resurrects the count (0 → 1 → 0), a second releaser wins the claim and
/// reclaims the node, and `Alloc` recycles it — clearing `claim`. When the
/// stalled releaser resumes, its `Test&Set` sees a clear claim, "wins",
/// and reclaims the now-live node a second time.
///
/// The correction makes "count is zero" and "claim acquired" a single
/// atomic step: the count lives in bits 1.. and the claim in bit 0, and
/// the claim is acquired with `Compare&Swap(word, 0, 1)` — which fails
/// unless the count is *still* zero and the claim still clear at claim
/// time. See PAPERS.md (Michael & Scott, *Correction of a Memory
/// Management Method for Lock-Free Data Structures*, 1995).
///
/// # Example
///
/// ```
/// use valois_sync::primitives::RefClaim;
///
/// let rc = RefClaim::new_detached(); // count 0, claim set
/// rc.clear_claim();
/// assert_eq!(rc.incr_ref(), 0);
/// assert_eq!(rc.decr_ref(), 1);
/// assert!(rc.try_claim(), "count zero and claim clear: we reclaim");
/// assert!(!rc.try_claim(), "claim already taken");
/// ```
pub struct RefClaim {
    /// `2 * refct + claim`.
    word: AtomicUsize,
}

/// Bit 0 of the combined word: the claim flag.
const CLAIM_BIT: usize = 1;
/// One reference in the combined word: the count occupies bits 1...
const REF_UNIT: usize = 2;

impl RefClaim {
    /// Creates the detached state: count 0, claim set (a node not yet on
    /// the free list; only `Alloc` clears the claim).
    pub fn new_detached() -> Self {
        Self {
            word: AtomicUsize::new(CLAIM_BIT),
        }
    }

    /// `Fetch&Add(refct, +1)`: returns the *previous count*.
    pub fn incr_ref(&self) -> usize {
        // ORDER: AcqRel — the increment must be ordered before SafeRead's
        // re-validating load of the source pointer (Fig. 15 line 5).
        self.word.fetch_add(REF_UNIT, Ordering::AcqRel) >> 1
    }

    /// `Fetch&Add(refct, -1)`: returns the *previous count*.
    ///
    /// # Panics
    ///
    /// In debug builds, panics on count underflow — always a protocol
    /// violation in the reference counting scheme.
    pub fn decr_ref(&self) -> usize {
        // ORDER: AcqRel — release so every prior use of the node
        // happens-before any reclaimer's drain; acquire so the final
        // decrementer observes those uses before draining.
        let prev = self.word.fetch_sub(REF_UNIT, Ordering::AcqRel);
        debug_assert!(prev >> 1 != 0, "reference count underflow");
        prev >> 1
    }

    /// The corrected claim arbitration: atomically acquires the claim
    /// *only if* the count is still zero and the claim still clear.
    /// Returns `true` if the caller is the unique reclaimer.
    pub fn try_claim(&self) -> bool {
        // ORDER: AcqRel — winning the claim acquires every release that
        // decremented the count to zero, and publishes the claim before
        // the winner starts draining links.
        self.word
            .compare_exchange(0, CLAIM_BIT, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Unconditionally sets the claim, returning the previous claim state.
    /// Quiescent contexts only (cycle collectors that claim garbage whose
    /// count never reaches zero on its own).
    pub fn set_claim(&self) -> bool {
        // ORDER: AcqRel — same publication contract as `try_claim`; callers
        // are quiescent so contention cannot occur, but the drain that
        // follows must still be ordered after the claim.
        self.word.fetch_or(CLAIM_BIT, Ordering::AcqRel) & CLAIM_BIT != 0
    }

    /// Clears the claim (Fig. 17 line 8, during `Alloc`). The count bits
    /// are preserved: a stale `SafeRead` may hold a transient increment on
    /// this node, so the clear must not overwrite the whole word.
    pub fn clear_claim(&self) {
        // ORDER: AcqRel — the clear is ordered after the allocator's node
        // reset and published before the node can be re-linked.
        self.word.fetch_and(!CLAIM_BIT, Ordering::AcqRel);
    }

    /// Reads the current count.
    pub fn refcount(&self) -> usize {
        // ORDER: Acquire — diagnostic/audit reads synchronize with the
        // AcqRel read-modify-writes above.
        self.word.load(Ordering::Acquire) >> 1
    }

    /// Reads the claim flag.
    pub fn claim_is_set(&self) -> bool {
        // ORDER: Acquire — see `refcount`.
        self.word.load(Ordering::Acquire) & CLAIM_BIT != 0
    }
}

impl Default for RefClaim {
    fn default() -> Self {
        Self::new_detached()
    }
}

impl fmt::Debug for RefClaim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RefClaim")
            .field("refct", &self.refcount())
            .field("claim", &self.claim_is_set())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cas_ptr_swings_and_swaps() {
        let mut a = 1i32;
        let mut b = 2i32;
        let p = CasPtr::new(&mut a as *mut i32);
        assert!(p.compare_and_swap(&mut a, &mut b));
        assert!(!p.compare_and_swap(&mut a, std::ptr::null_mut()));
        assert_eq!(p.swap(std::ptr::null_mut()), &mut b as *mut i32);
        assert!(p.read().is_null());
    }

    #[test]
    fn cas_ptr_null_default() {
        let p: CasPtr<u8> = CasPtr::default();
        assert!(p.read().is_null());
    }

    #[test]
    fn ref_claim_blocks_stalled_releaser() {
        // The Michael & Scott scenario, serialized: releaser A decrements
        // to zero but stalls before claiming; a stale SafeRead resurrects
        // the count, a second releaser B legitimately wins the claim, and
        // the node is recycled (claim cleared, count 1 for the new owner).
        // A's late claim attempt must then fail — with the paper's
        // separate-word Test&Set it would succeed and free a live node.
        let rc = RefClaim::new_detached();
        rc.clear_claim();
        rc.incr_ref(); // the one live reference
        assert_eq!(rc.decr_ref(), 1); // A: count hits zero; A stalls here
        assert_eq!(rc.incr_ref(), 0); // stale SafeRead resurrects 0 -> 1
        assert_eq!(rc.decr_ref(), 1); // re-validation failed: release
        assert!(rc.try_claim(), "B: count zero again, B reclaims");
        rc.clear_claim(); // Alloc recycles the node...
        rc.incr_ref(); // ...for a new owner
        assert!(!rc.try_claim(), "A resumes: must NOT reclaim the live node");
        assert_eq!(rc.refcount(), 1);
        assert!(!rc.claim_is_set());
    }

    #[test]
    fn ref_claim_transient_increment_survives_clear() {
        // A stale SafeRead increment concurrent with Alloc's claim clear
        // must not be erased: clear_claim touches only bit 0.
        let rc = RefClaim::new_detached();
        rc.incr_ref(); // free-list count
        rc.incr_ref(); // stale SafeRead's transient protection
        rc.clear_claim();
        assert_eq!(rc.refcount(), 2, "clear_claim erased count bits");
        assert!(!rc.claim_is_set());
    }
}
