//! Model-checked verification of the batching layers added on top of the
//! §5 protocol (`--cfg loom` only): per-thread free-node magazines and
//! deferred release buffers.
//!
//! Under `--cfg loom` the knobs collapse (1 magazine slot, capacity 1,
//! refill batch 1, defer capacity 2), so a handful of operations reaches
//! every batch-boundary path — magazine refill, over-capacity flush to the
//! global list, slot-contention fallback, and deferred-drain — while the
//! scheduler in `valois_sync::shim::sched` exhaustively explores the
//! interleavings.
//!
//! The model races a deferred release (the batched decrement arriving
//! *late*, at drain time) against a concurrent release-to-zero and
//! re-allocation. The §5 safety argument says deferral only delays
//! reclamation; here that is checked on every explored schedule: a cell is
//! never recycled while the parked reference exists, the claim arbitration
//! never double-fires, and afterwards every cell is back on a free
//! structure with exact counts.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p valois-mem --test loom_mem`
#![cfg(loom)]

use std::ptr;
use std::sync::Arc;

use valois_mem::{Arena, ArenaConfig, DeferredReleases, Link, Managed, NodeHeader, ReclaimedLinks};
use valois_sync::shim::atomic::{AtomicUsize, Ordering};
use valois_sync::shim::{thread, Builder};

const TAG_FREE: usize = 0;
const TAG_CELL: usize = 1;
const TAG_RETYPED: usize = 2;

/// Minimal managed node: one drainable link (doubling as the free-list /
/// magazine link) and an observable `tag` reset by reclamation.
#[derive(Default)]
struct Slot {
    header: NodeHeader,
    link: Link<Slot>,
    tag: AtomicUsize,
}

impl Managed for Slot {
    fn header(&self) -> &NodeHeader {
        &self.header
    }
    fn free_link(&self) -> &Link<Self> {
        &self.link
    }
    fn drain_links(&self) -> ReclaimedLinks<Self> {
        let mut links = ReclaimedLinks::new();
        links.push(self.link.swap(ptr::null_mut()));
        self.tag.store(TAG_FREE, Ordering::Release);
        links
    }
    fn links(&self) -> impl Iterator<Item = &Link<Self>> {
        std::iter::once(&self.link)
    }
    fn reset_for_alloc(&self) {
        self.link.write(ptr::null_mut());
    }
}

struct Ctx {
    arena: Arena<Slot>,
    root: Link<Slot>,
}

fn capped_arena(cap: usize) -> Arena<Slot> {
    let arena = Arena::with_config(ArenaConfig::new().initial_capacity(cap).max_nodes(cap));
    // Trigger nothing lazily later: the initial segment exists and the
    // current thread's magazine has seen traffic, so the threads below
    // contend on the steady-state paths.
    let warm = arena.alloc().expect("warm-up alloc within cap");
    unsafe { arena.release(warm) };
    arena
}

/// Magazine flush + deferred drain vs. release-to-zero.
///
/// Thread A parks its counted reference on the published cell in a
/// [`DeferredReleases`] buffer, churns an alloc/release cycle through the
/// (single, capacity-1) magazine slot — forcing refill and over-capacity
/// flush interleavings with B — and only then drains the parked release.
/// Thread B concurrently unlinks the cell from the root and releases the
/// root's count, so the *last* decrement (and the claim arbitration that
/// guards reclamation) may come from either thread, possibly while the
/// other is mid-magazine-operation.
///
/// On every explored schedule:
/// * while A's reference is parked (deferred, not yet drained), the cell
///   is never recycled under it — B's re-allocation attempt can only
///   return the *other* cell;
/// * exactly one claim winner reclaims the cell (no double reclaim, no
///   lost cell);
/// * after both threads finish and the magazines are flushed, both cells
///   are allocatable, distinct, and reset.
#[test]
fn deferred_drain_and_magazine_flush_race_release_to_zero() {
    let explored = Builder::new().check(|| {
        let ctx = Arc::new(Ctx {
            arena: capped_arena(2),
            root: Link::null(),
        });
        // Publish one live cell through the root.
        let x = ctx.arena.alloc().expect("capacity 2");
        unsafe {
            (*x).tag.store(TAG_CELL, Ordering::Release);
            ctx.arena.store_link(&ctx.root, x);
            ctx.arena.release(x);
        }

        let parker = {
            let ctx = Arc::clone(&ctx);
            thread::spawn(move || unsafe {
                let mut defer = DeferredReleases::new();
                let p = ctx.arena.safe_read(&ctx.root);
                if !p.is_null() {
                    // Park the counted reference: the release is deferred,
                    // so the cell must stay protected until the drain.
                    ctx.arena.release_deferred(&mut defer, p);
                    assert_eq!(
                        (*p).tag.load(Ordering::Acquire),
                        TAG_CELL,
                        "cell died under a parked (deferred) reference"
                    );
                }
                // Magazine churn while the reference is parked: alloc pops
                // through the slot (refill from the global list), release
                // pushes back and — capacity 1 under loom — flushes to the
                // global list, interleaving slot try-locks with B.
                if let Ok(q) = ctx.arena.alloc() {
                    if !p.is_null() {
                        assert_ne!(q, p, "recycled a cell whose release is only parked");
                    }
                    ctx.arena.release(q);
                }
                if !p.is_null() {
                    assert_eq!(
                        (*p).tag.load(Ordering::Acquire),
                        TAG_CELL,
                        "cell recycled before the deferred drain"
                    );
                }
                // The batched decrement finally lands — this may be the
                // release-to-zero that wins the claim and reclaims.
                ctx.arena.drain_deferred(&mut defer);
            })
        };

        let deleter = {
            let ctx = Arc::clone(&ctx);
            thread::spawn(move || unsafe {
                // Unlink the cell and drop the root's count — the other
                // candidate for the final decrement.
                let x = ctx.arena.safe_read(&ctx.root);
                if !x.is_null() {
                    assert!(
                        ctx.arena.swing(&ctx.root, x, ptr::null_mut()),
                        "only writer of the root"
                    );
                    ctx.arena.release(x);
                }
                // Re-allocation attempt: legal only once no counted
                // reference (parked or live) remains on the cell it gets.
                if let Ok(q) = ctx.arena.alloc() {
                    (*q).tag.store(TAG_RETYPED, Ordering::Release);
                    ctx.arena.release(q);
                }
            })
        };

        parker.join().unwrap();
        deleter.join().unwrap();

        // Conservation: flush the magazines and check that exactly the two
        // cells exist, distinct, reset, and allocatable.
        ctx.arena.flush_thread_caches();
        let a = ctx.arena.alloc().expect("first cell conserved");
        let b = ctx.arena.alloc().expect("second cell conserved");
        assert_ne!(a, b, "free structure duplicated a cell");
        assert!(
            ctx.arena.alloc().is_err(),
            "free structure grew a phantom cell"
        );
        unsafe {
            assert_eq!((*a).tag.load(Ordering::Acquire), TAG_FREE);
            assert_eq!((*b).tag.load(Ordering::Acquire), TAG_FREE);
            ctx.arena.release(a);
            ctx.arena.release(b);
        }
        assert_eq!(ctx.arena.live_nodes(), 0);
    });
    assert!(explored > 1, "model must branch, explored {explored}");
}
