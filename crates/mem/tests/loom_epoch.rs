//! Model-checked verification of the epoch reclamation backend
//! (`--cfg loom` only): pinned readers traverse with plain loads while a
//! deleter unlinks, retires, and drives grace-period collection.
//!
//! Under `--cfg loom` the epoch knobs collapse (1 pin slot, collect hint
//! every retire), so two readers share one slot — exercising the
//! nested/colliding pin merge that must keep the *older* epoch — and
//! every release-to-zero immediately tempts the collector.
//!
//! The safety property (invariant I12, docs/PROTOCOL.md): a node retired
//! at observed epoch `e` is freed only once
//! `e + 2 <= min(global_epoch, every pinned epoch)`. On every explored
//! schedule, a reader that obtained a pointer under a pin must observe
//! the cell intact (`TAG_CELL`) for the pin's whole lifetime — if the
//! collector freed it early, the deleter's re-allocation retypes the
//! cell (`TAG_RETYPED`) and the reader's assertion fires.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p valois-mem --test loom_epoch`
#![cfg(loom)]

use std::ptr;
use std::sync::Arc;

use valois_mem::{Arena, ArenaConfig, Epoch, Link, Managed, NodeHeader, ReclaimedLinks};
use valois_sync::shim::atomic::{AtomicUsize, Ordering};
use valois_sync::shim::{thread, Builder};

const TAG_FREE: usize = 0;
const TAG_CELL: usize = 1;
const TAG_RETYPED: usize = 2;

/// Minimal managed node: one drainable link (doubling as the free-list
/// link) and an observable `tag` reset by the collector's drain.
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
    arena: Arena<Slot, Epoch>,
    root: Link<Slot>,
}

/// A 2-cell epoch arena with one cell published through `root` (the
/// root's link holds the cell's one link count).
fn published_ctx() -> Arc<Ctx> {
    let ctx = Arc::new(Ctx {
        arena: Arena::with_config(ArenaConfig::new().initial_capacity(2).max_nodes(2)),
        root: Link::null(),
    });
    let x = ctx.arena.alloc().expect("capacity 2");
    unsafe {
        (*x).tag.store(TAG_CELL, Ordering::Release);
        ctx.arena.store_link(&ctx.root, x);
        ctx.arena.release(x);
    }
    ctx
}

/// One pinned read of the published cell: while the pin is held, the
/// cell must stay intact no matter what the deleter/collector do.
fn reader(ctx: &Ctx) {
    let _pin = ctx.arena.pin();
    // SAFETY: `root` is a counted link of this arena; the read is under
    // the pin just taken.
    let p = unsafe { ctx.arena.safe_read(&ctx.root) };
    if !p.is_null() {
        // SAFETY: protected by the pin until `_pin` drops (I12).
        unsafe {
            assert_eq!(
                (*p).tag.load(Ordering::Acquire),
                TAG_CELL,
                "cell freed while a pin could reach it"
            );
            // A second look after more scheduling points: the grace
            // period must hold for the pin's entire window, not just
            // the instant of the read.
            assert_eq!(
                (*p).tag.load(Ordering::Acquire),
                TAG_CELL,
                "cell recycled mid-pin"
            );
            ctx.arena.unprotect(p);
        }
    }
}

/// Unlinks the cell (retiring it at link-count zero), drives collection,
/// and re-allocates — retyping whatever cell comes back.
fn deleter(ctx: &Ctx) {
    unsafe {
        {
            let _pin = ctx.arena.pin();
            let x = ctx.arena.safe_read(&ctx.root);
            if !x.is_null() {
                assert!(
                    ctx.arena.swing(&ctx.root, x, ptr::null_mut()),
                    "only writer of the root"
                );
                ctx.arena.unprotect(x);
            }
        }
        // Grace-period driving: each call is at most one advance plus one
        // limbo sweep; with readers still pinned at older epochs the
        // sweep must keep the cell.
        ctx.arena.advance_and_collect();
        ctx.arena.advance_and_collect();
        // Re-allocation: may legally return the spare cell at any time,
        // and the retired cell only after its grace period has elapsed.
        if let Ok(q) = ctx.arena.alloc() {
            (*q).tag.store(TAG_RETYPED, Ordering::Release);
            ctx.arena.release(q);
        }
    }
}

/// Quiesces the arena (no pins left) and checks conservation: exactly
/// two distinct cells, both drained and allocatable.
fn check_conservation(ctx: &Ctx) {
    for _ in 0..8 {
        ctx.arena.advance_and_collect();
    }
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
    for _ in 0..8 {
        ctx.arena.advance_and_collect();
    }
    assert_eq!(ctx.arena.live_nodes(), 0);
}

/// Two pinned readers traverse while the deleter retires and drains.
#[test]
fn pinned_readers_survive_retire_and_drain() {
    let explored = Builder::new().preemption_bound(2).check(|| {
        let ctx = published_ctx();
        let threads: Vec<_> = [true, true, false]
            .into_iter()
            .map(|is_reader| {
                let ctx = Arc::clone(&ctx);
                thread::spawn(move || {
                    if is_reader {
                        reader(&ctx);
                    } else {
                        deleter(&ctx);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        check_conservation(&ctx);
    });
    assert!(explored > 1, "model must branch, explored {explored}");
}

/// The same model under seeded random-walk schedules: preemption points
/// land deep inside the collector's take-limbo / horizon-scan / requeue
/// window, which the bounded DFS reaches late. The seed is fixed so a
/// regression (e.g. scanning the horizon *before* detaching the limbo
/// chain, or a one-epoch grace period) reproduces deterministically.
#[test]
fn pinned_readers_survive_retire_and_drain_seeded() {
    let explored = Builder::new()
        .preemption_bound(3)
        .random_walks(400, 0xE90C_5EED)
        .check(|| {
            let ctx = published_ctx();
            let threads: Vec<_> = [true, true, false]
                .into_iter()
                .map(|is_reader| {
                    let ctx = Arc::clone(&ctx);
                    thread::spawn(move || {
                        if is_reader {
                            reader(&ctx);
                        } else {
                            deleter(&ctx);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            check_conservation(&ctx);
        });
    assert!(explored > 1, "model must branch, explored {explored}");
}

/// The grace period is two epochs, not one (I12's lag). Deterministic
/// single-schedule regression: a node retired at epoch `e` must survive
/// the collection that runs at `global == e + 1` — a one-epoch rule
/// (`retire + 1 <= horizon`) would free it there, reopening the race
/// this lag exists to close (a reader pinning at `e + 1` concurrently
/// with the collector's scan, holding a stale link with no ordering
/// forcing it to see the unlink).
#[test]
fn grace_period_is_two_epochs_not_one() {
    let explored = Builder::new().check(|| {
        let ctx = published_ctx();
        unsafe {
            let x = {
                let _pin = ctx.arena.pin();
                let x = ctx.arena.safe_read(&ctx.root);
                ctx.arena.unprotect(x);
                x
            };
            // Unlink: the link count hits zero and `x` is retired at the
            // current epoch `e`. Under loom the collect hint fires on
            // every retirement, so this release runs one collect round
            // itself: with no pins outstanding it advances the global
            // epoch to `e + 1` — exactly where a one-epoch rule
            // (`retire + 1 <= horizon`) would free `x`.
            assert!(ctx.arena.swing(&ctx.root, x, ptr::null_mut()));
            assert_eq!(
                (*x).tag.load(Ordering::Acquire),
                TAG_CELL,
                "freed one epoch after retirement (one-epoch grace period)"
            );
            // The next advance reaches `e + 2`: the grace period has
            // elapsed with no pins outstanding — must free now.
            assert_eq!(ctx.arena.advance_and_collect(), 1, "grace period over");
            assert_eq!((*x).tag.load(Ordering::Acquire), TAG_FREE);
        }
        check_conservation(&ctx);
    });
    assert_eq!(explored, 1, "deterministic model, explored {explored}");
}
