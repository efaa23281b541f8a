//! Randomized tests of the §5 memory manager: conservation (every alloc
//! is reclaimable exactly once), free-list integrity after arbitrary
//! scripts, and link-transfer bookkeeping.
//!
//! Formerly proptest-based; the offline build environment cannot fetch
//! proptest, so the scripts come from the in-repo seeded RNG (fixed seeds
//! keep failures reproducible by case number).

use valois_mem::{Arena, ArenaConfig, Link, Managed, NodeHeader, ReclaimedLinks};
use valois_sync::rng::SmallRng;

#[derive(Default)]
struct TestNode {
    header: NodeHeader,
    next: Link<TestNode>,
    back: Link<TestNode>,
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
        self.next.write(std::ptr::null_mut());
        self.back.write(std::ptr::null_mut());
    }
}

#[derive(Debug, Clone)]
enum ArenaOp {
    Alloc,
    /// Release the i-th oldest held node (mod held count).
    Release(u8),
    /// Link the i-th held node's `back` to the j-th held node (counted).
    LinkBack(u8, u8),
}

/// Weighted 3:2:1 alloc/release/link, matching the old proptest strategy.
fn random_ops(rng: &mut SmallRng, max_len: usize) -> Vec<ArenaOp> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| match rng.gen_range(0..6u8) {
            0..=2 => ArenaOp::Alloc,
            3 | 4 => ArenaOp::Release(rng.next_u64() as u8),
            _ => ArenaOp::LinkBack(rng.next_u64() as u8, rng.next_u64() as u8),
        })
        .collect()
}

/// Any alloc/release/link script conserves nodes: after releasing all
/// held references the link counts are exact, the cycle sweep frees
/// exactly what counting left behind, and every node is allocatable
/// again.
#[test]
fn scripts_conserve_nodes() {
    let mut swept = 0;
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xA4E4_0001 ^ (case * 0x9E37));
        let ops = random_ops(&mut rng, 120);
        let cap = 64usize;
        let mut arena: Arena<TestNode> =
            Arena::with_config(ArenaConfig::new().initial_capacity(cap).max_nodes(cap));
        let mut held: Vec<*mut TestNode> = Vec::new();
        for op in &ops {
            match *op {
                ArenaOp::Alloc => {
                    if let Ok(p) = arena.alloc() {
                        held.push(p);
                    }
                }
                ArenaOp::Release(i) => {
                    if !held.is_empty() {
                        let idx = i as usize % held.len();
                        let p = held.swap_remove(idx);
                        // SAFETY: we hold the allocation reference.
                        unsafe { arena.release(p) };
                    }
                }
                ArenaOp::LinkBack(i, j) => {
                    if held.len() >= 2 {
                        let a = held[i as usize % held.len()];
                        let b = held[j as usize % held.len()];
                        if a != b {
                            // SAFETY: both held; store_link transfers the
                            // old count and installs the new one.
                            unsafe { arena.store_link(&(*a).back, b) };
                        }
                    }
                }
            }
        }
        for p in held.drain(..) {
            // SAFETY: allocation references released exactly once.
            unsafe { arena.release(p) };
        }
        // Links may form cycles (a.back->b, b.back->a), which reference
        // counting alone cannot reclaim: their counts are still exact, and
        // the sweep frees exactly that residue.
        let audit = |arena: &mut Arena<TestNode>| {
            arena
                .audit_counts(&[])
                .unwrap_or_else(|e| panic!("case {case}: {e}"))
        };
        audit(&mut arena);
        let live = arena.live_nodes();
        assert_eq!(arena.sweep_unreachable(&[]) as u64, live, "case {case}");
        assert_eq!(arena.live_nodes(), 0, "case {case}");
        audit(&mut arena);
        swept += live;
        let p = arena
            .alloc()
            .unwrap_or_else(|_| panic!("case {case}: arena wedged"));
        unsafe { arena.release(p) };
    }
    assert!(swept > 0, "no script left a cycle for the sweep");
}

/// Alloc up to capacity always yields distinct nodes; exhaustion is
/// reported exactly at the cap.
#[test]
fn capped_arena_yields_distinct_nodes() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xA4E4_0002 ^ (case * 0x9E37));
        let cap = rng.gen_range(1..64usize);
        let arena: Arena<TestNode> =
            Arena::with_config(ArenaConfig::new().initial_capacity(cap).max_nodes(cap));
        let mut seen = std::collections::HashSet::new();
        let mut held = Vec::new();
        for _ in 0..cap {
            let p = arena.alloc().expect("within capacity");
            assert!(seen.insert(p as usize), "case {case}: duplicate allocation");
            held.push(p);
        }
        assert!(arena.alloc().is_err(), "case {case}: exhaustion at cap");
        for p in held {
            // SAFETY: allocation references released exactly once.
            unsafe { arena.release(p) };
        }
        assert_eq!(arena.live_nodes(), 0, "case {case}");
    }
}

/// Free-list recycling is FIFO-agnostic but complete: after k
/// alloc/release rounds through a small pool, the stats balance.
#[test]
fn recycling_rounds_balance() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xA4E4_0003 ^ (case * 0x9E37));
        let rounds = rng.gen_range(1..200usize);
        let arena: Arena<TestNode> =
            Arena::with_config(ArenaConfig::new().initial_capacity(4).max_nodes(4));
        for _ in 0..rounds {
            let a = arena.alloc().unwrap();
            let b = arena.alloc().unwrap();
            // SAFETY: allocation references released exactly once.
            unsafe {
                arena.release(a);
                arena.release(b);
            }
        }
        let stats = arena.stats();
        assert_eq!(stats.allocs, rounds as u64 * 2, "case {case}");
        assert_eq!(stats.reclaims, rounds as u64 * 2, "case {case}");
        assert_eq!(stats.live_nodes(), 0, "case {case}");
    }
}
