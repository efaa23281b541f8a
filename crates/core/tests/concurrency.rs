//! Concurrent behaviour of the §3 list: the Fig. 2/Fig. 3 hazards must not
//! occur, the §3 auxiliary-chain theorem must hold at quiescence, and the
//! §5 memory protocol must keep counts exact under churn.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use valois_core::{ArenaConfig, List};

fn thread_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().clamp(4, 8))
        .unwrap_or(4)
}

#[test]
fn concurrent_inserts_lose_nothing() {
    // The Fig. 2 hazard: an insert concurrent with structural changes being
    // lost. Every inserted value must be present afterwards.
    let mut list: List<u64> = List::new();
    let threads = thread_count() as u64;
    let per_thread = 500u64;
    std::thread::scope(|s| {
        let list = &list;
        for t in 0..threads {
            s.spawn(move || {
                let mut cur = list.cursor();
                for i in 0..per_thread {
                    cur.insert(t * per_thread + i).unwrap();
                    cur.update();
                }
            });
        }
    });
    let mut items: Vec<u64> = list.iter().collect();
    items.sort_unstable();
    let expected: Vec<u64> = (0..threads * per_thread).collect();
    assert_eq!(items, expected, "no insert may be lost (Fig. 2 hazard)");
    list.check_structure(0).unwrap();
}

#[test]
fn concurrent_adjacent_deletes_do_not_undo_each_other() {
    // The Fig. 3 hazard: concurrent deletion of adjacent cells resurrecting
    // one of them. Threads repeatedly delete the first item; every item
    // must be deleted exactly once, and nothing may reappear.
    for _ in 0..20 {
        let n = 64u64;
        let mut list: List<u64> = (0..n).collect();
        let deleted = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let list = &list;
            let deleted = &deleted;
            let done = &done;
            for _ in 0..4 {
                s.spawn(move || {
                    let mut cur = list.cursor();
                    loop {
                        cur.seek_first();
                        if cur.is_at_end() {
                            break;
                        }
                        if cur.try_delete() {
                            deleted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done.store(true, Ordering::Release);
                });
            }
            // Live checker: the instantaneous §3/§5 invariants must hold
            // at every sampled moment of the delete storm.
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    list.check_invariants().expect("invariants mid-deletes");
                }
            });
        });
        assert_eq!(
            deleted.load(Ordering::Relaxed),
            n,
            "every item deleted exactly once (Fig. 3 hazard)"
        );
        assert!(list.is_empty());
        list.check_structure(0).unwrap();
    }
}

#[test]
fn interleaved_insert_delete_churn_is_conserved() {
    // Mixed workload: inserters append values, deleters remove from the
    // front. inserted == deleted + remaining at the end.
    let mut list: List<u64> = List::new();
    let inserted = AtomicU64::new(0);
    let deleted = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let rounds = 2_000u64;
    std::thread::scope(|s| {
        let list = &list;
        let inserted = &inserted;
        let deleted = &deleted;
        let done = &done;
        for t in 0..3u64 {
            s.spawn(move || {
                let mut cur = list.cursor();
                for i in 0..rounds {
                    cur.insert(t * rounds + i).unwrap();
                    inserted.fetch_add(1, Ordering::Relaxed);
                    cur.update();
                }
                done.store(true, Ordering::Release);
            });
        }
        for _ in 0..2 {
            s.spawn(move || {
                let mut cur = list.cursor();
                for _ in 0..rounds {
                    cur.seek_first();
                    if !cur.is_at_end() && cur.try_delete() {
                        deleted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Live checker: sample the instantaneous §3/§5 invariants while
        // the insert/delete churn is in full flight.
        s.spawn(move || {
            while !done.load(Ordering::Acquire) {
                list.check_invariants().expect("invariants mid-churn");
            }
        });
    });
    let remaining = list.len() as u64;
    assert_eq!(
        inserted.load(Ordering::Relaxed),
        deleted.load(Ordering::Relaxed) + remaining,
        "conservation: inserted = deleted + remaining"
    );
    list.check_structure(0).unwrap();
}

#[test]
fn aux_chain_theorem_holds_at_quiescence() {
    // §3 theorem: chains of ≥2 auxiliary nodes exist only while a TryDelete
    // is in progress. After all threads join, no chains may remain.
    for _ in 0..10 {
        let mut list: List<u64> = (0..128).collect();
        std::thread::scope(|s| {
            let list = &list;
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut cur = list.cursor();
                    // Delete every item we can reach with parity t%2 to
                    // force adjacent concurrent deletions.
                    loop {
                        let mut deleted_any = false;
                        cur.seek_first();
                        loop {
                            let at = cur.get().copied();
                            match at {
                                Some(v) if v % 4 == t => {
                                    if cur.try_delete() {
                                        deleted_any = true;
                                    }
                                    cur.update();
                                }
                                Some(_) => {
                                    if !cur.next() {
                                        break;
                                    }
                                }
                                None => break,
                            }
                        }
                        if !deleted_any {
                            break;
                        }
                    }
                });
            }
        });
        assert!(list.is_empty(), "all items parity-deleted");
        let report = list.aux_chain_report();
        assert_eq!(
            report.runs_ge2, 0,
            "no auxiliary chains after deletions complete (§3 theorem)"
        );
        assert_eq!(report.aux, 1, "empty list has exactly one auxiliary node");
        list.check_structure(0).unwrap();
    }
}

#[test]
fn reference_counts_are_exact_after_churn() {
    // After a heavy mixed run with all cursors dropped, every remaining
    // node is either a live list node or free; quiescent_collect must find
    // little-or-no cycle garbage, and dropping the list must reclaim
    // every node (checked via live_nodes()==0 on a fresh re-check).
    let mut list: List<u64> = List::with_config(ArenaConfig::new().initial_capacity(4096));
    std::thread::scope(|s| {
        let list = &list;
        for t in 0..thread_count() as u64 {
            s.spawn(move || {
                let mut cur = list.cursor();
                for i in 0..2_000u64 {
                    match i % 3 {
                        0 | 1 => {
                            cur.insert(t * 10_000 + i).unwrap();
                            cur.update();
                        }
                        _ => {
                            cur.seek_first();
                            if !cur.is_at_end() {
                                cur.try_delete();
                            }
                        }
                    }
                }
            });
        }
    });
    let live_items = list.len() as u64;
    let collected = list.quiescent_collect();
    // Live nodes = dummies(2) + one aux per item + cells + trailing aux
    // structure; exactly: 3 + 2*items after collection.
    assert_eq!(
        list.mem_stats().live_nodes(),
        3 + 2 * live_items,
        "after cycle collection ({collected} collected), live nodes must \
         be exactly the reachable structure"
    );
    list.check_structure(0).unwrap();
    list.audit_refcounts()
        .expect("every node's count equals its in-degree after churn");
}

#[test]
fn nodes_return_to_free_list_with_exact_counts() {
    // The leak test for the batching layers: after mixed
    // insert/delete/traverse stress, deleting everything and flushing the
    // per-thread magazines must return EVERY node to the free structure
    // with a count of exactly 1 — the free list's single incoming-link
    // count. A node parked forever in a magazine, an undrained deferred
    // release, or a leaked/double count all fail the audit.
    let mut list: List<u64> = List::with_config(ArenaConfig::new().initial_capacity(512));
    std::thread::scope(|s| {
        let list = &list;
        for t in 0..thread_count() as u64 {
            s.spawn(move || {
                let mut cur = list.cursor();
                for i in 0..1_500u64 {
                    match i % 4 {
                        0 | 1 => {
                            cur.insert(t * 10_000 + i).unwrap();
                            cur.update();
                        }
                        2 => {
                            // Traverse a stretch (exercises the deferred
                            // hop-release path).
                            let mut hops = 0;
                            while cur.next() && hops < 32 {
                                hops += 1;
                            }
                            cur.seek_first();
                        }
                        _ => {
                            if !cur.is_at_end() {
                                cur.try_delete();
                            }
                            cur.update();
                        }
                    }
                }
                // Cursor drop drains its deferred buffer and flushes its
                // tallies.
            });
        }
    });
    // Drain the structure completely, then collect back-link cycle garbage.
    list.retain(|_| false);
    assert_eq!(list.len(), 0);
    list.quiescent_collect();
    assert_eq!(
        list.mem_stats().live_nodes(),
        3,
        "only the empty skeleton (2 dummies + 1 aux) stays checked out"
    );
    list.check_structure(0).unwrap();
    list.check_invariants_now().unwrap();
    list.audit_refcounts().expect(
        "every free node must carry exactly its free-structure \
         incoming-link count",
    );
}

#[test]
fn concurrent_readers_never_see_torn_values() {
    // Values are (x, !x) pairs; any torn read or use-after-free would break
    // the invariant.
    let list: List<(u64, u64)> = List::new();
    let stop = AtomicU64::new(0);
    std::thread::scope(|s| {
        let list = &list;
        let stop = &stop;
        for t in 0..2u64 {
            s.spawn(move || {
                let mut cur = list.cursor();
                for i in 0..3_000u64 {
                    let v = t * 3_000 + i;
                    cur.insert((v, !v)).unwrap();
                    cur.update();
                    // Keep the list small: delete from the front.
                    if i % 2 == 0 {
                        cur.seek_first();
                        if !cur.is_at_end() {
                            cur.try_delete();
                        }
                    }
                }
                stop.fetch_add(1, Ordering::Release);
            });
        }
        for _ in 0..3 {
            s.spawn(move || {
                while stop.load(Ordering::Acquire) < 2 {
                    list.for_each(|&(a, b)| {
                        assert_eq!(b, !a, "torn or dangling value observed");
                    });
                }
            });
        }
    });
}

#[test]
fn many_cursors_on_same_position() {
    // All cursors are clones targeting the same cell (created before any
    // thread runs); exactly one try_delete may win.
    for _ in 0..50 {
        let list: List<u64> = (0..4).collect();
        let wins = AtomicU64::new(0);
        let shared = list.cursor();
        let cursors: Vec<_> = (0..6).map(|_| shared.clone()).collect();
        drop(shared);
        std::thread::scope(|s| {
            let wins = &wins;
            for mut cur in cursors {
                s.spawn(move || {
                    if cur.try_delete() {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1, "exactly one deleter wins");
        assert_eq!(list.len(), 3);
    }
}

#[test]
fn capped_pool_under_concurrency_never_over_allocates() {
    let list: List<u64> = List::with_config(ArenaConfig::new().initial_capacity(64).max_nodes(64));
    std::thread::scope(|s| {
        let list = &list;
        for _ in 0..4 {
            s.spawn(move || {
                let mut cur = list.cursor();
                for i in 0..1_000u64 {
                    if cur.insert(i).is_ok() {
                        cur.update();
                    }
                    cur.seek_first();
                    if !cur.is_at_end() {
                        cur.try_delete();
                    }
                }
            });
        }
    });
    assert_eq!(list.node_capacity(), 64, "capped pool must not grow");
}

#[test]
fn drop_with_leftover_items_reclaims_everything() {
    use std::sync::atomic::AtomicUsize;
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Probe;
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }
    let total = Arc::new(AtomicUsize::new(0));
    {
        let list: List<Probe> = List::new();
        std::thread::scope(|s| {
            let list = &list;
            for _ in 0..4 {
                let total = Arc::clone(&total);
                s.spawn(move || {
                    let mut cur = list.cursor();
                    for i in 0..500 {
                        cur.insert(Probe).unwrap();
                        total.fetch_add(1, Ordering::Relaxed);
                        cur.update();
                        if i % 3 == 0 {
                            cur.seek_first();
                            if cur.try_delete() {
                                // deletion drops when the cell is reclaimed
                            }
                        }
                    }
                });
            }
        });
    }
    assert_eq!(
        DROPS.load(Ordering::Relaxed),
        total.load(Ordering::Relaxed),
        "every value dropped exactly once after list drop"
    );
}
