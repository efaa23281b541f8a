//! Single-threaded and small-contention micro-costs, one printed line per
//! row (nothing is written to disk):
//!
//! * the §3 list primitives: a 100-node cursor walk (the 1k/10k walks,
//!   protected and raw, are `traversal_hops`' `sizes` rows), TryInsert,
//!   TryDelete and the Update fast path;
//! * find-hit, find-miss and an insert+remove cycle on every §4
//!   dictionary and the lock-based baselines (the constant-factor side of
//!   E1/E5/E6);
//! * §5.2 `Alloc`/`Reclaim` (Figs. 17–18) against the system allocator,
//!   single-threaded and contended;
//! * the §1 spin locks, uncontended and contended, and the §2.1
//!   exponential-backoff ablation;
//! * the \[27\] FIFO queue, the stack and the priority queue against
//!   mutex-guarded std collections;
//! * the cost of a relaxed statistics counter next to a CAS.
//!
//! `--smoke` (CI): one iteration per row.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use valois_baseline::{LockedBstDict, LockedListDict, MutexListDict};
use valois_bench::report::{black_box, time, time_with_setup};
use valois_core::adt::{PriorityQueue, Stack};
use valois_core::queue::FifoQueue;
use valois_core::List;
use valois_dict::{BstDict, Dictionary, HashDict, SkipListDict, SortedListDict};
use valois_mem::ArenaConfig;
use valois_sync::{Backoff, LockKind};

fn list_rows() {
    let list: List<u64> = (0..100).collect();
    time("list_traversal/cursor_walk/100", || {
        let mut sum = 0u64;
        list.for_each(|v| sum += *v);
        sum
    });
    time_with_setup("list_insert_front", List::<u64>::new, |list| {
        {
            let mut cur = list.cursor();
            for i in 0..100 {
                cur.insert(i).unwrap();
            }
        }
        list
    });
    time_with_setup(
        "list_delete_front_100",
        || (0..100u64).collect::<List<u64>>(),
        |list| {
            {
                let mut cur = list.cursor();
                while !cur.is_at_end() {
                    cur.try_delete();
                    cur.update();
                }
            }
            list
        },
    );
    let list: List<u64> = (0..64).collect();
    let mut cur = list.cursor();
    time("cursor_update_when_valid", || {
        cur.update();
        cur.is_valid()
    });
}

const PREFILL: u64 = 1_024;

/// Find-hit, insert+remove and find-miss on `d` prefilled with the even
/// keys below `2 * PREFILL`.
fn dict_rows<D: Dictionary<u64, u64>>(name: &str, d: D) {
    // Coprime stride = pseudo-shuffled insertion order: an ascending
    // prefill would degenerate the BST into a spine and skew its numbers.
    for i in 0..PREFILL {
        let k = (i * 389) % PREFILL;
        d.insert(k * 2, k);
    }
    let mut k = 0u64;
    time(&format!("dict_find_hit/{name}"), || {
        k = (k + 2) % (PREFILL * 2);
        d.find(&k)
    });
    time(&format!("dict_insert_remove_cycle/{name}"), || {
        k = (k + 2) % (PREFILL * 2);
        let key = k | 1; // odd keys: never in the prefill
        black_box(d.insert(key, key));
        d.remove(&key)
    });
    time(&format!("dict_find_miss/{name}"), || {
        k = (k + 2) % (PREFILL * 2);
        d.find(&(k | 1))
    });
}

fn freelist_rows() {
    // The list's insert+delete cycle = 2 allocs + 2 reclaims + link work.
    let list: List<u64> = List::with_config(ArenaConfig::new().initial_capacity(64));
    let mut cur = list.cursor();
    time("freelist/list_insert_delete_cycle", || {
        cur.seek_first();
        cur.insert(7).unwrap();
        cur.update();
        cur.try_delete()
    });
    // System allocator reference: Box a node-sized payload.
    time("freelist/box_alloc_free_pair", || {
        (Box::new([0u8; 64]), Box::new([0u8; 64]))
    });
    // 4 threads hammering one free list: the lock-free pop/push path.
    time("freelist_contended/4_threads_x_10k_cycles", || {
        let list: List<u64> = List::with_config(ArenaConfig::new().initial_capacity(256));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut cur = list.cursor();
                    for i in 0..10_000u64 {
                        cur.seek_first();
                        cur.insert(i).unwrap();
                        cur.update();
                        cur.try_delete();
                    }
                });
            }
        });
        list
    });
}

/// Per-thread iterations for contended runs. FIFO locks (ticket/CLH/
/// Anderson) hand off to a specific waiter, which on a host with fewer
/// cores than threads costs a scheduler round per acquisition — keep the
/// counts small there so the rows stay tractable.
fn contended_iters() -> u64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        5_000
    } else {
        200
    }
}

fn lock_rows() {
    for kind in LockKind::ALL {
        let lock = kind.build();
        time(&format!("lock_uncontended/{}", kind.name()), || {
            lock.acquire();
            lock.release();
        });
    }
    let iters = contended_iters();
    for kind in LockKind::ALL {
        let label = format!("lock_contended_4t/{}", kind.name());
        time(&label, || {
            let lock = kind.build();
            let counter = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..iters {
                            lock.acquire();
                            counter.fetch_add(1, Ordering::Relaxed);
                            lock.release();
                        }
                    });
                }
            });
            counter.load(Ordering::Relaxed)
        });
    }
    // CAS retry loops with and without §2.1 exponential backoff, 4 threads
    // incrementing one word.
    let run = |use_backoff: bool| {
        let word = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut backoff = Backoff::new();
                    for _ in 0..iters * 2 {
                        loop {
                            let v = word.load(Ordering::Acquire);
                            if word
                                .compare_exchange_weak(
                                    v,
                                    v + 1,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok()
                            {
                                break;
                            }
                            if use_backoff {
                                backoff.spin();
                            }
                        }
                        backoff.reset();
                    }
                });
            }
        });
        word.load(Ordering::Relaxed)
    };
    time("cas_backoff_ablation/no_backoff", || run(false));
    time("cas_backoff_ablation/exponential_backoff", || run(true));
}

fn adt_rows() {
    let q: FifoQueue<u64> = FifoQueue::new();
    time("fifo_queue_enq_deq/lockfree", || {
        q.enqueue(7).unwrap();
        q.dequeue()
    });
    let m: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
    time("fifo_queue_enq_deq/mutex_vecdeque", || {
        m.lock().unwrap().push_back(7);
        m.lock().unwrap().pop_front()
    });
    time("fifo_queue_contended_4t/lockfree", || {
        let q: FifoQueue<u64> = FifoQueue::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for i in 0..5_000u64 {
                        q.enqueue(i).unwrap();
                    }
                });
                s.spawn(|| {
                    for _ in 0..5_000 {
                        while q.dequeue().is_none() {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        q.len()
    });

    let s: Stack<u64> = Stack::new();
    time("stack_push_pop/lockfree", || {
        s.push(7).unwrap();
        s.pop()
    });
    let m: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    time("stack_push_pop/mutex_vec", || {
        m.lock().unwrap().push(7);
        m.lock().unwrap().pop()
    });

    let q: PriorityQueue<u64> = PriorityQueue::new();
    for i in 0..64 {
        q.insert(i * 2).unwrap();
    }
    let mut k = 0u64;
    time("priority_queue_64/lockfree_sorted_list", || {
        k = (k + 17) % 128;
        q.insert(k | 1).unwrap();
        q.pop_min()
    });
    let heap: Mutex<BinaryHeap<std::cmp::Reverse<u64>>> =
        Mutex::new((0..64).map(|i| std::cmp::Reverse(i * 2)).collect());
    time("priority_queue_64/mutex_binaryheap", || {
        k = (k + 17) % 128;
        heap.lock().unwrap().push(std::cmp::Reverse(k | 1));
        heap.lock().unwrap().pop()
    });
}

/// The statistics counters are relaxed increments; this shows they are
/// noise next to a CAS.
fn stats_rows() {
    let word = AtomicU64::new(0);
    let counter = AtomicU64::new(0);
    let cas = || {
        let v = word.load(Ordering::Acquire);
        word.compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Acquire)
    };
    time("stats_overhead/cas_alone", cas);
    time("stats_overhead/cas_plus_relaxed_counter", || {
        let swapped = cas();
        counter.fetch_add(1, Ordering::Relaxed);
        swapped
    });
}

fn main() {
    list_rows();
    dict_rows("sorted_list", SortedListDict::<u64, u64>::new());
    dict_rows("hash_256", HashDict::<u64, u64>::with_buckets(256));
    dict_rows("skiplist", SkipListDict::<u64, u64>::new());
    dict_rows("bst", BstDict::<u64, u64>::new());
    dict_rows("locked_list", LockedListDict::<u64, u64>::new());
    dict_rows("mutex_list", MutexListDict::<u64, u64>::new());
    dict_rows("locked_btree", LockedBstDict::<u64, u64>::new());
    freelist_rows();
    lock_rows();
    adt_rows();
    stats_rows();
}
