//! The lock-free FIFO queue from the paper's companion work
//! (Valois, *"Implementing Lock-Free Queues"*, PDCS 1994 — reference
//! \[27\]; §2 of the PODC paper frames the queue as the most-studied
//! lock-free type).
//!
//! The queue is a singly-linked chain with a *dummy head*: `head` points at
//! the dummy, the first value lives in the dummy's successor, and `tail` is
//! a **hint** that may lag behind the true last node. Enqueue CASes the
//! last node's `next` from null to the new cell, then opportunistically
//! swings the tail hint; dequeue CASes `head` forward, and the winner
//! uniquely consumes the value of the node that just became the new dummy.
//!
//! The §5 memory manager is what makes the design work — the same property
//! the list exploits: a dequeued dummy keeps its `next` intact (*cell
//! persistence*), so a stale tail hint can always walk forward to the true
//! tail, and reference counting prevents the classic ABA on the head CAS.

use std::fmt;

use valois_mem::{AllocError, Arena, ArenaConfig, Link, MemStats};

use crate::node::{Node, NodeKind};

/// A lock-free multi-producer multi-consumer FIFO queue (\[27\]).
///
/// # Example
///
/// ```
/// use valois_core::queue::FifoQueue;
///
/// let q: FifoQueue<u32> = FifoQueue::new();
/// q.enqueue(1).unwrap();
/// q.enqueue(2).unwrap();
/// assert_eq!(q.dequeue(), Some(1));
/// assert_eq!(q.dequeue(), Some(2));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct FifoQueue<T: Send + Sync> {
    arena: Arena<Node<T>>,
    /// Counted root: the current dummy node.
    head: Link<Node<T>>,
    /// Counted root: a node from which the true last node is reachable
    /// (may lag).
    tail: Link<Node<T>>,
}

// SAFETY: all shared state flows through the arena protocol and the two
// counted roots.
unsafe impl<T: Send + Sync> Send for FifoQueue<T> {}
// SAFETY: as above — the roots arbitrate all shared mutation via CAS.
unsafe impl<T: Send + Sync> Sync for FifoQueue<T> {}

impl<T: Send + Sync> FifoQueue<T> {
    /// Creates an empty queue with the default arena configuration.
    pub fn new() -> Self {
        Self::with_config(ArenaConfig::default())
    }

    /// Creates an empty queue with `config`.
    pub fn with_config(config: ArenaConfig) -> Self {
        let config = ArenaConfig {
            initial_capacity: config.initial_capacity.max(8),
            ..config
        };
        let arena: Arena<Node<T>> = Arena::with_config(config);
        let dummy = arena.alloc().expect("pool too small for a queue");
        let queue = Self {
            arena,
            head: Link::null(),
            tail: Link::null(),
        };
        // SAFETY: single-threaded construction, fresh exclusive node.
        unsafe {
            (*dummy).set_kind(NodeKind::FirstDummy);
            queue.arena.store_link(&queue.head, dummy);
            queue.arena.store_link(&queue.tail, dummy);
            queue.arena.release(dummy);
        }
        queue
    }

    /// Appends `value` at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when a capped node pool is exhausted (the
    /// value is returned inside the error path by dropping it — use an
    /// uncapped arena to avoid this).
    pub fn enqueue(&self, value: T) -> Result<(), AllocError> {
        let q = self.arena.alloc()?;
        // SAFETY: protocol invariants: every dereferenced pointer below is
        // counted; head/tail are counted roots of this arena.
        unsafe {
            (*q).init_value(value);
            let mut t = self.arena.safe_read(&self.tail);
            // WAIT-FREE: the append CAS fails only when another enqueuer
            // linked its node first (system-wide progress); the re-walk
            // resumes from the current position, not from the head.
            loop {
                // Walk to the true last node (the tail hint may lag; a
                // dequeued dummy's next persists, so the walk always
                // reaches the live chain).
                loop {
                    let next = self.arena.safe_read((*t).next(0));
                    if next.is_null() {
                        break;
                    }
                    self.arena.release(t);
                    t = next;
                }
                // The linearization point: CAS the last node's next.
                if self.arena.swing((*t).next(0), std::ptr::null_mut(), q) {
                    break;
                }
                // Someone else appended first; re-walk from where we are.
            }
            // Fix the tail hint: swing it from whatever it currently holds
            // to our freshly-linked node (best effort — a failed CAS means
            // another enqueuer advanced it). Without this the hint would
            // stick forever once it lagged, every enqueue would walk the
            // whole dequeued backlog, and the hint's counted reference
            // would keep that backlog alive.
            let hint = self.arena.safe_read(&self.tail);
            if hint != q {
                let _ = self.arena.swing(&self.tail, hint, q);
            }
            self.arena.release(hint);
            self.arena.release(t);
            self.arena.release(q);
        }
        Ok(())
    }

    /// Removes and returns the oldest value, or `None` if the queue is
    /// empty at the linearization point.
    pub fn dequeue(&self) -> Option<T> {
        // SAFETY: protocol invariants as in `enqueue`.
        unsafe {
            // WAIT-FREE: the head CAS fails only when another dequeuer won
            // (system-wide progress); each retry re-reads a fresh head.
            loop {
                let h = self.arena.safe_read(&self.head);
                let next = self.arena.safe_read((*h).next(0));
                if next.is_null() {
                    self.arena.release(h);
                    return None; // empty (head is the dummy)
                }
                // The linearization point: advance head. The winner gains
                // unique consume rights over `next`'s value (it becomes
                // the new dummy).
                if self.arena.swing(&self.head, h, next) {
                    let value = (*next).take_value();
                    self.arena.release(h);
                    self.arena.release(next);
                    return Some(value);
                }
                self.arena.release(h);
                self.arena.release(next);
            }
        }
    }

    /// Whether the queue appears empty right now.
    pub fn is_empty(&self) -> bool {
        // SAFETY: head is a counted root; h is held during the read.
        unsafe {
            let h = self.arena.safe_read(&self.head);
            let empty = (*h).next(0).read().is_null();
            self.arena.release(h);
            empty
        }
    }

    /// Number of queued values (O(n) snapshot).
    pub fn len(&self) -> usize {
        let mut n = 0;
        // SAFETY: protected walk over counted links.
        unsafe {
            let mut p = self.arena.safe_read(&self.head);
            loop {
                let next = self.arena.safe_read((*p).next(0));
                self.arena.release(p);
                if next.is_null() {
                    break;
                }
                p = next;
                if (*p).kind() == NodeKind::Cell {
                    n += 1;
                }
            }
        }
        n
    }

    /// Memory-protocol counters (§5 traffic).
    pub fn mem_stats(&self) -> MemStats {
        self.arena.stats()
    }

    /// Exact link-count audit over the `head` and `tail` roots (testing
    /// hook; see [`Arena::audit_counts`]).
    ///
    /// # Errors
    ///
    /// Describes the first node whose count drifted.
    pub fn audit_refcounts(&mut self) -> Result<(), String> {
        let roots = [self.head.read(), self.tail.read()];
        self.arena.audit_counts(&roots)
    }
}

impl<T: Send + Sync> Default for FifoQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync> Drop for FifoQueue<T> {
    fn drop(&mut self) {
        // SAFETY: &mut self — quiescent; release the roots and cascade.
        unsafe {
            let h = self.head.swap(std::ptr::null_mut());
            let t = self.tail.swap(std::ptr::null_mut());
            self.arena.release(h);
            self.arena.release(t);
        }
        debug_assert_eq!(self.arena.live_nodes(), 0, "queue chain is acyclic");
    }
}

impl<T: Send + Sync> fmt::Debug for FifoQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FifoQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valois_sync::shim::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_order_single_thread() {
        let q: FifoQueue<u32> = FifoQueue::new();
        assert!(q.is_empty());
        for i in 0..100 {
            q.enqueue(i).unwrap();
        }
        assert_eq!(q.len(), 100);
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let q: FifoQueue<u32> = FifoQueue::new();
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3).unwrap();
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
        q.enqueue(4).unwrap();
        assert_eq!(q.dequeue(), Some(4));
    }

    #[test]
    fn nodes_recycle_through_small_pool() {
        let q: FifoQueue<u32> =
            FifoQueue::with_config(ArenaConfig::new().initial_capacity(8).max_nodes(8));
        for round in 0..200 {
            q.enqueue(round).unwrap();
            assert_eq!(q.dequeue(), Some(round));
        }
        assert_eq!(q.mem_stats().allocs, 201); // dummy + 200 cells
    }

    #[test]
    fn single_producer_order_preserved_under_concurrent_consumers() {
        let q: FifoQueue<u64> = FifoQueue::new();
        let consumed = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let q = &q;
            let consumed = &consumed;
            s.spawn(move || {
                for i in 0..10_000u64 {
                    q.enqueue(i).unwrap();
                }
            });
            for _ in 0..3 {
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut misses = 0;
                    while misses < 10_000 {
                        match q.dequeue() {
                            Some(v) => {
                                misses = 0;
                                local.push(v);
                            }
                            None => {
                                misses += 1;
                                std::thread::yield_now();
                            }
                        }
                        if local.len() + consumed.lock().unwrap().len() >= 10_000 {
                            break;
                        }
                    }
                    consumed.lock().unwrap().extend(local);
                });
            }
        });
        // Drain leftovers.
        let mut all = consumed.into_inner().unwrap();
        while let Some(v) = q.dequeue() {
            all.push(v);
        }
        assert_eq!(all.len(), 10_000, "every value dequeued exactly once");
        all.sort_unstable();
        assert_eq!(all, (0..10_000).collect::<Vec<u64>>());
    }

    #[test]
    fn mpmc_conservation_and_exactly_once() {
        let mut q: FifoQueue<u64> = FifoQueue::new();
        let dequeued_sum = AtomicU64::new(0);
        let dequeued_n = AtomicU64::new(0);
        let producers = 4u64;
        let per = 5_000u64;
        std::thread::scope(|s| {
            let q = &q;
            let dequeued_sum = &dequeued_sum;
            let dequeued_n = &dequeued_n;
            for p in 0..producers {
                s.spawn(move || {
                    for i in 0..per {
                        q.enqueue(p * per + i).unwrap();
                    }
                });
            }
            for _ in 0..3 {
                s.spawn(move || loop {
                    match q.dequeue() {
                        Some(v) => {
                            dequeued_sum.fetch_add(v, Ordering::Relaxed);
                            dequeued_n.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if dequeued_n.load(Ordering::Relaxed) >= producers * per {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        while let Some(v) = q.dequeue() {
            dequeued_sum.fetch_add(v, Ordering::Relaxed);
            dequeued_n.fetch_add(1, Ordering::Relaxed);
        }
        let n = producers * per;
        assert_eq!(dequeued_n.load(Ordering::Relaxed), n);
        assert_eq!(dequeued_sum.load(Ordering::Relaxed), n * (n - 1) / 2);
        q.audit_refcounts().unwrap();
    }

    #[test]
    fn per_producer_subsequence_order() {
        // FIFO linearizability implies each producer's values come out in
        // its insertion order.
        let q: FifoQueue<(u8, u32)> = FifoQueue::new();
        let drained = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let q = &q;
            for p in 0..4u8 {
                s.spawn(move || {
                    for i in 0..2_000u32 {
                        q.enqueue((p, i)).unwrap();
                    }
                });
            }
            let drained = &drained;
            s.spawn(move || {
                let mut got = 0;
                let mut local = Vec::new();
                while got < 8_000 {
                    if let Some(v) = q.dequeue() {
                        got += 1;
                        local.push(v);
                    } else {
                        std::thread::yield_now();
                    }
                }
                drained.lock().unwrap().extend(local);
            });
        });
        let all = drained.into_inner().unwrap();
        assert_eq!(all.len(), 8_000);
        let mut last = [None::<u32>; 4];
        for (p, i) in all {
            if let Some(prev) = last[p as usize] {
                assert!(i > prev, "producer {p} order violated: {i} after {prev}");
            }
            last[p as usize] = Some(i);
        }
    }

    #[test]
    fn drop_with_queued_values_releases_them() {
        use valois_sync::shim::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let q: FifoQueue<Probe> = FifoQueue::new();
            for _ in 0..10 {
                q.enqueue(Probe).unwrap();
            }
            drop(q.dequeue()); // one consumed
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 10, "9 queued + 1 consumed");
    }

    #[test]
    fn tail_hint_recovers_after_lag() {
        // Force tail lag: enqueue from many threads (hint CAS failures
        // leave the hint behind) and verify the walk always recovers.
        let q: FifoQueue<u64> = FifoQueue::new();
        std::thread::scope(|s| {
            let q = &q;
            for t in 0..6u64 {
                s.spawn(move || {
                    for i in 0..2_000 {
                        q.enqueue(t * 10_000 + i).unwrap();
                    }
                });
            }
        });
        assert_eq!(q.len(), 12_000);
        let mut n = 0;
        while q.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 12_000);
    }
}
