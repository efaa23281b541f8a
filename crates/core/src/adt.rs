//! Building-block ADTs over the list (paper §1: "a linked list is also
//! useful as a building block for other concurrent objects").
//!
//! Two classic objects fall out of the §3 operations directly:
//!
//! * [`Stack`] — LIFO at the list head (push = insert at first position,
//!   pop = delete first). The §5.2 free list is itself this shape.
//! * [`PriorityQueue`] — the sorted-list priority queue the paper's §2.1
//!   cites (Huang & Weihl \[15\]): ordered insertion, delete-min at the
//!   head. Duplicate priorities are allowed (unlike the §4 dictionary).
//!
//! Both inherit the list's non-blocking guarantee: a stalled thread cannot
//! prevent pushes or pops by others.

use std::fmt;

use valois_mem::AllocError;

use crate::list::List;

/// A lock-free LIFO stack over the §3 list.
///
/// # Example
///
/// ```
/// use valois_core::adt::Stack;
///
/// let s: Stack<u32> = Stack::new();
/// s.push(1).unwrap();
/// s.push(2).unwrap();
/// assert_eq!(s.pop(), Some(2));
/// assert_eq!(s.pop(), Some(1));
/// assert_eq!(s.pop(), None);
/// ```
pub struct Stack<T: Send + Sync + Clone> {
    list: List<T>,
}

impl<T: Send + Sync + Clone> Stack<T> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self { list: List::new() }
    }

    /// Pushes a value.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when a capped node pool is exhausted.
    pub fn push(&self, value: T) -> Result<(), AllocError> {
        self.list.push_front(value)
    }

    /// Pops the most recently pushed value still present.
    pub fn pop(&self) -> Option<T> {
        let mut cursor = self.list.cursor();
        loop {
            if cursor.is_at_end() {
                return None;
            }
            // Read first (cells are immutable; persistence makes the read
            // stable), then claim the cell with the deletion CAS.
            let value = cursor.get().cloned();
            if cursor.try_delete() {
                return value;
            }
            // Lost a race; revalidate and retry on the new first item.
            cursor.update();
        }
    }

    /// Reads the current top without removing it.
    pub fn peek(&self) -> Option<T> {
        self.list.cursor().get().cloned()
    }

    /// Whether the stack is empty right now.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Number of items (O(n) snapshot).
    pub fn len(&self) -> usize {
        self.list.len()
    }
}

impl<T: Send + Sync + Clone> Default for Stack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync + Clone + fmt::Debug> fmt::Debug for Stack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack").field("len", &self.len()).finish()
    }
}

/// A lock-free priority queue over the sorted §3 list (smallest first).
///
/// Duplicate priorities are permitted; ties pop in insertion-race order.
///
/// # Example
///
/// ```
/// use valois_core::adt::PriorityQueue;
///
/// let q: PriorityQueue<u32> = PriorityQueue::new();
/// q.insert(5).unwrap();
/// q.insert(1).unwrap();
/// q.insert(3).unwrap();
/// assert_eq!(q.pop_min(), Some(1));
/// assert_eq!(q.pop_min(), Some(3));
/// assert_eq!(q.pop_min(), Some(5));
/// ```
pub struct PriorityQueue<T: Ord + Send + Sync + Clone> {
    list: List<T>,
}

impl<T: Ord + Send + Sync + Clone> PriorityQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self { list: List::new() }
    }

    /// Inserts a value at its priority position.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when a capped node pool is exhausted.
    pub fn insert(&self, value: T) -> Result<(), AllocError> {
        let mut cursor = self.list.cursor();
        let mut prepared = self.list.prepare_insert(value)?;
        loop {
            // Position before the first item >= value (keeps the list
            // sorted; FindFrom's positioning contract, Fig. 11). Equal
            // items are allowed, so the hit flag is irrelevant.
            let value = prepared.value();
            let _ = cursor.find_from(|existing| existing.cmp(value));
            match cursor.try_insert(prepared) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    prepared = back;
                    cursor.update();
                }
            }
        }
    }

    /// Removes and returns the smallest value.
    pub fn pop_min(&self) -> Option<T> {
        let mut cursor = self.list.cursor();
        loop {
            if cursor.is_at_end() {
                return None;
            }
            let value = cursor.get().cloned();
            if cursor.try_delete() {
                return value;
            }
            cursor.update();
        }
    }

    /// Reads the smallest value without removing it.
    pub fn peek_min(&self) -> Option<T> {
        self.list.cursor().get().cloned()
    }

    /// Whether the queue is empty right now.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Number of items (O(n) snapshot).
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// All items in priority order (snapshot).
    pub fn to_sorted_vec(&self) -> Vec<T> {
        self.list.iter().collect()
    }
}

impl<T: Ord + Send + Sync + Clone> Default for PriorityQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send + Sync + Clone + fmt::Debug> fmt::Debug for PriorityQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PriorityQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valois_sync::shim::atomic::{AtomicU64, Ordering};

    #[test]
    fn stack_lifo_order() {
        let s: Stack<u32> = Stack::new();
        for i in 0..10 {
            s.push(i).unwrap();
        }
        for i in (0..10).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn stack_peek_does_not_remove() {
        let s: Stack<u32> = Stack::new();
        s.push(7).unwrap();
        assert_eq!(s.peek(), Some(7));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some(7));
    }

    #[test]
    fn stack_concurrent_conservation() {
        let s: Stack<u64> = Stack::new();
        let popped_sum = AtomicU64::new(0);
        let popped_n = AtomicU64::new(0);
        let pushed_sum = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let s = &s;
            let popped_sum = &popped_sum;
            let popped_n = &popped_n;
            let pushed_sum = &pushed_sum;
            for t in 0..3u64 {
                scope.spawn(move || {
                    for i in 0..2_000 {
                        let v = t * 10_000 + i;
                        s.push(v).unwrap();
                        pushed_sum.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(move || {
                    for _ in 0..2_000 {
                        if let Some(v) = s.pop() {
                            popped_sum.fetch_add(v, Ordering::Relaxed);
                            popped_n.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // Drain the rest.
        let mut rest_sum = 0u64;
        let mut rest_n = 0u64;
        while let Some(v) = s.pop() {
            rest_sum += v;
            rest_n += 1;
        }
        assert_eq!(popped_n.load(Ordering::Relaxed) + rest_n, 6_000);
        assert_eq!(
            popped_sum.load(Ordering::Relaxed) + rest_sum,
            pushed_sum.load(Ordering::Relaxed),
            "every pushed value popped exactly once"
        );
    }

    #[test]
    fn pqueue_orders_across_interleaved_inserts() {
        let q: PriorityQueue<i32> = PriorityQueue::new();
        for v in [5, -1, 3, 3, 0, 9, -7] {
            q.insert(v).unwrap();
        }
        assert_eq!(q.to_sorted_vec(), vec![-7, -1, 0, 3, 3, 5, 9]);
        assert_eq!(q.peek_min(), Some(-7));
        let mut drained = Vec::new();
        while let Some(v) = q.pop_min() {
            drained.push(v);
        }
        assert_eq!(drained, vec![-7, -1, 0, 3, 3, 5, 9]);
    }

    #[test]
    fn pqueue_duplicates_allowed() {
        let q: PriorityQueue<u32> = PriorityQueue::new();
        for _ in 0..5 {
            q.insert(1).unwrap();
        }
        assert_eq!(q.len(), 5);
        for _ in 0..5 {
            assert_eq!(q.pop_min(), Some(1));
        }
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn pqueue_concurrent_pop_min_is_exactly_once() {
        for _ in 0..20 {
            let q: PriorityQueue<u64> = PriorityQueue::new();
            for v in 0..64 {
                q.insert(v).unwrap();
            }
            let popped = std::sync::Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                let q = &q;
                let popped = &popped;
                for _ in 0..4 {
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        while let Some(v) = q.pop_min() {
                            local.push(v);
                        }
                        popped.lock().unwrap().extend(local);
                    });
                }
            });
            let mut all = popped.into_inner().unwrap();
            all.sort_unstable();
            assert_eq!(all, (0..64).collect::<Vec<u64>>(), "each value once");
        }
    }

    #[test]
    fn pqueue_concurrent_insert_stays_sorted() {
        let q: PriorityQueue<u64> = PriorityQueue::new();
        std::thread::scope(|scope| {
            let q = &q;
            for t in 0..4u64 {
                scope.spawn(move || {
                    let mut x = t * 2_654_435_761 + 1;
                    for _ in 0..500 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        q.insert(x % 1000).unwrap();
                    }
                });
            }
        });
        let v = q.to_sorted_vec();
        assert_eq!(v.len(), 2_000);
        assert!(v.windows(2).all(|w| w[0] <= w[1]), "sorted with duplicates");
    }
}
