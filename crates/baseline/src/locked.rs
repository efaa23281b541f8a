//! Mutual-exclusion baselines (§1's "conventional way"): the same sorted
//! singly-linked-list dictionary, protected by a lock.
//!
//! The point of experiment E2 is the paper's core motivation: "the delay
//! of a process while in a critical section (for example, due to a page
//! fault, multitasking preemption, memory access latency, etc.) forms a
//! bottleneck". Every lock-based dictionary here accepts a
//! [`CriticalDelay`] that stalls the caller *while holding the lock*,
//! simulating exactly that failure mode; the lock-free structures keep
//! making progress under the same injected stalls, the locked ones convoy.

use std::cell::{Cell, UnsafeCell};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::Mutex;
use std::time::Duration;

use valois_dict::{AllocError, Dictionary};
use valois_sync::{Lock, TtasLock};

/// Probabilistic stall injected inside critical sections (see module
/// docs). `probability` is per operation; the stall is a real
/// `thread::sleep`, modelling the thread being descheduled.
#[derive(Clone, Debug, Default)]
pub struct CriticalDelay {
    /// Chance (0.0–1.0) that an operation stalls.
    pub probability: f64,
    /// How long a stalled operation holds still.
    pub stall: Duration,
}

thread_local! {
    static DELAY_RNG: Cell<u64> = const { Cell::new(0) };
}

impl CriticalDelay {
    /// No injected delays.
    pub fn none() -> Self {
        Self::default()
    }

    /// Stall for `stall` with probability `probability` per operation.
    pub fn new(probability: f64, stall: Duration) -> Self {
        Self { probability, stall }
    }

    /// Rolls the dice; sleeps if the stall fires.
    pub fn maybe_stall(&self) {
        if self.probability <= 0.0 {
            return;
        }
        let roll = DELAY_RNG.with(|c| {
            let mut x = c.get();
            if x == 0 {
                // Seed from the thread's identity.
                let mut h = std::hash::DefaultHasher::new();
                std::thread::current().id().hash(&mut h);
                x = h.finish() | 1;
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.set(x);
            (x >> 11) as f64 / (1u64 << 53) as f64
        });
        if roll < self.probability {
            std::thread::sleep(self.stall);
        }
    }
}

/// A plain sequential sorted singly-linked list — the data structure the
/// paper's lock-based competitor protects. Box-based so its cache
/// behaviour matches the lock-free list's (pointer chasing), unlike an
/// array or B-tree.
pub struct SeqSortedList<K, V> {
    head: Option<Box<SeqNode<K, V>>>,
    len: usize,
}

struct SeqNode<K, V> {
    key: K,
    value: V,
    next: Option<Box<SeqNode<K, V>>>,
}

impl<K: Ord, V> SeqSortedList<K, V> {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self { head: None, len: 0 }
    }

    /// Inserts sorted; `false` if the key exists.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let mut cursor = &mut self.head;
        loop {
            match cursor {
                Some(node) if node.key < key => {
                    cursor = &mut cursor.as_mut().unwrap().next;
                }
                Some(node) if node.key == key => return false,
                _ => {
                    let next = cursor.take();
                    *cursor = Some(Box::new(SeqNode { key, value, next }));
                    self.len += 1;
                    return true;
                }
            }
        }
    }

    /// Removes by key; `false` if absent.
    pub fn remove(&mut self, key: &K) -> bool {
        let mut cursor = &mut self.head;
        loop {
            match cursor {
                Some(node) if node.key < *key => {
                    cursor = &mut cursor.as_mut().unwrap().next;
                }
                Some(node) if node.key == *key => {
                    let removed = cursor.take().unwrap();
                    *cursor = removed.next;
                    self.len -= 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// Looks up by key.
    pub fn find(&self, key: &K) -> Option<&V> {
        let mut cursor = &self.head;
        while let Some(node) = cursor {
            if node.key == *key {
                return Some(&node.value);
            }
            if node.key > *key {
                return None;
            }
            cursor = &node.next;
        }
        None
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K: Ord, V> Default for SeqSortedList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> fmt::Debug for SeqSortedList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqSortedList")
            .field("len", &self.len)
            .finish()
    }
}

impl<K, V> Drop for SeqSortedList<K, V> {
    fn drop(&mut self) {
        // Iterative teardown: the default recursive drop overflows the
        // stack on long lists.
        let mut cursor = self.head.take();
        while let Some(mut node) = cursor {
            cursor = node.next.take();
        }
    }
}

/// The sorted-list dictionary under a single spin lock (§1 baseline).
///
/// Generic over the lock algorithm; defaults to TTAS-with-backoff, the
/// strongest simple spin lock of the era the paper compares against.
pub struct LockedListDict<K, V, L: Lock = TtasLock> {
    lock: L,
    list: UnsafeCell<SeqSortedList<K, V>>,
    delay: CriticalDelay,
}

// SAFETY: `list` is only touched while `lock` is held.
unsafe impl<K: Send, V: Send, L: Lock> Send for LockedListDict<K, V, L> {}
// SAFETY: as above — the lock serializes every shared access.
unsafe impl<K: Send, V: Send, L: Lock> Sync for LockedListDict<K, V, L> {}

impl<K: Ord, V> LockedListDict<K, V, TtasLock> {
    /// Creates an empty TTAS-locked dictionary.
    pub fn new() -> Self {
        Self::with_lock(TtasLock::new())
    }
}

impl<K: Ord, V> Default for LockedListDict<K, V, TtasLock> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V, L: Lock> LockedListDict<K, V, L> {
    /// Creates an empty dictionary guarded by `lock`.
    pub fn with_lock(lock: L) -> Self {
        Self {
            lock,
            list: UnsafeCell::new(SeqSortedList::new()),
            delay: CriticalDelay::none(),
        }
    }

    /// Sets the critical-section stall injector (experiment E2).
    pub fn with_delay(mut self, delay: CriticalDelay) -> Self {
        self.delay = delay;
        self
    }

    fn locked<R>(&self, f: impl FnOnce(&mut SeqSortedList<K, V>) -> R) -> R {
        self.lock.acquire();
        // The injected stall happens while the lock is held — the paper's
        // §1 bottleneck scenario.
        self.delay.maybe_stall();
        // SAFETY: exclusive by mutual exclusion.
        let r = f(unsafe { &mut *self.list.get() });
        self.lock.release();
        r
    }
}

impl<K, V, L> Dictionary<K, V> for LockedListDict<K, V, L>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
    L: Lock,
{
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        Ok(self.locked(|l| l.insert(key, value)))
    }

    fn remove(&self, key: &K) -> bool {
        self.locked(|l| l.remove(key))
    }

    fn find(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.locked(|l| l.find(key).cloned())
    }

    fn contains(&self, key: &K) -> bool {
        self.locked(|l| l.find(key).is_some())
    }

    fn len(&self) -> usize {
        self.locked(|l| l.len())
    }
}

impl<K, V, L: Lock> fmt::Debug for LockedListDict<K, V, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LockedListDict { .. }")
    }
}

/// The sorted-list dictionary under a blocking [`std::sync::Mutex`]
/// (the OS-assisted alternative to spinning).
pub struct MutexListDict<K, V> {
    list: Mutex<SeqSortedList<K, V>>,
    delay: CriticalDelay,
}

impl<K: Ord, V> MutexListDict<K, V> {
    /// Creates an empty mutex-guarded dictionary.
    pub fn new() -> Self {
        Self {
            list: Mutex::new(SeqSortedList::new()),
            delay: CriticalDelay::none(),
        }
    }

    /// Sets the critical-section stall injector (experiment E2).
    pub fn with_delay(mut self, delay: CriticalDelay) -> Self {
        self.delay = delay;
        self
    }

    fn locked<R>(&self, f: impl FnOnce(&mut SeqSortedList<K, V>) -> R) -> R {
        let mut guard = self.list.lock().unwrap();
        self.delay.maybe_stall();
        f(&mut guard)
    }
}

impl<K: Ord, V> Default for MutexListDict<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Dictionary<K, V> for MutexListDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        Ok(self.locked(|l| l.insert(key, value)))
    }

    fn remove(&self, key: &K) -> bool {
        self.locked(|l| l.remove(key))
    }

    fn find(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.locked(|l| l.find(key).cloned())
    }

    fn contains(&self, key: &K) -> bool {
        self.locked(|l| l.find(key).is_some())
    }

    fn len(&self) -> usize {
        self.locked(|l| l.len())
    }
}

impl<K, V> fmt::Debug for MutexListDict<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MutexListDict { .. }")
    }
}

/// Hash table with one spin lock per bucket — the conventional competitor
/// for the §4.1 hash dictionary (E4).
pub struct LockedHashDict<K, V, S: BuildHasher = RandomState> {
    buckets: Box<[LockedListDict<K, V, TtasLock>]>,
    hasher: S,
}

impl<K: Ord + Hash, V> LockedHashDict<K, V> {
    /// Creates a table with `buckets` TTAS-locked buckets.
    pub fn with_buckets(buckets: usize) -> Self {
        Self {
            buckets: (0..buckets.max(1)).map(|_| LockedListDict::new()).collect(),
            hasher: RandomState::new(),
        }
    }

    /// Applies a stall injector to every bucket (experiment E2/E4).
    pub fn with_delay(mut self, delay: CriticalDelay) -> Self {
        for b in self.buckets.iter_mut() {
            b.delay = delay.clone();
        }
        self
    }

    fn bucket(&self, key: &K) -> &LockedListDict<K, V, TtasLock> {
        let h = self.hasher.hash_one(key);
        &self.buckets[(h as usize) % self.buckets.len()]
    }
}

impl<K, V> Dictionary<K, V> for LockedHashDict<K, V>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
{
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        Ok(self.bucket(&key).insert(key, value))
    }

    fn remove(&self, key: &K) -> bool {
        self.bucket(key).remove(key)
    }

    fn find(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.bucket(key).find(key)
    }

    fn contains(&self, key: &K) -> bool {
        self.bucket(key).contains(key)
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }
}

impl<K, V, S: BuildHasher> fmt::Debug for LockedHashDict<K, V, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedHashDict")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

/// A balanced search tree under one global mutex — the conventional
/// competitor for the §4.2 BST (E6).
pub struct LockedBstDict<K, V> {
    map: Mutex<BTreeMap<K, V>>,
    delay: CriticalDelay,
}

impl<K: Ord, V> LockedBstDict<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            map: Mutex::new(BTreeMap::new()),
            delay: CriticalDelay::none(),
        }
    }

    /// Sets the critical-section stall injector.
    pub fn with_delay(mut self, delay: CriticalDelay) -> Self {
        self.delay = delay;
        self
    }
}

impl<K: Ord, V> Default for LockedBstDict<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Dictionary<K, V> for LockedBstDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        let mut m = self.map.lock().unwrap();
        self.delay.maybe_stall();
        Ok(match m.entry(key) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
        })
    }

    fn remove(&self, key: &K) -> bool {
        let mut m = self.map.lock().unwrap();
        self.delay.maybe_stall();
        m.remove(key).is_some()
    }

    fn find(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let m = self.map.lock().unwrap();
        self.delay.maybe_stall();
        m.get(key).cloned()
    }

    fn contains(&self, key: &K) -> bool {
        let m = self.map.lock().unwrap();
        self.delay.maybe_stall();
        m.contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }
}

impl<K, V> fmt::Debug for LockedBstDict<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LockedBstDict { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valois_sync::{ClhLock, TicketLock};

    #[test]
    fn seq_list_roundtrip() {
        let mut l: SeqSortedList<u32, u32> = SeqSortedList::new();
        assert!(l.insert(2, 20));
        assert!(l.insert(1, 10));
        assert!(l.insert(3, 30));
        assert!(!l.insert(2, 99));
        assert_eq!(l.find(&2), Some(&20));
        assert_eq!(l.len(), 3);
        assert!(l.remove(&2));
        assert!(!l.remove(&2));
        assert_eq!(l.find(&2), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn seq_list_long_drop_does_not_overflow() {
        let mut l: SeqSortedList<u32, u32> = SeqSortedList::new();
        for k in (0..200_000).rev() {
            l.insert(k, k);
        }
        drop(l); // must not blow the stack
    }

    #[test]
    fn locked_dict_concurrent_accounting() {
        let d: LockedListDict<u64, u64> = LockedListDict::new();
        std::thread::scope(|s| {
            let d = &d;
            for t in 0..4u64 {
                s.spawn(move || {
                    for k in (t * 100)..(t * 100 + 100) {
                        assert!(d.insert(k, k));
                    }
                });
            }
        });
        assert_eq!(d.len(), 400);
    }

    #[test]
    fn locked_dict_with_all_lock_kinds() {
        let ticket: LockedListDict<u32, u32, TicketLock> =
            LockedListDict::with_lock(TicketLock::new());
        let clh: LockedListDict<u32, u32, ClhLock> = LockedListDict::with_lock(ClhLock::new());
        for d in [&ticket as &dyn Dictionary<u32, u32>, &clh] {
            assert!(d.insert(1, 1));
            assert!(d.contains(&1));
            assert!(d.remove(&1));
        }
    }

    #[test]
    fn mutex_dict_matches_semantics() {
        let d: MutexListDict<u32, &str> = MutexListDict::new();
        assert!(d.insert(1, "a"));
        assert!(!d.insert(1, "b"));
        assert_eq!(d.find(&1), Some("a"));
        assert!(d.remove(&1));
        assert!(d.is_empty());
    }

    #[test]
    fn locked_hash_dict_roundtrip() {
        let d: LockedHashDict<u64, u64> = LockedHashDict::with_buckets(8);
        for k in 0..100 {
            assert!(d.insert(k, k));
        }
        assert_eq!(d.len(), 100);
        for k in 0..100 {
            assert_eq!(d.find(&k), Some(k));
        }
    }

    #[test]
    fn locked_bst_dict_roundtrip() {
        let d: LockedBstDict<u64, u64> = LockedBstDict::new();
        assert!(d.insert(1, 10));
        assert!(!d.insert(1, 20));
        assert_eq!(d.find(&1), Some(10));
        assert!(d.remove(&1));
        assert!(!d.contains(&1));
    }

    #[test]
    fn critical_delay_fires_probabilistically() {
        let never = CriticalDelay::none();
        never.maybe_stall(); // must not sleep
        let always = CriticalDelay::new(1.0, Duration::from_micros(50));
        let t0 = std::time::Instant::now();
        always.maybe_stall();
        assert!(t0.elapsed() >= Duration::from_micros(50));
    }

    #[test]
    fn delayed_lock_still_correct() {
        let d: LockedListDict<u64, u64> =
            LockedListDict::new().with_delay(CriticalDelay::new(0.5, Duration::from_micros(10)));
        std::thread::scope(|s| {
            let d = &d;
            for t in 0..4u64 {
                s.spawn(move || {
                    for k in (t * 50)..(t * 50 + 50) {
                        assert!(d.insert(k, k));
                    }
                });
            }
        });
        assert_eq!(d.len(), 200);
    }
}
