//! The dictionary abstract data type (paper §4): "a collection of items
//! which are distinguished by distinct keys", with `Find`, `Insert`, and
//! `Delete`.

use valois_mem::AllocError;

/// A concurrent dictionary (paper §4).
///
/// Keys are unique; `insert` refuses duplicates rather than overwriting
/// (the paper keeps items "distinguished by distinct keys" and its `Insert`
/// returns without effect when the key is present). All operations are
/// linearizable and, for the lock-free implementations in this crate,
/// non-blocking.
///
/// [`try_insert`](Dictionary::try_insert) is the one insert every
/// implementation defines; on a capped node pool (§5's bounded free
/// list) it reports exhaustion as an error. [`insert`](Dictionary::insert)
/// is the infallible wrapper for the default, grow-on-demand pools.
pub trait Dictionary<K, V>: Send + Sync {
    /// Inserts `(key, value)` if `key` is absent. Returns `Ok(true)` on
    /// insertion, `Ok(false)` if the key was already present (the value
    /// is dropped).
    ///
    /// An implementation whose allocation fails drops whatever protection
    /// the attempt held, sheds reclaimable memory once and retries before
    /// it gives up; a failed insert leaves the dictionary unchanged.
    ///
    /// # Errors
    ///
    /// [`AllocError`] when the node pool is capped and stays exhausted
    /// after that shed (the value is dropped).
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError>;

    /// [`try_insert`](Dictionary::try_insert) for pools that cannot run
    /// dry. Returns `true` on insertion, `false` if the key was already
    /// present.
    ///
    /// # Panics
    ///
    /// If the node pool is capped and exhausted.
    fn insert(&self, key: K, value: V) -> bool {
        self.try_insert(key, value)
            .expect("node pool exhausted (capped arena, even after shedding)")
    }

    /// Removes the item with `key`. Returns `true` if an item was removed.
    fn remove(&self, key: &K) -> bool;

    /// Returns a clone of the value stored under `key`, if present.
    fn find(&self, key: &K) -> Option<V>
    where
        V: Clone;

    /// Whether an item with `key` is present.
    fn contains(&self, key: &K) -> bool;

    /// Number of items. O(n) for the list structures; under concurrency
    /// the result is a best-effort snapshot.
    fn len(&self) -> usize;

    /// Whether the dictionary holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
