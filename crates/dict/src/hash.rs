//! The hash-table dictionary (paper §4.1).
//!
//! "A straightforward extension of this implementation uses a hash table.
//! In this case, if we assume that the hash function evenly distributes the
//! operations across the lists, then we would expect the extra work done to
//! be O(1)." — each bucket is an independent [`SortedListDict`], so
//! contention (and the §4.1 retry cost) is divided by the bucket count;
//! experiment E4 sweeps bucket counts to show exactly this.

use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};

use valois_core::{AllocError, ArenaConfig, ListStats, MemStats, Reclaimer, RefCount};

use crate::sorted_list::SortedListDict;
use crate::traits::Dictionary;

/// A non-blocking hash table: fixed buckets of sorted lock-free lists
/// (paper §4.1).
///
/// The bucket array is immutable after construction (the paper's design has
/// no resizing); pick `buckets` ≈ the expected item count for O(1)
/// operations.
///
/// # Example
///
/// ```
/// use valois_dict::{Dictionary, HashDict};
///
/// let d: HashDict<String, u32> = HashDict::with_buckets(64);
/// d.insert("a".into(), 1);
/// assert_eq!(d.find(&"a".to_string()), Some(1));
/// ```
pub struct HashDict<
    K: Send + Sync,
    V: Send + Sync,
    S: BuildHasher = RandomState,
    R: Reclaimer = RefCount,
> {
    buckets: Box<[SortedListDict<K, V, R>]>,
    hasher: S,
}

impl<K, V, R> HashDict<K, V, RandomState, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    R: Reclaimer,
{
    /// Creates a table with a default bucket count (256).
    pub fn new() -> Self {
        Self::with_buckets(256)
    }

    /// Creates a table with `buckets` buckets (each with a small
    /// grow-on-demand arena).
    ///
    /// `buckets == 0` is silently clamped to 1 (a zero-bucket table cannot
    /// index, and the `%`-based bucket selection would divide by zero) —
    /// the table degenerates to a single sorted list rather than panic.
    /// Any other count, power of two or not, is used exactly as given: the
    /// index is `hash % buckets`, not a power-of-two mask.
    pub fn with_buckets(buckets: usize) -> Self {
        Self::with_buckets_and_hasher(buckets, RandomState::new())
    }
}

impl<K, V, S, R> HashDict<K, V, S, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    S: BuildHasher + Send + Sync,
    R: Reclaimer,
{
    /// Creates a table with `buckets` buckets and a custom hasher (e.g. a
    /// deterministic one for reproducible experiments).
    ///
    /// `buckets == 0` is clamped to 1, as in [`HashDict::with_buckets`].
    pub fn with_buckets_and_hasher(buckets: usize, hasher: S) -> Self {
        let buckets = buckets.max(1);
        // Per-bucket pools start tiny; they double on demand.
        let config = ArenaConfig::new().initial_capacity(16);
        Self {
            buckets: (0..buckets)
                .map(|_| SortedListDict::with_config(config))
                .collect(),
            hasher,
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn bucket(&self, key: &K) -> &SortedListDict<K, V, R> {
        let idx = (self.hasher.hash_one(key) as usize) % self.buckets.len();
        &self.buckets[idx]
    }

    /// Runs `f` on the value stored under `key`, without cloning.
    pub fn with_value<O>(&self, key: &K, f: impl FnOnce(&V) -> O) -> Option<O> {
        self.bucket(key).with_value(key, f)
    }

    /// All keys currently present, in no particular order (bucket by
    /// bucket; each bucket's keys are sorted internally).
    pub fn keys_unordered(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for b in self.buckets.iter() {
            out.extend(b.keys());
        }
        out
    }

    /// Items in the largest bucket (distribution diagnostic for E4).
    pub fn max_bucket_len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).max().unwrap_or(0)
    }

    /// Cursor-cache slots in use in each bucket (see
    /// [`SortedListDict::cached_slots`]).
    pub fn cached_slots(&self) -> Vec<usize> {
        self.buckets
            .iter()
            .map(SortedListDict::cached_slots)
            .collect()
    }

    /// Aggregated list-operation retries across buckets (E4's "extra
    /// work" measure).
    pub fn total_retries(&self) -> u64 {
        let s = self.list_stats();
        s.insert_retries() + s.delete_retries()
    }

    /// List-operation counters summed over the buckets.
    pub fn list_stats(&self) -> ListStats {
        let mut total = ListStats::default();
        self.buckets.iter().for_each(|b| total += b.list_stats());
        total
    }

    /// Memory-protocol counters summed over the buckets' arenas.
    pub fn mem_stats(&self) -> MemStats {
        let mut total = MemStats::default();
        self.buckets.iter().for_each(|b| total += b.mem_stats());
        total
    }

    /// Structural invariants of every bucket (testing hook).
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check_invariants(&mut self) -> Result<(), String>
    where
        K: Clone,
    {
        for (i, b) in self.buckets.iter_mut().enumerate() {
            b.check_invariants()
                .map_err(|e| format!("bucket {i}: {e}"))?;
        }
        Ok(())
    }

    /// Exact link-count audit of every bucket (testing hook).
    ///
    /// # Errors
    ///
    /// Describes the first node whose count drifted, and its bucket.
    pub fn audit_refcounts(&mut self) -> Result<(), String> {
        for (i, b) in self.buckets.iter_mut().enumerate() {
            b.audit_refcounts()
                .map_err(|e| format!("bucket {i}: {e}"))?;
        }
        Ok(())
    }
}

impl<K, V, R> Default for HashDict<K, V, RandomState, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    R: Reclaimer,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S, R> Dictionary<K, V> for HashDict<K, V, S, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    S: BuildHasher + Send + Sync,
    R: Reclaimer,
{
    fn try_insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        self.bucket(&key).try_insert(key, value)
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

impl<K, V, S, R> fmt::Debug for HashDict<K, V, S, R>
where
    K: Ord + Hash + Send + Sync,
    V: Send + Sync,
    S: BuildHasher + Send + Sync,
    R: Reclaimer,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HashDict")
            .field("buckets", &self.buckets.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let d: HashDict<u64, u64> = HashDict::with_buckets(8);
        for k in 0..100 {
            assert!(d.insert(k, k * 2));
        }
        for k in 0..100 {
            assert_eq!(d.find(&k), Some(k * 2));
        }
        assert_eq!(d.len(), 100);
        for k in (0..100).step_by(2) {
            assert!(d.remove(&k));
        }
        assert_eq!(d.len(), 50);
        assert!(!d.contains(&0));
        assert!(d.contains(&1));
    }

    #[test]
    fn duplicate_rejected_across_buckets() {
        let d: HashDict<u64, &str> = HashDict::with_buckets(4);
        assert!(d.insert(9, "a"));
        assert!(!d.insert(9, "b"));
        assert_eq!(d.find(&9), Some("a"));
    }

    #[test]
    fn single_bucket_degenerates_to_sorted_list() {
        let mut d: HashDict<u64, u64> = HashDict::with_buckets(1);
        for k in [3, 1, 2] {
            d.insert(k, k);
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.max_bucket_len(), 3);
        d.check_invariants().unwrap();
    }

    #[test]
    fn bucket_count_minimum_is_one() {
        // `with_buckets(0)` clamps to 1 (documented behavior): the table
        // degenerates to a single sorted list and every operation works.
        let mut d: HashDict<u64, u64> = HashDict::with_buckets(0);
        assert_eq!(d.bucket_count(), 1);
        for k in 0..32 {
            assert!(d.insert(k, k * 10));
        }
        for k in 0..32 {
            assert_eq!(d.find(&k), Some(k * 10));
        }
        for k in (0..32).step_by(2) {
            assert!(d.remove(&k));
        }
        assert_eq!(d.len(), 16);
        assert_eq!(d.max_bucket_len(), 16, "everything lives in bucket 0");
        d.check_invariants().unwrap();
    }

    /// Pass-through hasher: `hash_one(k) == k` for u64 keys, making bucket
    /// selection deterministic so the indexing rule itself is testable.
    struct IdentityBuild;
    struct IdentityHasher(u64);
    impl std::hash::Hasher for IdentityHasher {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 << 8) | u64::from(b);
            }
        }
        fn write_u64(&mut self, v: u64) {
            self.0 = v;
        }
    }
    impl std::hash::BuildHasher for IdentityBuild {
        type Hasher = IdentityHasher;
        fn build_hasher(&self) -> IdentityHasher {
            IdentityHasher(0)
        }
    }

    #[test]
    fn non_power_of_two_bucket_count_indexes_by_modulo() {
        // Regression pin for the `%`-based `bucket()` rule: with 7 buckets
        // and identity hashing, key k must land in bucket k % 7. A
        // mask-based (power-of-two) indexing would both skew the
        // distribution and send keys ≥ 7 to the wrong bucket.
        let mut d: HashDict<u64, u64, _> = HashDict::with_buckets_and_hasher(7, IdentityBuild);
        assert_eq!(d.bucket_count(), 7);
        for k in 0..70 {
            assert!(d.insert(k, k));
        }
        for k in 0..70u64 {
            assert!(
                std::ptr::eq(d.bucket(&k), &d.buckets[(k % 7) as usize]),
                "key {k} must select bucket {}",
                k % 7
            );
            assert_eq!(d.find(&k), Some(k));
        }
        // 70 identity-hashed keys over 7 buckets: exactly 10 each.
        assert_eq!(d.max_bucket_len(), 10, "modulo spreads residues evenly");
        d.check_invariants().unwrap();
    }

    #[test]
    fn keys_unordered_returns_everything() {
        let d: HashDict<u64, ()> = HashDict::with_buckets(8);
        for k in 0..100 {
            d.insert(k, ());
        }
        let mut keys = d.keys_unordered();
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn distribution_is_reasonable() {
        let mut d: HashDict<u64, ()> = HashDict::with_buckets(16);
        for k in 0..1600 {
            d.insert(k, ());
        }
        // With 100 expected per bucket, no bucket should be pathological.
        assert!(
            d.max_bucket_len() < 400,
            "max {} too skewed",
            d.max_bucket_len()
        );
        d.check_invariants().unwrap();
    }
}
