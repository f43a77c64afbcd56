//! The workspace's concurrent result cache.
//!
//! [`ShardedCache`] is content-keyed lookup with exact-spec collision
//! resolution and caller-driven hit/miss counters: N independently locked
//! shards selected by key, poison-tolerant, values handed out as
//! [`Arc`](std::sync::Arc)s so concurrent readers never copy. The
//! experiment runner keeps its finished `SimReport`s in one (under a
//! [`TieredCache`](super::TieredCache) when a persistent store is
//! attached), and the `pipedepth-serve` service memoises the outcomes it
//! derives from those reports in another.
//!
//! Keys are produced by the spec type's own content hash (the runner's
//! `CellSpec::key()`, the eval layer's [`CellSpec::key`](super::CellSpec::key));
//! a key only needs to spread well, because every bucket resolves
//! collisions by full `PartialEq` comparison.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Hit/miss/insert counters of an evaluation cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requested entries served without recomputation.
    pub hits: u64,
    /// Entries that had to be computed.
    pub misses: u64,
    /// Distinct entries stored since creation.
    pub inserts: u64,
}

impl CacheStats {
    /// Total entries requested.
    pub fn requested(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requested() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requested() as f64
        }
    }
}

/// One key's entries; the spec is kept alongside the value to resolve
/// hash collisions by exact comparison.
type Bucket<S, V> = Vec<(S, Arc<V>)>;

/// One independently locked shard of a [`ShardedCache`].
type Shard<S, V> = Mutex<BTreeMap<u64, Bucket<S, V>>>;

/// Default shard count: enough to keep a worker pool off one lock, small
/// enough that an empty cache stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// The workspace's concurrent result cache: N independently locked
/// [`BTreeMap`] shards selected by key, shared by the experiment runner
/// (`SimReport` values) and the evaluation service (`EvalOutcome` values).
///
/// Locks are poison-tolerant: a panicking writer leaves at worst one
/// half-inserted bucket entry behind, never an unusable cache.
///
/// Hit/miss counting is the caller's job
/// ([`count_hits`](Self::count_hits) / [`count_misses`](Self::count_misses)):
/// the runner classifies a whole batch, counting in-batch duplicates as
/// hits, before it simulates anything — which a get-side counter could
/// not express.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pipedepth_core::eval::ShardedCache;
///
/// let cache: ShardedCache<&'static str, u32> = ShardedCache::new();
/// assert!(cache.get(7, &"spec").is_none());
/// assert!(cache.insert(7, "spec", Arc::new(42)));
/// assert_eq!(*cache.get(7, &"spec").unwrap(), 42);
/// assert!(!cache.insert(7, "spec", Arc::new(42)), "duplicate spec");
/// ```
pub struct ShardedCache<S, V> {
    shards: Vec<Shard<S, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl<S, V> ShardedCache<S, V> {
    /// An empty cache with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty cache with an explicit shard count (clamped to ≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        ShardedCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Number of shards (lock granularity).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key maps to. Keys are content hashes whose low bits
    /// already spread well, so plain modulo suffices.
    fn shard(&self, key: u64) -> &Shard<S, V> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }
}

impl<S, V> Default for ShardedCache<S, V> {
    fn default() -> Self {
        ShardedCache::new()
    }
}

impl<S, V> std::fmt::Debug for ShardedCache<S, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats_inner())
            .finish()
    }
}

impl<S, V> ShardedCache<S, V> {
    fn stats_inner(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }
}

impl<S: PartialEq, V> ShardedCache<S, V> {
    /// Looks up a finished entry without touching the hit/miss counters.
    pub fn get(&self, key: u64, spec: &S) -> Option<Arc<V>> {
        let shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard
            .get(&key)?
            .iter()
            .find(|(s, _)| s == spec)
            .map(|(_, v)| Arc::clone(v))
    }

    /// Stores a finished entry. Returns whether the entry was actually
    /// inserted (false when an equal spec was already present).
    pub fn insert(&self, key: u64, spec: S, value: Arc<V>) -> bool {
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let bucket = shard.entry(key).or_default();
        if bucket.iter().any(|(s, _)| s == &spec) {
            return false;
        }
        bucket.push((spec, value));
        self.inserts.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Records entries served without recomputation.
    pub fn count_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records entries that were computed.
    pub fn count_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of distinct entries stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// True when no entry has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss/insert counters.
    pub fn stats(&self) -> CacheStats {
        self.stats_inner()
    }
}

impl<S: Clone, V> ShardedCache<S, V> {
    /// A point-in-time snapshot of every entry, in deterministic
    /// (shard-index, key) order — the export path for persistence tiers.
    /// Each shard is locked briefly in turn; the copy is fully detached
    /// before this returns, so callers never hold a shard guard while
    /// doing I/O with the result.
    pub fn entries(&self) -> Vec<(S, Arc<V>)> {
        self.keyed_entries()
            .into_iter()
            .map(|(_, spec, value)| (spec, value))
            .collect()
    }

    /// [`entries`](Self::entries) with each entry's key, for callers that
    /// probe another cache with them.
    pub(crate) fn keyed_entries(&self) -> Vec<(u64, S, Arc<V>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (&key, bucket) in shard.iter() {
                out.extend(
                    bucket
                        .iter()
                        .map(|(spec, value)| (key, spec.clone(), Arc::clone(value))),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_deduplicates() {
        let cache: ShardedCache<u32, String> = ShardedCache::with_shards(4);
        assert!(cache.is_empty());
        assert!(cache.insert(1, 10, Arc::new("a".into())));
        assert!(!cache.insert(1, 10, Arc::new("a".into())));
        assert!(cache.insert(1, 11, Arc::new("b".into())), "collision kept");
        assert_eq!(cache.len(), 2);
        assert_eq!(*cache.get(1, &11).expect("stored"), "b");
        assert!(cache.get(2, &10).is_none(), "different key, same spec");
    }

    #[test]
    fn stats_track_hits_misses_inserts() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        cache.count_misses(3);
        cache.count_hits(1);
        cache.insert(0, 0, Arc::new(0));
        let stats = cache.stats();
        assert_eq!(stats.requested(), 4);
        assert_eq!(stats.inserts, 1);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shard_count_is_clamped_and_spreads_keys() {
        let cache: ShardedCache<u32, u32> = ShardedCache::with_shards(0);
        assert_eq!(cache.shards(), 1);
        let cache: ShardedCache<u64, u64> = ShardedCache::with_shards(8);
        for key in 0..64u64 {
            cache.insert(key, key, Arc::new(key));
        }
        assert_eq!(cache.len(), 64, "entries must survive sharding");
        for key in 0..64u64 {
            assert_eq!(*cache.get(key, &key).expect("present"), key);
        }
    }

    #[test]
    fn concurrent_writers_agree() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for k in 0..100u64 {
                        cache.insert(k, k, Arc::new(k * k));
                        let _ = cache.get(k ^ t, &(k ^ t));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 100, "duplicates collapse across threads");
        assert_eq!(cache.stats().inserts, 100);
    }
}
