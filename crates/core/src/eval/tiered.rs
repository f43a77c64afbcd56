//! The two-tier evaluation cache: an in-memory [`ShardedCache`] in front
//! of an optional warm tier loaded from a persistent store.
//!
//! The warm tier is itself a [`ShardedCache`] — the decoded in-memory
//! image of an on-disk snapshot (see the `pipedepth-store` crate), built
//! once at startup and read-mostly thereafter. Lookups probe memory
//! first; on a memory miss the warm tier is consulted and, on a hit, the
//! entry is *promoted* into the memory tier so every later request is a
//! plain memory hit. Because the warm tier stores full specs (not just
//! hashes) and resolves collisions by `PartialEq` exactly like the
//! memory tier, a promoted answer is always the answer the simulator
//! would have produced — a corrupt or mismatched store never reaches
//! this layer (the store loader already degraded it to a cold start).
//!
//! Accounting stays two-level on purpose: the memory tier's counters
//! keep their historical meaning (the caller classifies batches and
//! counts hits/misses itself, see [`ShardedCache`]), while the warm tier
//! counts its own probe outcomes internally — [`TieredCache::warm_stats`]
//! is the "served from disk" number the run manifest reports.
//!
//! Without a warm tier attached, every method is a direct pass-through
//! to the memory tier: a run without `--store` behaves bit-for-bit like
//! the single-tier cache it replaced.

use super::cache::{CacheStats, ShardedCache};
use std::sync::Arc;

/// A memory tier backed by an optional warm (disk-image) tier with
/// promote-on-hit.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pipedepth_core::eval::{ShardedCache, TieredCache};
///
/// // The warm tier is the decoded image of a previous run's snapshot.
/// let warm: ShardedCache<&'static str, u32> = ShardedCache::new();
/// warm.insert(7, "spec", Arc::new(42));
///
/// let cache = TieredCache::new().with_warm(warm);
/// assert_eq!(*cache.get(7, &"spec").unwrap(), 42); // promoted
/// assert_eq!(cache.warm_stats().unwrap().hits, 1);
/// assert_eq!(cache.len(), 1, "now resident in the memory tier");
/// ```
#[derive(Debug, Default)]
pub struct TieredCache<S, V> {
    memory: ShardedCache<S, V>,
    warm: Option<ShardedCache<S, V>>,
}

impl<S, V> TieredCache<S, V> {
    /// An empty cache with no warm tier (pure pass-through).
    pub fn new() -> Self {
        TieredCache {
            memory: ShardedCache::new(),
            warm: None,
        }
    }

    /// An empty cache with an explicit memory shard count.
    pub fn with_shards(shards: usize) -> Self {
        TieredCache {
            memory: ShardedCache::with_shards(shards),
            warm: None,
        }
    }

    /// Attaches a warm tier (builder form).
    #[must_use]
    pub fn with_warm(mut self, warm: ShardedCache<S, V>) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Attaches a warm tier to an existing cache.
    pub fn attach_warm(&mut self, warm: ShardedCache<S, V>) {
        self.warm = Some(warm);
    }

    /// True when a warm tier is attached.
    pub fn has_warm(&self) -> bool {
        self.warm.is_some()
    }
}

impl<S: PartialEq + Clone, V> TieredCache<S, V> {
    /// Probe counters of the warm tier (`None` when not attached):
    /// `hits` = memory misses served from the warm image, `misses` =
    /// probes nothing could serve.
    pub fn warm_stats(&self) -> Option<CacheStats> {
        self.warm.as_ref().map(ShardedCache::stats)
    }

    /// Number of entries resident in the warm tier.
    pub fn warm_len(&self) -> usize {
        self.warm.as_ref().map_or(0, ShardedCache::len)
    }

    /// Looks up an entry: memory tier first, then the warm tier, promoting
    /// a warm hit into memory. Does not touch the memory tier's hit/miss
    /// counters (the caller's job, as for [`ShardedCache::get`]); warm
    /// probe outcomes are counted here, since only this method knows them.
    pub fn get(&self, key: u64, spec: &S) -> Option<Arc<V>> {
        if let Some(value) = self.memory.get(key, spec) {
            return Some(value);
        }
        let warm = self.warm.as_ref()?;
        match warm.get(key, spec) {
            Some(value) => {
                warm.count_hits(1);
                self.memory.insert(key, spec.clone(), Arc::clone(&value));
                Some(value)
            }
            None => {
                warm.count_misses(1);
                None
            }
        }
    }

    /// Stores a finished entry in the memory tier. Returns whether the
    /// entry was actually inserted (false when an equal spec was already
    /// present).
    pub fn insert(&self, key: u64, spec: S, value: Arc<V>) -> bool {
        self.memory.insert(key, spec, value)
    }

    /// Records entries served without recomputation (memory-tier counter).
    pub fn count_hits(&self, n: u64) {
        self.memory.count_hits(n);
    }

    /// Records entries that were computed (memory-tier counter).
    pub fn count_misses(&self, n: u64) {
        self.memory.count_misses(n);
    }

    /// Number of distinct entries resident in the memory tier.
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// True when the memory tier holds no entry yet.
    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }

    /// The memory tier's hit/miss/insert counters (the classification
    /// counters the experiment runner has always reported).
    pub fn stats(&self) -> CacheStats {
        self.memory.stats()
    }

    /// A deterministic point-in-time snapshot of every entry the cache
    /// can answer — the export path a persistence layer encodes and
    /// publishes: the memory tier, then each warm-tier entry not yet
    /// promoted into it. A snapshot therefore holds everything loaded
    /// from disk plus everything computed since, so republishing never
    /// drops an entry a previous run stored.
    pub fn entries(&self) -> Vec<(S, Arc<V>)> {
        let mut out = self.memory.entries();
        if let Some(warm) = &self.warm {
            out.extend(
                warm.keyed_entries()
                    .into_iter()
                    .filter(|(key, spec, _)| self.memory.get(*key, spec).is_none())
                    .map(|(_, spec, value)| (spec, value)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm_image(entries: &[(u64, u32, u32)]) -> ShardedCache<u32, u32> {
        let warm = ShardedCache::new();
        for &(key, spec, value) in entries {
            warm.insert(key, spec, Arc::new(value));
        }
        warm
    }

    #[test]
    fn passes_through_without_a_warm_tier() {
        let cache: TieredCache<u32, u32> = TieredCache::new();
        assert!(!cache.has_warm());
        assert!(cache.warm_stats().is_none());
        assert_eq!(cache.warm_len(), 0);
        assert!(cache.get(1, &10).is_none());
        assert!(cache.insert(1, 10, Arc::new(100)));
        assert_eq!(*cache.get(1, &10).expect("stored"), 100);
        cache.count_hits(1);
        cache.count_misses(1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn warm_hits_promote_into_memory() {
        let cache = TieredCache::with_shards(4).with_warm(warm_image(&[(7, 70, 700)]));
        assert!(cache.has_warm());
        assert_eq!(cache.warm_len(), 1);
        assert!(cache.is_empty(), "warm entries are not memory entries");
        assert_eq!(*cache.get(7, &70).expect("warm hit"), 700);
        assert_eq!(cache.len(), 1, "promoted");
        // The second get is a pure memory hit: warm counters unchanged.
        assert_eq!(*cache.get(7, &70).expect("memory hit"), 700);
        let warm = cache.warm_stats().expect("attached");
        assert_eq!((warm.hits, warm.misses), (1, 0));
        assert_eq!(cache.stats().inserts, 1, "promotion inserted once");
    }

    #[test]
    fn warm_misses_are_counted_once_per_probe() {
        let cache = TieredCache::new().with_warm(warm_image(&[(7, 70, 700)]));
        assert!(cache.get(8, &80).is_none());
        assert!(cache.get(7, &71).is_none(), "same key, different spec");
        let warm = cache.warm_stats().expect("attached");
        assert_eq!((warm.hits, warm.misses), (0, 2));
    }

    #[test]
    fn collisions_resolve_by_spec_in_both_tiers() {
        let warm = warm_image(&[(1, 10, 100), (1, 11, 110)]);
        let cache = TieredCache::new().with_warm(warm);
        assert_eq!(*cache.get(1, &11).expect("collision kept"), 110);
        assert_eq!(*cache.get(1, &10).expect("collision kept"), 100);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn entries_snapshot_loaded_and_computed_entries_once_each() {
        // Key 1 holds two colliding specs; only one of them is promoted.
        let cache =
            TieredCache::new().with_warm(warm_image(&[(1, 10, 100), (1, 11, 110), (2, 20, 200)]));
        cache.insert(3, 30, Arc::new(300));
        let _ = cache.get(1, &10); // promote one of the three warm entries
        let mut entries: Vec<(u32, u32)> = cache
            .entries()
            .into_iter()
            .map(|(spec, value)| (spec, *value))
            .collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(10, 100), (11, 110), (20, 200), (30, 300)]);
        assert_eq!(cache.len(), 2, "the memory tier alone is unchanged");
    }
}
