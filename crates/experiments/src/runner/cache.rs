//! Content-keyed, in-memory cache of finished simulation cells.
//!
//! Figures overlap heavily in the cells they need — the gating-degree
//! extension re-evaluates exactly the cells of the main suite sweep, the
//! ablation baseline is the paper machine, the issue-policy study's
//! in-order arm likewise — so one shared cache turns those re-runs into
//! lookups. Keys come from [`CellSpec::key`]; collisions are resolved by
//! exact spec comparison.
//!
//! The implementation is the workspace's
//! [`pipedepth_core::eval::ShardedCache`]. This module pins the runner's
//! instantiation (simulation cells mapping to shared [`SimReport`]s) and
//! its tests. The runner's cache is the one cache of simulation results:
//! `repro` and `pipedepth-serve` persist it through the experiments
//! store, and the service answers from it, deriving each outcome from
//! the cached report.

use super::cell::CellSpec;
use pipedepth_core::eval::ShardedCache;
use pipedepth_sim::SimReport;

pub use pipedepth_core::eval::CacheStats;

/// Shared simulation cache: the workspace [`ShardedCache`] keyed by
/// [`CellSpec::key`], holding one [`SimReport`] per distinct cell.
/// Thread-safe; reports are handed out as [`std::sync::Arc`]s so
/// concurrent readers never copy a report.
pub type SimCache = ShardedCache<CellSpec, SimReport>;

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_sim::SimConfig;
    use pipedepth_workloads::representatives;
    use std::sync::Arc;

    fn spec(depth: u32) -> CellSpec {
        CellSpec::new(&representatives()[0], SimConfig::paper(depth), 200, 400)
    }

    #[test]
    fn round_trips_a_report() {
        let cache = SimCache::new();
        let s = spec(6);
        assert!(cache.get(s.key(), &s).is_none());
        let report = Arc::new(s.execute());
        cache.insert(s.key(), s, Arc::clone(&report));
        assert_eq!(cache.len(), 1);
        assert_eq!(*cache.get(s.key(), &s).expect("stored"), *report);
    }

    #[test]
    fn distinguishes_colliding_specs_by_equality() {
        // Force both specs into the same bucket to exercise the
        // equality check on lookup.
        let cache = SimCache::new();
        let a = spec(6);
        let b = spec(8);
        let report_a = Arc::new(a.execute());
        cache.insert(42, a, report_a);
        assert!(cache.get(42, &b).is_none());
        assert!(cache.get(42, &a).is_some());
    }

    #[test]
    fn duplicate_inserts_keep_one_entry() {
        let cache = SimCache::new();
        let s = spec(6);
        let report = Arc::new(s.execute());
        cache.insert(s.key(), s, Arc::clone(&report));
        cache.insert(s.key(), s, report);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let cache = SimCache::new();
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.count_misses(3);
        cache.count_hits(1);
        let stats = cache.stats();
        assert_eq!(stats.requested(), 4);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }
}
