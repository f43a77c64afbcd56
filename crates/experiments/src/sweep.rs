//! Depth sweeps: run workloads across the paper's 2–25 stage range.
//!
//! Every simulation follows the paper's methodology: replay the same trace
//! (same seed) against every pipeline depth, after a warmup window that
//! fills the caches and trains the predictor.
//!
//! This module holds the sweep's sizing ([`RunConfig`]) and its result
//! ([`WorkloadCurve`]). The sweeps themselves run on a caller-held
//! [`Runner`](crate::runner::Runner) (`sweep_workload`, `sweep_all`), so
//! every sweep of one run shares the runner's cache.

use crate::extract::ExtractedParams;
use crate::series;
use pipedepth_power::{Gating, PowerConfig};
use pipedepth_workloads::Workload;

/// Simulation sizing for a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Warmup instructions (statistics discarded).
    pub warmup: u64,
    /// Measured instructions.
    pub instructions: u64,
    /// Depths to simulate.
    pub depths: Vec<u32>,
    /// Leakage fraction of total (non-gated) power at the reference depth.
    pub leakage_fraction: f64,
    /// Reference depth for leakage calibration and parameter extraction.
    pub ref_depth: u32,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 30_000,
            instructions: 60_000,
            depths: (2..=25).collect(),
            leakage_fraction: 0.15,
            ref_depth: 10,
        }
    }
}

impl RunConfig {
    /// A faster configuration for tests and examples.
    pub fn quick() -> Self {
        RunConfig {
            warmup: 10_000,
            instructions: 20_000,
            depths: (2..=25).step_by(2).collect(),
            ..RunConfig::default()
        }
    }

    /// The gated power configuration this run measures with.
    pub fn power_gated(&self) -> PowerConfig {
        PowerConfig::paper(Gating::Gated, self.leakage_fraction, self.ref_depth)
    }

    /// The ungated power configuration this run measures with.
    pub fn power_ungated(&self) -> PowerConfig {
        PowerConfig::paper(Gating::Ungated, self.leakage_fraction, self.ref_depth)
    }
}

/// One depth's measurements for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthPoint {
    /// Pipeline depth (stages).
    pub depth: u32,
    /// Throughput in instructions per FO4 (∝ BIPS).
    pub throughput: f64,
    /// `BIPS^m/W` under clock gating for m = 1, 2, 3.
    pub metric_gated: [f64; 3],
    /// `BIPS^m/W` without gating for m = 1, 2, 3.
    pub metric_ungated: [f64; 3],
    /// Cycles per instruction.
    pub cpi: f64,
}

/// A complete depth sweep of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCurve {
    /// The workload swept.
    pub workload: Workload,
    /// Measurements, one per configured depth (ascending).
    pub points: Vec<DepthPoint>,
    /// Theory parameters extracted from the reference-depth run.
    pub extracted: ExtractedParams,
}

impl WorkloadCurve {
    /// The depths of this curve.
    pub fn depths(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.depth as f64).collect()
    }

    /// The gated `BIPS^m/W` series for a metric exponent (1, 2 or 3).
    ///
    /// # Panics
    ///
    /// Panics unless `m ∈ {1, 2, 3}`.
    pub fn gated_series(&self, m: u32) -> Vec<f64> {
        assert!((1..=3).contains(&m), "m must be 1, 2 or 3");
        self.points
            .iter()
            .map(|p| p.metric_gated[(m - 1) as usize])
            .collect()
    }

    /// The ungated `BIPS^m/W` series for a metric exponent (1, 2 or 3).
    ///
    /// # Panics
    ///
    /// Panics unless `m ∈ {1, 2, 3}`.
    pub fn ungated_series(&self, m: u32) -> Vec<f64> {
        assert!((1..=3).contains(&m), "m must be 1, 2 or 3");
        self.points
            .iter()
            .map(|p| p.metric_ungated[(m - 1) as usize])
            .collect()
    }

    /// The throughput (∝ BIPS) series.
    pub fn throughput_series(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.throughput).collect()
    }

    /// The depth whose gated BIPS³/W is highest (integer grid argmax,
    /// ignoring non-finite samples).
    ///
    /// # Panics
    ///
    /// Panics when the curve has no finite gated BIPS³/W value at all.
    pub fn best_gated_m3_depth(&self) -> u32 {
        let m3 = self.gated_series(3);
        let i = series::argmax(&m3).expect("curve has a finite gated BIPS³/W value");
        self.points[i].depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use pipedepth_workloads::representatives;

    fn tiny_config() -> RunConfig {
        RunConfig {
            warmup: 3_000,
            instructions: 6_000,
            depths: vec![4, 8, 12, 16],
            ..RunConfig::default()
        }
    }

    #[test]
    fn sweep_produces_point_per_depth() {
        let w = &representatives()[1]; // a SPECint workload
        let curve = runner::shared().sweep_workload(w, &tiny_config());
        assert_eq!(curve.points.len(), 4);
        assert_eq!(curve.depths(), vec![4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn metrics_positive_and_gating_helps() {
        let w = &representatives()[1];
        let curve = runner::shared().sweep_workload(w, &tiny_config());
        for p in &curve.points {
            assert!(p.throughput > 0.0);
            for k in 0..3 {
                assert!(p.metric_gated[k] > 0.0);
                assert!(
                    p.metric_gated[k] > p.metric_ungated[k],
                    "gating reduces power, so BIPS^m/W must rise"
                );
            }
        }
    }

    #[test]
    fn best_depth_within_range() {
        let w = &representatives()[0];
        let curve = runner::shared().sweep_workload(w, &tiny_config());
        let best = curve.best_gated_m3_depth();
        assert!(curve.points.iter().any(|p| p.depth == best));
    }

    #[test]
    #[should_panic(expected = "m must be 1, 2 or 3")]
    fn bad_metric_exponent_rejected() {
        let w = &representatives()[0];
        let curve = runner::shared().sweep_workload(w, &tiny_config());
        let _ = curve.gated_series(4);
    }
}
