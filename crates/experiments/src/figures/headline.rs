//! The paper's headline numbers, recomputed on this substrate.
//!
//! * Performance-only optimisation: ≈22 stages (8.9 FO4) in the paper.
//! * BIPS³/W (clock gated): cubic-fit average 8 stages (20 FO4); theory
//!   average ≈6.25 stages (25 FO4); a particular workload 7 stages
//!   (22.5 FO4).
//! * BIPS/W and BIPS²/W: unpipelined optima.

use crate::extract::theory_model;
use crate::figures::fig6;
use crate::sweep::{RunConfig, WorkloadCurve};
use pipedepth_core::{numeric_optimum, MetricExponent};
use pipedepth_math::fit::cubic_peak_fit;
use pipedepth_math::stats::Summary;
use std::fmt;

/// The recomputed headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Mean performance-only optimum over workloads (cubic fit of the
    /// simulated BIPS curve).
    pub perf_only_mean: f64,
    /// Mean BIPS³/W (gated) optimum via cubic fit of simulation.
    pub m3_cubic_mean: f64,
    /// Mean BIPS³/W (gated) optimum from the analytic theory, one model per
    /// workload (parameters extracted from a single depth).
    pub m3_theory_mean: f64,
    /// Number of workloads whose BIPS²/W is effectively unpipelined (grid
    /// optimum at ≤ 4 stages; the paper's 1-stage optimum lies below the
    /// simulated 2-stage floor, and unit merging makes the 2-stage design
    /// itself irregular).
    pub m2_unpipelined: usize,
    /// Number of workloads whose BIPS/W is effectively unpipelined (≤ 4
    /// stages).
    pub m1_unpipelined: usize,
    /// Workload count.
    pub workloads: usize,
    /// Summary of the per-workload m = 3 cubic-fit optima.
    pub m3_summary: Summary,
}

impl Headline {
    /// FO4 per stage at a given depth for the paper's technology.
    pub fn fo4(depth: f64) -> f64 {
        2.5 + 140.0 / depth
    }

    /// Ratio of the performance-only to power/performance optimum — the
    /// paper's central "power shortens pipelines" factor (≈22/8 ≈ 2.75).
    pub fn shortening_factor(&self) -> f64 {
        self.perf_only_mean / self.m3_cubic_mean
    }
}

/// Computes the headline numbers from finished sweeps.
pub fn from_curves(curves: &[WorkloadCurve], config: &RunConfig) -> Headline {
    let mut perf_opts = Vec::new();
    let mut m3_cubic = Vec::new();
    let mut m3_theory = Vec::new();
    let mut m1_unpipelined = 0;
    let mut m2_unpipelined = 0;

    // "Effectively unpipelined": the best design on the grid is at most
    // this deep (the true optimum of these metrics is 1 stage, below the
    // simulable range).
    const UNPIPELINED_BOUND: f64 = 4.0;
    for curve in curves {
        let xs = curve.depths();

        let perf_fit =
            cubic_peak_fit(&xs, &curve.throughput_series()).expect("sweep supports a cubic fit");
        perf_opts.push(perf_fit.peak_x);

        m3_cubic.push(fig6::optimum_of(curve).cubic_fit_depth);

        let model = theory_model(
            &curve.extracted,
            true,
            config.leakage_fraction,
            config.ref_depth as f64,
            1.3,
        );
        let theory = numeric_optimum(&model, MetricExponent::BIPS3_PER_WATT)
            .depth()
            .unwrap_or(1.0);
        m3_theory.push(theory);

        for (m, counter) in [(1u32, &mut m1_unpipelined), (2, &mut m2_unpipelined)] {
            let ys = curve.gated_series(m);
            let best = crate::series::peak_x(&xs, &ys).expect("sweep has a finite metric value");
            if best <= UNPIPELINED_BOUND {
                *counter += 1;
            }
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Headline {
        perf_only_mean: mean(&perf_opts),
        m3_cubic_mean: mean(&m3_cubic),
        m3_theory_mean: mean(&m3_theory),
        m1_unpipelined,
        m2_unpipelined,
        workloads: curves.len(),
        m3_summary: Summary::of(&m3_cubic).expect("non-empty suite"),
    }
}

/// Registry spec: the headline numbers from the shared suite sweep.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "headline"
    }

    fn title(&self) -> &'static str {
        "the paper's headline optima, recomputed"
    }

    fn needs_curves(&self) -> bool {
        true
    }

    fn run(&self, ctx: &crate::experiment::Context) -> crate::experiment::ExperimentOutput {
        let h = from_curves(ctx.curves(), &ctx.config);
        let out = crate::experiment::ExperimentOutput::summary_only(h.to_string());
        let _ = ctx.outcomes.headline.set(h);
        out
    }
}

impl fmt::Display for Headline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Headline numbers over {} workloads", self.workloads)?;
        writeln!(
            f,
            "  performance-only optimum : {:>5.1} stages ({:>4.1} FO4)   [paper: 22 stages, 8.9 FO4]",
            self.perf_only_mean,
            Headline::fo4(self.perf_only_mean)
        )?;
        writeln!(
            f,
            "  BIPS³/W cubic-fit optimum: {:>5.1} stages ({:>4.1} FO4)   [paper: 8 stages, 20 FO4]",
            self.m3_cubic_mean,
            Headline::fo4(self.m3_cubic_mean)
        )?;
        writeln!(
            f,
            "  BIPS³/W theory optimum   : {:>5.1} stages ({:>4.1} FO4)   [paper: 6.25 stages, 25 FO4]",
            self.m3_theory_mean,
            Headline::fo4(self.m3_theory_mean)
        )?;
        writeln!(
            f,
            "  power shortens pipeline by {:.2}×                    [paper: 22/8 ≈ 2.75×]",
            self.shortening_factor()
        )?;
        writeln!(
            f,
            "  BIPS/W unpipelined: {}/{}; BIPS²/W unpipelined: {}/{}",
            self.m1_unpipelined, self.workloads, self.m2_unpipelined, self.workloads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use pipedepth_workloads::representatives;

    fn quick_headline() -> Headline {
        let cfg = RunConfig {
            warmup: 8_000,
            instructions: 16_000,
            depths: (2..=24).step_by(2).collect(),
            ..RunConfig::default()
        };
        let curves: Vec<_> = representatives()
            .iter()
            .map(|w| runner::shared().sweep_workload(w, &cfg))
            .collect();
        from_curves(&curves, &cfg)
    }

    #[test]
    fn power_shortens_the_pipeline() {
        let h = quick_headline();
        assert!(
            h.shortening_factor() > 1.3,
            "perf {} vs m3 {}",
            h.perf_only_mean,
            h.m3_cubic_mean
        );
    }

    #[test]
    fn m1_always_unpipelined() {
        let h = quick_headline();
        assert_eq!(h.m1_unpipelined, h.workloads);
    }

    #[test]
    fn theory_and_simulation_same_ballpark() {
        // The paper's two analyses differ by ≈20%; allow 2× here.
        let h = quick_headline();
        let ratio = h.m3_theory_mean / h.m3_cubic_mean;
        assert!(ratio > 0.4 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn fo4_helper() {
        assert!((Headline::fo4(7.0) - 22.5).abs() < 1e-12);
        assert!((Headline::fo4(22.0) - 8.863).abs() < 1e-2);
    }
}
