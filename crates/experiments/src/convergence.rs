//! Methodology robustness: how many instructions does a sweep need?
//!
//! The paper's results rest on finite trace samples. This study re-runs a
//! workload's sweep at increasing instruction counts and tracks how the
//! cubic-fit optimum settles, justifying the measurement sizes used by the
//! reproduction (and flagging if a future change makes the optima
//! sample-size sensitive).

use crate::figures::fig6::optimum_of;
use crate::runner::Runner;
use crate::sweep::RunConfig;
use pipedepth_workloads::Workload;
use std::fmt;

/// One sample-size point of the convergence study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Measured instructions per depth.
    pub instructions: u64,
    /// Cubic-fit BIPS³/W (gated) optimum depth.
    pub optimum_depth: f64,
    /// Extracted hazard product `α·γ·N_H/N_I`.
    pub hazard_product: f64,
}

/// Result of the convergence study.
#[derive(Debug, Clone, PartialEq)]
pub struct Convergence {
    /// Workload studied.
    pub workload_name: String,
    /// Points in ascending instruction count.
    pub points: Vec<ConvergencePoint>,
}

impl Convergence {
    /// Largest optimum-depth difference between consecutive doublings.
    pub fn max_step(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| (w[1].optimum_depth - w[0].optimum_depth).abs())
            .fold(0.0, f64::max)
    }

    /// Difference between the last two (largest) sample sizes — the
    /// residual error of the second-largest run.
    pub fn final_step(&self) -> f64 {
        self.points
            .windows(2)
            .last()
            .map(|w| (w[1].optimum_depth - w[0].optimum_depth).abs())
            .unwrap_or(0.0)
    }
}

/// Runs the study on the caller's runner: sweeps `workload` at each
/// instruction count (warmup scales at half the measurement size).
///
/// # Panics
///
/// Panics if `sizes` is empty or not ascending.
pub fn run(runner: &Runner, workload: &Workload, base: &RunConfig, sizes: &[u64]) -> Convergence {
    assert!(!sizes.is_empty(), "need at least one sample size");
    assert!(
        sizes.windows(2).all(|w| w[1] > w[0]),
        "sample sizes must ascend"
    );
    let points = sizes
        .iter()
        .map(|&n| {
            let config = RunConfig {
                warmup: n / 2,
                instructions: n,
                ..base.clone()
            };
            let curve = runner.sweep_workload(workload, &config);
            ConvergencePoint {
                instructions: n,
                optimum_depth: optimum_of(&curve).cubic_fit_depth,
                hazard_product: curve.extracted.hazard_product(),
            }
        })
        .collect();
    Convergence {
        workload_name: workload.name.clone(),
        points,
    }
}

impl fmt::Display for Convergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Convergence — {} (BIPS³/W gated optimum)",
            self.workload_name
        )?;
        writeln!(
            f,
            "  {:>12} {:>10} {:>10}",
            "instructions", "opt depth", "α·γ·h"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  {:>12} {:>10.2} {:>10.3}",
                p.instructions, p.optimum_depth, p.hazard_product
            )?;
        }
        writeln!(
            f,
            "  final doubling moved the optimum by {:.2} stages",
            self.final_step()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use pipedepth_workloads::{suite_class, WorkloadClass};

    fn study() -> Convergence {
        let w = suite_class(WorkloadClass::SpecInt)
            .into_iter()
            .next()
            .unwrap();
        let base = RunConfig {
            depths: (2..=24).step_by(2).collect(),
            ..RunConfig::default()
        };
        run(runner::shared(), &w, &base, &[16_000, 32_000, 64_000])
    }

    #[test]
    fn optimum_settles_with_sample_size() {
        let c = study();
        assert_eq!(c.points.len(), 3);
        // The final doubling should move the optimum by under two stages —
        // the methodology is stable at the sizes the reproduction uses.
        assert!(c.final_step() < 2.0, "final step {}", c.final_step());
    }

    #[test]
    fn optima_physical_at_every_size() {
        for p in study().points {
            assert!(p.optimum_depth >= 2.0 && p.optimum_depth <= 24.0);
            assert!(p.hazard_product > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn unsorted_sizes_rejected() {
        let w = suite_class(WorkloadClass::SpecInt)
            .into_iter()
            .next()
            .unwrap();
        let _ = run(
            runner::shared(),
            &w,
            &RunConfig::default(),
            &[10_000, 5_000],
        );
    }
}
