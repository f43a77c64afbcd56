//! Figure 7: per-class distributions of optimum pipeline depths.
//!
//! The paper's breakdown: traditional (legacy) workloads peak at ≈9 stages
//! (18 FO4), SPECint at ≈7 (22.5 FO4), modern between 7 and 8 (≈21 FO4),
//! and floating point spreads over 6–16 stages.

use crate::figures::fig6::{optimum_of, WorkloadOptimum};
use crate::sweep::WorkloadCurve;
use pipedepth_math::histogram::Histogram;
use pipedepth_math::stats::Summary;
use pipedepth_workloads::WorkloadClass;
use std::fmt;

/// One class's distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDistribution {
    /// The class.
    pub class: WorkloadClass,
    /// Optima of its workloads.
    pub optima: Vec<WorkloadOptimum>,
    /// Histogram over 1–25 stages.
    pub histogram: Histogram,
    /// Summary of the cubic-fit optima.
    pub summary: Summary,
}

impl ClassDistribution {
    /// Spread of the distribution (max − min).
    pub fn spread(&self) -> f64 {
        self.summary.max - self.summary.min
    }
}

/// Result of the Figure 7 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7 {
    /// Distributions in [`WorkloadClass::ALL`] order.
    pub classes: Vec<ClassDistribution>,
}

impl Fig7 {
    /// Looks up one class's distribution.
    pub fn class(&self, class: WorkloadClass) -> &ClassDistribution {
        self.classes
            .iter()
            .find(|c| c.class == class)
            .expect("all classes present")
    }
}

/// Builds Figure 7 from finished sweeps.
pub fn from_curves(curves: &[WorkloadCurve]) -> Fig7 {
    let classes = WorkloadClass::ALL
        .iter()
        .map(|&class| {
            let optima: Vec<WorkloadOptimum> = curves
                .iter()
                .filter(|c| c.workload.class == class)
                .map(optimum_of)
                .collect();
            let mut histogram = Histogram::new(1.0, 25.0, 24);
            for o in &optima {
                histogram.add(o.cubic_fit_depth);
            }
            let depths: Vec<f64> = optima.iter().map(|o| o.cubic_fit_depth).collect();
            let summary = Summary::of(&depths).expect("class is non-empty");
            ClassDistribution {
                class,
                optima,
                histogram,
                summary,
            }
        })
        .collect();
    Fig7 { classes }
}

/// Registry spec: the per-class breakdown of the suite optima.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn title(&self) -> &'static str {
        "optimum-depth distributions by workload class"
    }

    fn needs_curves(&self) -> bool {
        true
    }

    fn run(&self, ctx: &crate::experiment::Context) -> crate::experiment::ExperimentOutput {
        let fig = from_curves(ctx.curves());
        let out = crate::experiment::ExperimentOutput::summary_only(fig.to_string());
        let _ = ctx.outcomes.fig7.set(fig);
        out
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7 — optimum-depth distributions by workload class")?;
        for c in &self.classes {
            writeln!(
                f,
                "  {:<20} mean {:>4.1} stages ({:>4.1} FO4)  range {:.1}–{:.1}",
                c.class.to_string(),
                c.summary.mean,
                2.5 + 140.0 / c.summary.mean,
                c.summary.min,
                c.summary.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use crate::sweep::RunConfig;
    use pipedepth_workloads::suite_class;

    /// Two workloads per class keeps this affordable as a unit test; the
    /// full-suite comparison lives in the integration tests and benches.
    fn small_curves() -> Vec<WorkloadCurve> {
        let cfg = RunConfig {
            warmup: 8_000,
            instructions: 16_000,
            depths: (2..=24).step_by(2).collect(),
            ..RunConfig::default()
        };
        WorkloadClass::ALL
            .iter()
            .flat_map(|&c| suite_class(c).into_iter().take(2))
            .map(|w| runner::shared().sweep_workload(&w, &cfg))
            .collect()
    }

    #[test]
    fn every_class_distributed() {
        let fig = from_curves(&small_curves());
        assert_eq!(fig.classes.len(), 4);
        for c in &fig.classes {
            assert_eq!(c.optima.len(), 2);
            assert_eq!(c.histogram.total(), 2);
        }
    }

    #[test]
    fn class_lookup() {
        let fig = from_curves(&small_curves());
        assert_eq!(
            fig.class(WorkloadClass::SpecInt).class,
            WorkloadClass::SpecInt
        );
    }

    #[test]
    fn fp_optima_deeper_than_specint() {
        // The headline class contrast the paper reports.
        let fig = from_curves(&small_curves());
        let fp = fig.class(WorkloadClass::FloatingPoint).summary.mean;
        let spec = fig.class(WorkloadClass::SpecInt).summary.mean;
        assert!(fp > spec, "fp {fp} vs specint {spec}");
    }
}
