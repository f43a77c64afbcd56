//! Model-vs-simulation cross-validation.
//!
//! The analytic backend claims that the paper's closed forms, fed the
//! parameters extracted from one reference-depth simulation, predict the
//! whole depth sweep. This experiment quantifies that claim cell by cell:
//! for every suite workload and every swept depth it evaluates the
//! [`AnalyticModel`] on the workload's extracted profile and reports the
//! relative error of the predicted per-instruction time τ against the
//! simulated one — both absolute, and after a per-workload least-squares
//! scale fit (the shape error, which is what the paper's Fig. 4 overlays
//! measure; the extraction carries a known per-workload scale offset).

use crate::eval::cell_for;
use crate::experiment::{Artifact, Context, ExperimentOutput};
use crate::report::Table;
use pipedepth_core::eval::AnalyticModel;
use pipedepth_workloads::WorkloadClass;
use std::fmt;

/// One cross-validated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct XvalRow {
    /// Workload name.
    pub workload: String,
    /// Workload class.
    pub class: WorkloadClass,
    /// Pipeline depth.
    pub depth: u32,
    /// Simulated per-instruction time, FO4.
    pub tau_sim: f64,
    /// Analytic per-instruction time from the extracted profile, FO4.
    pub tau_model: f64,
    /// Model τ after the workload's least-squares scale fit.
    pub tau_model_scaled: f64,
}

impl XvalRow {
    /// Absolute relative τ error of the model against the simulation.
    pub fn rel_error(&self) -> f64 {
        (self.tau_model - self.tau_sim).abs() / self.tau_sim
    }

    /// Relative τ error after the per-workload scale fit — the shape
    /// error, scale-free like the paper's overlay comparisons.
    pub fn shape_error(&self) -> f64 {
        (self.tau_model_scaled - self.tau_sim).abs() / self.tau_sim
    }
}

/// The cross-validation result set.
#[derive(Debug, Clone, PartialEq)]
pub struct Xval {
    /// Every compared cell, in suite × depth order.
    pub rows: Vec<XvalRow>,
}

impl Xval {
    /// Mean relative τ error over all cells.
    pub fn mean_error(&self) -> f64 {
        self.rows.iter().map(XvalRow::rel_error).sum::<f64>() / self.rows.len() as f64
    }

    /// Largest relative τ error over all cells.
    pub fn max_error(&self) -> f64 {
        self.rows.iter().map(XvalRow::rel_error).fold(0.0, f64::max)
    }

    /// Mean shape error (post scale fit) over all cells.
    pub fn mean_shape_error(&self) -> f64 {
        self.rows.iter().map(XvalRow::shape_error).sum::<f64>() / self.rows.len() as f64
    }

    /// Largest shape error over all cells.
    pub fn max_shape_error(&self) -> f64 {
        self.rows
            .iter()
            .map(XvalRow::shape_error)
            .fold(0.0, f64::max)
    }

    /// Mean relative τ error of one class's cells.
    pub fn class_error(&self, class: WorkloadClass) -> f64 {
        let errs: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.class == class)
            .map(XvalRow::rel_error)
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    /// Mean shape error of one class's cells.
    pub fn class_shape_error(&self, class: WorkloadClass) -> f64 {
        let errs: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.class == class)
            .map(XvalRow::shape_error)
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// Runs the cross-validation against a context's (simulated) curves.
pub fn run_for(ctx: &Context) -> Xval {
    let model = AnalyticModel::paper();
    let mut rows = Vec::new();
    for curve in ctx.curves() {
        let profile = curve.extracted.profile();
        let mut workload_rows: Vec<XvalRow> = curve
            .points
            .iter()
            .map(|point| {
                let cell = cell_for(&curve.workload, profile, point.depth, &ctx.config);
                let out = model
                    .evaluate(&cell)
                    // analysis: allow(panic-path) — extracted profiles come
                    // from finished simulations, so these cells are valid
                    .expect("extracted cells are valid");
                XvalRow {
                    workload: curve.workload.name.clone(),
                    class: curve.workload.class,
                    depth: point.depth,
                    tau_sim: 1.0 / point.throughput,
                    tau_model: out.time_per_instruction_fo4,
                    tau_model_scaled: 0.0,
                }
            })
            .collect();
        // Least-squares scale s minimising Σ(s·τ_model − τ_sim)² over the
        // workload's depths.
        let num: f64 = workload_rows.iter().map(|r| r.tau_model * r.tau_sim).sum();
        let den: f64 = workload_rows
            .iter()
            .map(|r| r.tau_model * r.tau_model)
            .sum();
        let scale = if den > 0.0 { num / den } else { 1.0 };
        for row in &mut workload_rows {
            row.tau_model_scaled = scale * row.tau_model;
        }
        rows.extend(workload_rows);
    }

    Xval { rows }
}

impl fmt::Display for Xval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cross-validation — analytic model vs simulation, per-cell τ"
        )?;
        writeln!(f, "  {} cells", self.rows.len())?;
        writeln!(
            f,
            "  {:>8} {:>12} {:>12}",
            "class", "mean τ err", "shape err"
        )?;
        for class in WorkloadClass::ALL {
            writeln!(
                f,
                "  {:>8} {:>11.1}% {:>11.1}%",
                class.tag(),
                100.0 * self.class_error(class),
                100.0 * self.class_shape_error(class)
            )?;
        }
        writeln!(
            f,
            "  overall mean {:.1}% (max {:.1}%); after scale fit mean {:.1}% (max {:.1}%)",
            100.0 * self.mean_error(),
            100.0 * self.max_error(),
            100.0 * self.mean_shape_error(),
            100.0 * self.max_shape_error()
        )
    }
}

/// Registry spec: suite-wide model-vs-sim τ cross-validation.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "xval"
    }

    fn title(&self) -> &'static str {
        "model-vs-sim cross-validation (per-cell τ error)"
    }

    fn needs_curves(&self) -> bool {
        true
    }

    fn requires_sim(&self) -> bool {
        true
    }

    fn run(&self, ctx: &Context) -> ExperimentOutput {
        let xval = run_for(ctx);
        let mut t = Table::new(&[
            "workload",
            "class",
            "depth",
            "tau_sim",
            "tau_model",
            "rel_error",
            "tau_model_scaled",
            "shape_error",
        ]);
        for r in &xval.rows {
            t.push_row(vec![
                r.workload.clone(),
                r.class.tag().to_string(),
                r.depth.to_string(),
                r.tau_sim.to_string(),
                r.tau_model.to_string(),
                r.rel_error().to_string(),
                r.tau_model_scaled.to_string(),
                r.shape_error().to_string(),
            ])
            // analysis: allow(panic-path) — row width fixed by construction
            .expect("row width fixed by construction");
        }
        ExperimentOutput {
            summary: xval.to_string(),
            artifacts: vec![Artifact::new("xval.csv", t.to_csv())],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use crate::sweep::RunConfig;

    #[test]
    fn cross_validation_runs_and_bounds_error() {
        let cfg = RunConfig {
            warmup: 3_000,
            instructions: 6_000,
            depths: vec![6, 10, 14],
            ..RunConfig::default()
        };
        let ctx = Context::new(cfg, Runner::serial());
        let xval = run_for(&ctx);
        assert_eq!(xval.rows.len(), ctx.curves().len() * 3);
        for r in &xval.rows {
            assert!(r.tau_sim > 0.0 && r.tau_model > 0.0);
        }
        // The extraction carries a per-workload scale offset (hence the
        // paper's scale-only overlay fits), so the absolute error is only
        // sanity-bounded; the scale-free shape error is the tracked claim.
        assert!(
            xval.mean_error() < 1.0,
            "mean τ error {:.3} out of band",
            xval.mean_error()
        );
        assert!(
            xval.mean_shape_error() < 0.12,
            "mean shape error {:.3} out of band",
            xval.mean_shape_error()
        );
    }
}
