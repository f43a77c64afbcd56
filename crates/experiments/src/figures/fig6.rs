//! Figure 6: the distribution of observed optimum pipeline depths over all
//! 55 workloads.
//!
//! For each workload the paper performs "a least squares fit to a cubic
//! equation" on the simulated (clock-gated) BIPS³/W points and takes the
//! fitted curve's maximum as the observed optimum. The resulting
//! distribution is centred near 8 stages (20 FO4 per stage).

use crate::sweep::WorkloadCurve;
use pipedepth_math::fit::cubic_peak_fit;
use pipedepth_math::histogram::Histogram;
use pipedepth_math::stats::Summary;
use pipedepth_workloads::WorkloadClass;
use std::fmt;

/// One workload's extracted optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOptimum {
    /// Workload name.
    pub name: String,
    /// Its class.
    pub class: WorkloadClass,
    /// Cubic-fit optimum depth (stages, continuous).
    pub cubic_fit_depth: f64,
    /// Grid argmax of the simulated points (for reference).
    pub grid_depth: u32,
    /// R² of the cubic fit.
    pub r_squared: f64,
}

/// Result of the Figure 6 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// Per-workload optima.
    pub optima: Vec<WorkloadOptimum>,
    /// Histogram over 1–25 stages (one bin per stage).
    pub histogram: Histogram,
    /// Summary statistics of the cubic-fit optima.
    pub summary: Summary,
}

impl Fig6 {
    /// Cycle time (FO4/stage) at the mean optimum, the paper's headline
    /// framing ("8 stages … 20 FO4").
    pub fn mean_fo4_per_stage(&self) -> f64 {
        2.5 + 140.0 / self.summary.mean
    }
}

/// Extracts the cubic-fit optimum from one sweep's gated BIPS³/W curve.
pub fn optimum_of(curve: &WorkloadCurve) -> WorkloadOptimum {
    let xs = curve.depths();
    let ys = curve.gated_series(3);
    let fit = cubic_peak_fit(&xs, &ys).expect("24-point sweep supports a cubic fit");
    WorkloadOptimum {
        name: curve.workload.name.clone(),
        class: curve.workload.class,
        cubic_fit_depth: fit.peak_x,
        grid_depth: curve.best_gated_m3_depth(),
        r_squared: fit.r_squared,
    }
}

/// Builds Figure 6 from finished sweeps.
pub fn from_curves(curves: &[WorkloadCurve]) -> Fig6 {
    let optima: Vec<WorkloadOptimum> = curves.iter().map(optimum_of).collect();
    let mut histogram = Histogram::new(1.0, 25.0, 24);
    for o in &optima {
        histogram.add(o.cubic_fit_depth);
    }
    let depths: Vec<f64> = optima.iter().map(|o| o.cubic_fit_depth).collect();
    let summary = Summary::of(&depths).expect("suite is non-empty");
    Fig6 {
        optima,
        histogram,
        summary,
    }
}

/// Registry spec: the full-suite optimum distribution with `fig6.csv`.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn title(&self) -> &'static str {
        "distribution of optimum depths over the suite"
    }

    fn needs_curves(&self) -> bool {
        true
    }

    fn run(&self, ctx: &crate::experiment::Context) -> crate::experiment::ExperimentOutput {
        let fig = from_curves(ctx.curves());
        let mut table = crate::report::Table::new(&[
            "workload",
            "class",
            "cubic_fit_depth",
            "grid_depth",
            "r_squared",
        ]);
        for o in &fig.optima {
            table
                .push_row(vec![
                    o.name.clone(),
                    o.class.tag().to_string(),
                    o.cubic_fit_depth.to_string(),
                    o.grid_depth.to_string(),
                    o.r_squared.to_string(),
                ])
                .expect("row width fixed by construction");
        }
        let out = crate::experiment::ExperimentOutput {
            summary: fig.to_string(),
            artifacts: vec![crate::experiment::Artifact::new("fig6.csv", table.to_csv())],
        };
        let _ = ctx.outcomes.fig6.set(fig);
        out
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 6 — distribution of optimum depths, all 55 workloads"
        )?;
        writeln!(
            f,
            "  mean {:.1} stages ({:.1} FO4), median {:.1}, mode bin {:.0}, range {:.1}–{:.1}",
            self.summary.mean,
            self.mean_fo4_per_stage(),
            self.summary.median,
            self.histogram.mode_center().unwrap_or(f64::NAN),
            self.summary.min,
            self.summary.max
        )?;
        write!(f, "{}", self.histogram.render_ascii(40))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use crate::sweep::RunConfig;
    use pipedepth_workloads::representatives;

    fn quick() -> RunConfig {
        RunConfig {
            warmup: 8_000,
            instructions: 16_000,
            depths: (2..=24).step_by(2).collect(),
            ..RunConfig::default()
        }
    }

    #[test]
    fn representative_optima_in_physical_range() {
        let curves: Vec<_> = representatives()
            .iter()
            .map(|w| runner::shared().sweep_workload(w, &quick()))
            .collect();
        let fig = from_curves(&curves);
        assert_eq!(fig.optima.len(), 4);
        for o in &fig.optima {
            assert!(
                o.cubic_fit_depth >= 2.0 && o.cubic_fit_depth <= 24.0,
                "{}: {}",
                o.name,
                o.cubic_fit_depth
            );
        }
        assert_eq!(fig.histogram.total(), 4);
    }

    #[test]
    fn cubic_fit_near_grid_argmax() {
        let curves: Vec<_> = representatives()
            .iter()
            .map(|w| runner::shared().sweep_workload(w, &quick()))
            .collect();
        for c in &curves {
            let o = optimum_of(c);
            assert!(
                (o.cubic_fit_depth - o.grid_depth as f64).abs() <= 6.0,
                "{}: cubic {} vs grid {}",
                o.name,
                o.cubic_fit_depth,
                o.grid_depth
            );
        }
    }

    #[test]
    fn fo4_conversion() {
        let curves: Vec<_> = representatives()
            .iter()
            .map(|w| runner::shared().sweep_workload(w, &quick()))
            .collect();
        let fig = from_curves(&curves);
        let fo4 = fig.mean_fo4_per_stage();
        assert!((fo4 - (2.5 + 140.0 / fig.summary.mean)).abs() < 1e-12);
    }
}
