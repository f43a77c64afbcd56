//! Figure 8: the effect of leakage power on the optimum pipeline depth.
//!
//! Theory curves (normalised to their own maxima) for leakage fractions
//! from 0% to 90% of total power, dynamic power held constant. The paper's
//! finding: growing leakage pushes the optimum *deeper* (7 → 14 stages in
//! its example).

use crate::extract::ExtractedParams;
use crate::sweep::RunConfig;
use pipedepth_core::{
    leakage_sweep, normalized_leakage_curves, ClockGating, MetricExponent, PowerParams,
    SweepConfig, TechParams,
};
use pipedepth_workloads::WorkloadClass;
use std::fmt;

/// Result of the Figure 8 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8 {
    /// Leakage fractions swept.
    pub fractions: Vec<f64>,
    /// Optimum depth at each fraction (None ⇒ unpipelined/boundary).
    pub optima: Vec<Option<f64>>,
    /// Depths the normalised curves are sampled at.
    pub depths: Vec<f64>,
    /// Normalised metric curves, one per fraction.
    pub curves: Vec<(f64, Vec<f64>)>,
}

/// The leakage fractions of the paper's Fig. 8.
pub const FRACTIONS: [f64; 5] = [0.0, 0.15, 0.30, 0.50, 0.90];

/// Runs Figure 8 for a workload-parameter extraction (from a SPECint
/// workload simulation, as the paper uses).
pub fn run_with_params(extracted: &ExtractedParams, config: &RunConfig) -> Fig8 {
    let sweep = SweepConfig {
        tech: TechParams::paper(),
        workload: extracted.workload_params(),
        power: PowerParams::paper().with_gating(ClockGating::Complete {
            kappa: extracted.kappa.max(1e-6),
        }),
        m: MetricExponent::BIPS3_PER_WATT,
        ref_depth: config.ref_depth as f64,
    };
    let points = leakage_sweep(&sweep, &FRACTIONS);
    let depths: Vec<f64> = (1..=28).map(|p| p as f64).collect();
    let curves = normalized_leakage_curves(&sweep, &FRACTIONS, &depths);
    Fig8 {
        fractions: FRACTIONS.to_vec(),
        optima: points.iter().map(|p| p.optimum.depth()).collect(),
        depths,
        curves,
    }
}

/// Registry spec: the leakage sweep, parameterised from the representative
/// SPECint extraction, with `fig8.csv`.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn title(&self) -> &'static str {
        "optimum depth vs leakage fraction (theory)"
    }

    fn needs_curves(&self) -> bool {
        true
    }

    fn run(&self, ctx: &crate::experiment::Context) -> crate::experiment::ExperimentOutput {
        let spec_curve = ctx.curve_for(WorkloadClass::SpecInt);
        let fig = run_with_params(&spec_curve.extracted, &ctx.config);
        let named: Vec<(String, &[f64])> = fig
            .curves
            .iter()
            .map(|(frac, ys)| (format!("leak_{:.0}pct", frac * 100.0), ys.as_slice()))
            .collect();
        let columns: Vec<(&str, &[f64])> = named.iter().map(|(n, ys)| (n.as_str(), *ys)).collect();
        let table = crate::report::Table::from_series("depth", &fig.depths, &columns)
            .expect("leakage curves share the depth axis");
        let out = crate::experiment::ExperimentOutput {
            summary: fig.to_string(),
            artifacts: vec![crate::experiment::Artifact::new("fig8.csv", table.to_csv())],
        };
        let _ = ctx.outcomes.fig8.set(fig);
        out
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 8 — optimum depth vs leakage fraction (theory)")?;
        for (frac, opt) in self.fractions.iter().zip(&self.optima) {
            match opt {
                Some(d) => writeln!(
                    f,
                    "  leakage {:>3.0}% → optimum {d:.1} stages",
                    frac * 100.0
                )?,
                None => writeln!(f, "  leakage {:>3.0}% → no pipelined optimum", frac * 100.0)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extracted() -> ExtractedParams {
        ExtractedParams {
            alpha: 2.5,
            gamma: 0.4,
            hazard_rate: 0.15,
            kappa: 0.5,
            memory_time_fo4: 0.0,
            ref_depth: 10,
        }
    }

    #[test]
    fn leakage_deepens_optimum_monotonically() {
        let fig = run_with_params(&extracted(), &RunConfig::default());
        let depths: Vec<f64> = fig
            .optima
            .iter()
            .map(|o| o.expect("optimum exists"))
            .collect();
        for w in depths.windows(2) {
            assert!(w[1] > w[0], "not monotone: {depths:?}");
        }
    }

    #[test]
    fn ninety_percent_roughly_doubles_zero_percent() {
        // The paper: 7 stages at ~0% leakage → 14 at 90%.
        let fig = run_with_params(&extracted(), &RunConfig::default());
        let d0 = fig.optima.first().unwrap().unwrap();
        let d90 = fig.optima.last().unwrap().unwrap();
        let ratio = d90 / d0;
        assert!(ratio > 1.5 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn curves_are_normalised() {
        let fig = run_with_params(&extracted(), &RunConfig::default());
        for (_, ys) in &fig.curves {
            let max = ys.iter().cloned().fold(f64::MIN, f64::max);
            assert!((max - 1.0).abs() < 1e-12);
        }
    }
}
