//! Figure 9: the effect of the latch-growth exponent β on the optimum
//! pipeline depth.
//!
//! Theory curves for β ∈ {1.0, 1.1, 1.3, 1.5, 1.8}: the optimum is a strong
//! function of β, shrinking as latch growth steepens; for β > 2 (with
//! m = 3) the optimum collapses toward a single-stage design.

use crate::extract::ExtractedParams;
use crate::sweep::RunConfig;
use pipedepth_core::{
    latch_growth_sweep, ClockGating, MetricExponent, PipelineModel, PowerParams, SweepConfig,
    TechParams,
};
use pipedepth_workloads::WorkloadClass;
use std::fmt;

/// Result of the Figure 9 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// Latch-growth exponents swept.
    pub betas: Vec<f64>,
    /// Optimum depth at each β (None ⇒ unpipelined/boundary).
    pub optima: Vec<Option<f64>>,
    /// Depths the normalised curves are sampled at.
    pub depths: Vec<f64>,
    /// Normalised metric curves, one per β.
    pub curves: Vec<(f64, Vec<f64>)>,
}

/// The β values of the paper's Fig. 9.
pub const BETAS: [f64; 5] = [1.0, 1.1, 1.3, 1.5, 1.8];

/// Runs Figure 9 for a workload-parameter extraction.
pub fn run_with_params(extracted: &ExtractedParams, config: &RunConfig) -> Fig9 {
    let power = PowerParams::with_leakage_fraction(
        config.leakage_fraction,
        &TechParams::paper(),
        config.ref_depth as f64,
    )
    .with_gating(ClockGating::Complete {
        kappa: extracted.kappa.max(1e-6),
    });
    let sweep = SweepConfig {
        tech: TechParams::paper(),
        workload: extracted.workload_params(),
        power,
        m: MetricExponent::BIPS3_PER_WATT,
        ref_depth: config.ref_depth as f64,
    };
    let points = latch_growth_sweep(&sweep, &BETAS);
    let depths: Vec<f64> = (1..=28).map(|p| p as f64).collect();
    let curves = BETAS
        .iter()
        .map(|&beta| {
            let model =
                PipelineModel::new(sweep.tech, sweep.workload, power.with_latch_growth(beta));
            let raw: Vec<f64> = depths
                .iter()
                .map(|&p| model.metric(p, MetricExponent::BIPS3_PER_WATT))
                .collect();
            let max = raw.iter().cloned().fold(f64::MIN, f64::max);
            (beta, raw.into_iter().map(|v| v / max).collect())
        })
        .collect();
    Fig9 {
        betas: BETAS.to_vec(),
        optima: points.iter().map(|p| p.optimum.depth()).collect(),
        depths,
        curves,
    }
}

/// Registry spec: the latch-growth-exponent sweep with `fig9.csv`.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn title(&self) -> &'static str {
        "optimum depth vs latch-growth exponent β (theory)"
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
            .map(|(beta, ys)| (format!("beta_{beta}"), ys.as_slice()))
            .collect();
        let columns: Vec<(&str, &[f64])> = named.iter().map(|(n, ys)| (n.as_str(), *ys)).collect();
        let table = crate::report::Table::from_series("depth", &fig.depths, &columns)
            .expect("β curves share the depth axis");
        let out = crate::experiment::ExperimentOutput {
            summary: fig.to_string(),
            artifacts: vec![crate::experiment::Artifact::new("fig9.csv", table.to_csv())],
        };
        let _ = ctx.outcomes.fig9.set(fig);
        out
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 9 — optimum depth vs latch-growth exponent β (theory)"
        )?;
        for (beta, opt) in self.betas.iter().zip(&self.optima) {
            match opt {
                Some(d) => writeln!(f, "  β = {beta:<4} → optimum {d:.1} stages")?,
                None => writeln!(f, "  β = {beta:<4} → no pipelined optimum")?,
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
    fn beta_shrinks_optimum() {
        let fig = run_with_params(&extracted(), &RunConfig::default());
        let depths: Vec<f64> = fig.optima.iter().map(|o| o.unwrap_or(1.0)).collect();
        for w in depths.windows(2) {
            assert!(w[1] < w[0], "optima must shrink with β: {depths:?}");
        }
    }

    #[test]
    fn beta_sensitivity_is_strong() {
        // "the optimum design point is a strong function of β": going from
        // 1.0 to 1.8 should at least halve the optimum.
        let fig = run_with_params(&extracted(), &RunConfig::default());
        let d_lo = fig.optima.first().unwrap().unwrap();
        let d_hi = fig.optima.last().unwrap().unwrap_or(1.0);
        assert!(d_hi < 0.6 * d_lo, "{d_lo} → {d_hi}");
    }

    #[test]
    fn curves_normalised_and_sampled() {
        let fig = run_with_params(&extracted(), &RunConfig::default());
        assert_eq!(fig.curves.len(), BETAS.len());
        for (_, ys) in &fig.curves {
            assert_eq!(ys.len(), fig.depths.len());
            let max = ys.iter().cloned().fold(f64::MIN, f64::max);
            assert!((max - 1.0).abs() < 1e-12);
        }
    }
}
