//! Extension experiment: optimum depth as a function of the clock-gating
//! *degree*.
//!
//! The paper treats two endpoints — no gating (`f_cg = 1`) and complete
//! fine-grained gating — and notes that "partial clock gating leads to a
//! fractional value for f_cg". This experiment fills in the between: sweep
//! the fraction of latches that remain clocked every cycle and trace how
//! the BIPS³/W optimum migrates from the ungated to the gated design
//! point, in both the theory and the simulation-backed power model.

use crate::extract::ExtractedParams;
use crate::runner::{CellSpec, Runner};
use crate::sweep::RunConfig;
use pipedepth_core::{
    numeric_optimum, ClockGating, MetricExponent, PipelineModel, PowerParams, TechParams,
};
use pipedepth_power::{metric, Gating, PowerConfig};
use pipedepth_sim::SimConfig;
use pipedepth_workloads::{Workload, WorkloadClass};
use std::fmt;

/// The gating fractions swept (1.0 = ungated).
pub const FRACTIONS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.1];

/// Result of the gating-degree extension experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtGating {
    /// Workload studied.
    pub workload_name: String,
    /// Partial-gating fractions swept.
    pub fractions: Vec<f64>,
    /// Theory optimum at each fraction (None ⇒ unpipelined/boundary).
    pub theory_optima: Vec<Option<f64>>,
    /// Simulated grid optimum (BIPS³/W) at each fraction.
    pub sim_optima: Vec<u32>,
    /// Simulated grid optimum under complete (occupancy) gating, for
    /// reference.
    pub sim_complete_gating: u32,
}

/// Runs the sweep for one workload on the caller's runner. The simulation
/// side needs only one paper-machine run per depth — every gating degree
/// is a power-model post-processing of the same reports — so on a runner
/// that already swept the suite this experiment simulates nothing new.
pub fn run(
    runner: &Runner,
    workload: &Workload,
    extracted: &ExtractedParams,
    config: &RunConfig,
) -> ExtGating {
    // ---- Theory side -----------------------------------------------------
    let tech = TechParams::paper();
    let theory_optima = FRACTIONS
        .iter()
        .map(|&f| {
            let power = PowerParams::with_leakage_fraction(
                config.leakage_fraction,
                &tech,
                config.ref_depth as f64,
            )
            .with_gating(ClockGating::Partial(f));
            let model = PipelineModel::new(tech, extracted.workload_params(), power);
            numeric_optimum(&model, MetricExponent::BIPS3_PER_WATT).depth()
        })
        .collect();

    // ---- Simulation side -------------------------------------------------
    let cells: Vec<CellSpec> = config
        .depths
        .iter()
        .map(|&depth| {
            CellSpec::new(
                workload,
                SimConfig::paper(depth),
                config.warmup,
                config.instructions,
            )
        })
        .collect();
    let reports = runner.run_cells(&cells);
    let best_depth = |gating: Gating| -> u32 {
        let power = PowerConfig::paper(gating, config.leakage_fraction, config.ref_depth);
        let ys: Vec<f64> = reports.iter().map(|r| metric(r, &power, 3.0)).collect();
        let i = crate::series::argmax(&ys).expect("sweep has a finite metric value");
        config.depths[i]
    };
    let sim_optima = FRACTIONS
        .iter()
        .map(|&f| {
            if f >= 1.0 {
                best_depth(Gating::Ungated)
            } else {
                best_depth(Gating::Partial(f))
            }
        })
        .collect();
    ExtGating {
        workload_name: workload.name.clone(),
        fractions: FRACTIONS.to_vec(),
        theory_optima,
        sim_optima,
        sim_complete_gating: best_depth(Gating::Gated),
    }
}

/// Registry spec: the gating-degree sweep on the representative modern
/// workload.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "ext_gating"
    }

    fn title(&self) -> &'static str {
        "extension: optimum depth vs clock-gating degree"
    }

    fn needs_curves(&self) -> bool {
        true
    }

    fn requires_sim(&self) -> bool {
        true
    }

    fn run(&self, ctx: &crate::experiment::Context) -> crate::experiment::ExperimentOutput {
        let curve = ctx.curve_for(WorkloadClass::Modern);
        let fig = run(&ctx.runner, &curve.workload, &curve.extracted, &ctx.config);
        crate::experiment::ExperimentOutput::summary_only(fig.to_string())
    }
}

impl fmt::Display for ExtGating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extension — optimum vs gating degree ({}, BIPS³/W)",
            self.workload_name
        )?;
        writeln!(f, "  {:>9} {:>12} {:>10}", "f_cg", "theory opt", "sim opt")?;
        for ((frac, th), sim) in self
            .fractions
            .iter()
            .zip(&self.theory_optima)
            .zip(&self.sim_optima)
        {
            let th_s = th.map_or("unpiped".to_string(), |d| format!("{d:.1}"));
            writeln!(f, "  {frac:>9.2} {th_s:>12} {sim:>10}")?;
        }
        writeln!(
            f,
            "  complete occupancy gating: sim opt @{}",
            self.sim_complete_gating
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use pipedepth_workloads::suite_class;

    /// The experiment on the first modern workload, parameterised from its
    /// own sweep, as the registry spec runs it.
    fn quick_fig() -> ExtGating {
        let config = RunConfig {
            warmup: 6_000,
            instructions: 12_000,
            depths: (2..=20).step_by(2).collect(),
            ..RunConfig::default()
        };
        let w = suite_class(WorkloadClass::Modern)
            .into_iter()
            .next()
            .expect("modern class populated");
        let runner = runner::shared();
        let curve = runner.sweep_workload(&w, &config);
        run(runner, &w, &curve.extracted, &config)
    }

    #[test]
    fn less_clocking_means_deeper_optima() {
        let fig = quick_fig();
        // Simulated optima must not shrink as the gated fraction falls.
        for w in fig.sim_optima.windows(2) {
            assert!(
                w[1] >= w[0],
                "sim optima not monotone: {:?}",
                fig.sim_optima
            );
        }
        // And the theory agrees in direction.
        let th: Vec<f64> = fig.theory_optima.iter().map(|o| o.unwrap_or(1.0)).collect();
        for w in th.windows(2) {
            assert!(w[1] + 1e-9 >= w[0], "theory optima not monotone: {th:?}");
        }
    }

    #[test]
    fn complete_gating_at_least_as_deep_as_partial() {
        let fig = quick_fig();
        assert!(fig.sim_complete_gating >= fig.sim_optima[0]);
    }
}
