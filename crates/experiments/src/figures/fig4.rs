//! Figures 4a–4c: BIPS³/W vs. pipeline depth, simulation against theory,
//! with and without clock gating, for representative workloads of three
//! classes (modern, SPECint, floating point).
//!
//! The theory curves are parameterised from a single simulation run (the
//! reference depth) and fitted to the simulated points with the overall
//! scale factor as the only adjustable parameter, exactly as the paper
//! describes.

use crate::extract::{theory_curve, theory_model};
use crate::sweep::{RunConfig, WorkloadCurve};
use pipedepth_core::MetricExponent;
use pipedepth_math::fit::scale_fit;
use pipedepth_workloads::{Workload, WorkloadClass};
use std::fmt;

/// The classes of the paper's three panels, in order: 4a modern, 4b
/// SPECint, 4c floating point. Each panel shows the class's first suite
/// workload.
pub const PANEL_CLASSES: [WorkloadClass; 3] = [
    WorkloadClass::Modern,
    WorkloadClass::SpecInt,
    WorkloadClass::FloatingPoint,
];

/// One workload's panel of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Panel {
    /// Workload displayed.
    pub workload: Workload,
    /// Depths simulated.
    pub depths: Vec<f64>,
    /// Simulated gated BIPS³/W.
    pub sim_gated: Vec<f64>,
    /// Simulated ungated BIPS³/W.
    pub sim_ungated: Vec<f64>,
    /// Scale-fitted theory curve (gated).
    pub theory_gated: Vec<f64>,
    /// Scale-fitted theory curve (ungated).
    pub theory_ungated: Vec<f64>,
    /// R² of the gated theory fit.
    pub r2_gated: f64,
    /// R² of the ungated theory fit.
    pub r2_ungated: f64,
    /// Simulated gated peak depth (grid argmax).
    pub sim_gated_peak: u32,
    /// Simulated ungated peak depth.
    pub sim_ungated_peak: u32,
}

/// The three-panel Figure 4 result (modern, SPECint, floating point).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// Panels in the paper's order: 4a modern, 4b SPECint, 4c FP.
    pub panels: Vec<Fig4Panel>,
}

/// Builds one panel from a finished sweep.
pub fn panel_from_curve(curve: &WorkloadCurve, config: &RunConfig) -> Fig4Panel {
    let depths = curve.depths();
    let sim_gated = curve.gated_series(3);
    let sim_ungated = curve.ungated_series(3);
    let m3 = MetricExponent::BIPS3_PER_WATT;

    let gated_model = theory_model(
        &curve.extracted,
        true,
        config.leakage_fraction,
        config.ref_depth as f64,
        1.3,
    );
    let ungated_model = theory_model(
        &curve.extracted,
        false,
        config.leakage_fraction,
        config.ref_depth as f64,
        1.3,
    );
    let raw_gated = theory_curve(&gated_model, &depths, m3);
    let raw_ungated = theory_curve(&ungated_model, &depths, m3);
    let fit_g = scale_fit(&sim_gated, &raw_gated).expect("non-degenerate theory curve");
    let fit_u = scale_fit(&sim_ungated, &raw_ungated).expect("non-degenerate theory curve");

    let peak_of = |ys: &[f64]| -> u32 {
        crate::series::peak_x(&depths, ys).expect("sweep has a finite metric value") as u32
    };
    Fig4Panel {
        workload: curve.workload.clone(),
        sim_gated_peak: peak_of(&sim_gated),
        sim_ungated_peak: peak_of(&sim_ungated),
        theory_gated: raw_gated.iter().map(|v| v * fit_g.scale).collect(),
        theory_ungated: raw_ungated.iter().map(|v| v * fit_u.scale).collect(),
        r2_gated: fit_g.r_squared,
        r2_ungated: fit_u.r_squared,
        depths,
        sim_gated,
        sim_ungated,
    }
}

/// Registry spec: build the three panels from the shared suite sweep and
/// emit `fig4a.csv`–`fig4c.csv` plus a terminal chart of panel 4a.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn title(&self) -> &'static str {
        "BIPS³/W vs depth, theory against simulation (3 panels)"
    }

    fn needs_curves(&self) -> bool {
        true
    }

    fn run(&self, ctx: &crate::experiment::Context) -> crate::experiment::ExperimentOutput {
        let fig = Fig4 {
            panels: PANEL_CLASSES
                .iter()
                .map(|&c| panel_from_curve(ctx.curve_for(c), &ctx.config))
                .collect(),
        };

        let mut summary = fig.to_string();
        let p = &fig.panels[0];
        summary.push_str(&format!(
            "  [4a {}] g=sim gated  u=sim ungated  t=theory gated\n",
            p.workload.name
        ));
        summary.push_str(
            &crate::plot::Chart::new(&p.depths)
                .series('t', &p.theory_gated)
                .series('g', &p.sim_gated)
                .series('u', &p.sim_ungated)
                .size(64, 14)
                .render(),
        );

        let artifacts = ["fig4a.csv", "fig4b.csv", "fig4c.csv"]
            .iter()
            .zip(&fig.panels)
            .map(|(name, p)| {
                let table = crate::report::Table::from_series(
                    "depth",
                    &p.depths,
                    &[
                        ("sim_gated", &p.sim_gated),
                        ("sim_ungated", &p.sim_ungated),
                        ("theory_gated", &p.theory_gated),
                        ("theory_ungated", &p.theory_ungated),
                    ],
                )
                .expect("panel series share the depth axis");
                crate::experiment::Artifact::new(*name, table.to_csv())
            })
            .collect();
        crate::experiment::ExperimentOutput { summary, artifacts }
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 4 — BIPS³/W vs depth, theory vs simulation")?;
        for (label, p) in ["4a", "4b", "4c"].iter().zip(&self.panels) {
            writeln!(
                f,
                "  {label} {:<12} gated peak @{:>2} (theory R²={:.3}); ungated peak @{:>2} (R²={:.3})",
                p.workload.name, p.sim_gated_peak, p.r2_gated, p.sim_ungated_peak, p.r2_ungated
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use pipedepth_workloads::suite_class;

    fn quick() -> RunConfig {
        RunConfig {
            warmup: 8_000,
            instructions: 16_000,
            depths: (2..=24).step_by(2).collect(),
            ..RunConfig::default()
        }
    }

    /// The three panels under [`quick`], each from its class's first
    /// workload.
    fn quick_fig() -> Fig4 {
        let config = quick();
        let panels = PANEL_CLASSES
            .iter()
            .map(|&c| {
                let w = suite_class(c).into_iter().next().expect("class populated");
                panel_from_curve(&runner::shared().sweep_workload(&w, &config), &config)
            })
            .collect();
        Fig4 { panels }
    }

    #[test]
    fn three_panels_in_paper_order() {
        let fig = quick_fig();
        assert_eq!(fig.panels.len(), 3);
        assert_eq!(fig.panels[0].workload.class, WorkloadClass::Modern);
        assert_eq!(fig.panels[1].workload.class, WorkloadClass::SpecInt);
        assert_eq!(fig.panels[2].workload.class, WorkloadClass::FloatingPoint);
    }

    #[test]
    fn gated_curve_sits_above_ungated() {
        // The paper: "The non-clock gated data fall below the clock gated
        // data because of the larger power usage in the latter case."
        let fig = quick_fig();
        for p in &fig.panels {
            for (g, u) in p.sim_gated.iter().zip(&p.sim_ungated) {
                assert!(g > u);
            }
        }
    }

    #[test]
    fn gating_pushes_peak_deeper_or_equal() {
        let fig = quick_fig();
        for p in &fig.panels {
            assert!(
                p.sim_gated_peak >= p.sim_ungated_peak,
                "{}: gated {} vs ungated {}",
                p.workload.name,
                p.sim_gated_peak,
                p.sim_ungated_peak
            );
        }
    }

    #[test]
    fn theory_tracks_simulation() {
        // "the theory gives a reasonable account of the simulations":
        // require a decent R² for the integer-class panels (FP is the
        // noisiest in the paper too).
        let fig = quick_fig();
        assert!(
            fig.panels[0].r2_gated > 0.6,
            "modern R² {}",
            fig.panels[0].r2_gated
        );
        assert!(
            fig.panels[1].r2_gated > 0.6,
            "specint R² {}",
            fig.panels[1].r2_gated
        );
    }
}
