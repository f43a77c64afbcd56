//! Property test for the backend-agnostic evaluation layer: the analytic
//! model, fed the profile the simulation backend extracts at the reference
//! depth, must agree with the simulator on CPI *shape* across a
//! workload × depth grid.
//!
//! The extraction carries a per-workload scale offset (the reason the
//! paper's Fig. 4 overlays are scale-only fits), so the property is not
//! absolute equality: for each workload the model/sim CPI ratio must stay
//! inside a band around its own mean across depths, and inside loose
//! absolute bounds. The band is fitted per workload class — floating-point
//! traces carry a large depth-independent latency component the closed
//! forms flatten out, so their ratio legitimately drifts more with depth
//! than the integer classes'.

use pipedepth_core::eval::{AnalyticModel, CellSpec};
use pipedepth_experiments::eval::{cell_for, SimBackend};
use pipedepth_experiments::runner::Runner;
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_workloads::suite;
use std::sync::{Arc, OnceLock};

const DEPTHS: [u32; 5] = [4, 8, 12, 16, 20];
/// The grid workloads with their fitted shape-tolerance bands: maximum
/// allowed deviation of the model/sim CPI ratio from its own depth-mean.
const WORKLOADS: [(&str, f64); 3] = [("specint-00", 0.10), ("legacy-00", 0.10), ("fp-00", 0.45)];

/// One grid cell: CPI from both backends at (workload, depth).
struct GridRow {
    workload: &'static str,
    depth: u32,
    cpi_sim: f64,
    cpi_model: f64,
}

fn config() -> RunConfig {
    RunConfig {
        warmup: 4_000,
        instructions: 8_000,
        depths: DEPTHS.to_vec(),
        ..RunConfig::default()
    }
}

fn cell(workload: &str, depth: u32) -> CellSpec {
    let config = config();
    let w = suite()
        .into_iter()
        .find(|w| w.name == workload)
        .expect("grid workload is in the suite");
    // The profile slot is filled by the backend for simulation cells; the
    // analytic cells below get the sim-extracted one instead.
    let placeholder = pipedepth_core::WorkloadProfile {
        alpha: 1.0,
        gamma: 0.5,
        hazard_rate: 0.1,
        kappa: 0.2,
        memory_time_fo4: 10.0,
    };
    cell_for(&w, placeholder, depth, &config)
}

fn grid() -> &'static Vec<GridRow> {
    static GRID: OnceLock<Vec<GridRow>> = OnceLock::new();
    GRID.get_or_init(|| {
        let backend = SimBackend::new(Arc::new(Runner::serial()));
        let model = AnalyticModel::paper();
        let config = config();
        let mut rows = Vec::new();
        for (workload, _) in WORKLOADS {
            // Fit the analytic profile where the harness fits it: one
            // simulation at the reference depth.
            let fitted = backend
                .evaluate(&cell(workload, config.ref_depth))
                .expect("reference cell is valid")
                .profile;
            for depth in DEPTHS {
                let sim_cell = cell(workload, depth);
                let model_cell = CellSpec {
                    profile: fitted,
                    ..sim_cell.clone()
                };
                rows.push(GridRow {
                    workload,
                    depth,
                    cpi_sim: backend.evaluate(&sim_cell).expect("valid cell").cpi,
                    cpi_model: model.evaluate(&model_cell).expect("valid cell").cpi,
                });
            }
        }
        rows
    })
}

#[test]
fn grid_is_fully_populated_with_sane_cpi() {
    let grid = grid();
    assert_eq!(grid.len(), WORKLOADS.len() * DEPTHS.len());
    for row in grid {
        assert!(
            row.cpi_sim > 0.1 && row.cpi_sim.is_finite(),
            "{} d={}: sim CPI {}",
            row.workload,
            row.depth,
            row.cpi_sim
        );
        assert!(
            row.cpi_model > 0.0 && row.cpi_model.is_finite(),
            "{} d={}: model CPI {}",
            row.workload,
            row.depth,
            row.cpi_model
        );
    }
}

#[test]
fn backends_agree_on_cpi_within_the_fitted_band() {
    let grid = grid();
    for (workload, band) in WORKLOADS {
        let ratios: Vec<f64> = grid
            .iter()
            .filter(|r| r.workload == workload)
            .map(|r| r.cpi_model / r.cpi_sim)
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        for (depth, ratio) in DEPTHS.iter().zip(&ratios) {
            // Absolute band: the model must be in the simulator's ballpark
            // even before the scale fit.
            assert!(
                (0.4..=2.5).contains(ratio),
                "{workload} d={depth}: model/sim CPI ratio {ratio:.3} out of absolute band"
            );
            // Shape band: the ratio must be stable across depths, i.e. the
            // model tracks the simulated depth dependence.
            assert!(
                (ratio / mean - 1.0).abs() < band,
                "{workload} d={depth}: ratio {ratio:.3} strays >{:.0}% from workload mean {mean:.3}",
                100.0 * band
            );
        }
    }
}

#[test]
fn both_backends_are_deterministic() {
    let backend = SimBackend::new(Arc::new(Runner::serial()));
    let model = AnalyticModel::paper();
    let sim_cell = cell("specint-00", 12);
    let fitted = backend.evaluate(&sim_cell).expect("valid cell").profile;
    let model_cell = CellSpec {
        profile: fitted,
        ..sim_cell.clone()
    };
    assert_eq!(backend.evaluate(&sim_cell), backend.evaluate(&sim_cell));
    assert_eq!(model.evaluate(&model_cell), model.evaluate(&model_cell));
}
