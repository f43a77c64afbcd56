//! Backend selection and the simulation backend.
//!
//! [`pipedepth_core::eval`] defines the backend-agnostic evaluation layer:
//! [`CellSpec`] requests, [`EvalOutcome`] rows and the closed-form
//! [`AnalyticModel`]. This module supplies the other half:
//!
//! * [`SimBackend`] — the cycle-accurate backend, answering evaluation
//!   cells from the cell [`Runner`] (and its simulation cache);
//! * [`Backend`] — the `--backend {sim,model}` selector shared by the
//!   `repro` and `sweep` binaries, and [`curves`], the depth sweeps of a
//!   workload set under either one;
//! * [`fitted_profile`] / [`model_curves`] — per-workload analytic
//!   profiles (class means fitted from reference simulations, spread by a
//!   deterministic per-workload perturbation, mirroring how the suite
//!   itself perturbs the class trace models) and full analytic
//!   [`WorkloadCurve`] sweeps built from them, so every figure can be
//!   regenerated without instantiating a single simulator type.

use crate::extract::{extract_from_report, ExtractedParams};
use crate::runner::{CellSpec as SimCell, Runner};
use crate::sweep::{DepthPoint, RunConfig, WorkloadCurve};
use pipedepth_core::eval::{AnalyticModel, CellSpec, EvalError, EvalOutcome, WorkloadProfile};
use pipedepth_power::{measure, metric, Gating, PowerConfig};
use pipedepth_sim::{SimConfig, SimReport};
use pipedepth_workloads::{suite, Workload, WorkloadClass};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Which evaluation backend a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Cycle-accurate simulation only (the historical behaviour).
    #[default]
    Sim,
    /// Closed-form analytic model only: no simulator in the call path.
    Model,
}

impl Backend {
    /// Every backend, in documentation order.
    pub const ALL: [Backend; 2] = [Backend::Sim, Backend::Model];

    /// The stable CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Model => "model",
        }
    }

    /// Whether this backend runs the simulator.
    pub fn uses_sim(self) -> bool {
        self == Backend::Sim
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error for an unrecognised `--backend` value, listing the valid names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend(pub String);

impl fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend \"{}\" (valid backends: sim, model)",
            self.0
        )
    }
}

impl std::error::Error for UnknownBackend {}

impl FromStr for Backend {
    type Err = UnknownBackend;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Backend::ALL
            .into_iter()
            .find(|b| b.as_str() == s)
            .ok_or_else(|| UnknownBackend(s.to_string()))
    }
}

/// Per-class analytic base profiles: suite means of the reference-depth
/// extractions (quick configuration, depth 10), fitted once and pinned.
/// Each field's half-span mirrors the spread observed across that class's
/// suite members, so analytic distributions (Figs. 6/7) stay
/// non-degenerate.
fn class_base(class: WorkloadClass) -> (WorkloadProfile, WorkloadProfile) {
    let (base, span) = match class {
        WorkloadClass::Legacy => (
            [1.173, 0.579, 0.233, 0.2218, 22.0],
            [0.08, 0.10, 0.09, 0.002, 0.38],
        ),
        WorkloadClass::SpecInt => (
            [2.631, 0.337, 0.175, 0.2185, 4.04],
            [0.11, 0.09, 0.20, 0.0015, 0.90],
        ),
        WorkloadClass::Modern => (
            [1.785, 0.417, 0.199, 0.2206, 16.9],
            [0.12, 0.10, 0.20, 0.002, 0.36],
        ),
        WorkloadClass::FloatingPoint => (
            [2.272, 1.048, 0.057, 0.219, 45.2],
            [0.17, 0.30, 0.51, 0.023, 0.28],
        ),
    };
    (
        WorkloadProfile {
            alpha: base[0],
            gamma: base[1],
            hazard_rate: base[2],
            kappa: base[3],
            memory_time_fo4: base[4],
        },
        WorkloadProfile {
            alpha: span[0],
            gamma: span[1],
            hazard_rate: span[2],
            kappa: span[3],
            memory_time_fo4: span[4],
        },
    )
}

/// A deterministic value in `[-1, 1]` from a workload's trace seed and a
/// per-field lane, via splitmix-style mixing. No RNG state: the same
/// workload always perturbs the same way.
fn unit_jitter(seed: u64, lane: u64) -> f64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
}

/// The fitted analytic profile of one suite workload: its class base
/// perturbed deterministically within the class's observed spread.
pub fn fitted_profile(workload: &Workload) -> WorkloadProfile {
    let (base, span) = class_base(workload.class);
    let s = workload.trace_seed;
    let vary = |b: f64, rel: f64, lane: u64| b * (1.0 + rel * unit_jitter(s, lane));
    WorkloadProfile {
        alpha: vary(base.alpha, span.alpha, 1).max(1.0),
        gamma: vary(base.gamma, span.gamma, 2).clamp(1e-3, 1.5),
        hazard_rate: vary(base.hazard_rate, span.hazard_rate, 3).max(1e-4),
        kappa: vary(base.kappa, span.kappa, 4).max(1e-6),
        memory_time_fo4: vary(base.memory_time_fo4, span.memory_time_fo4, 5).max(0.0),
    }
}

/// The evaluation request for one `(workload, depth)` cell under a run
/// configuration's power calibration.
pub fn cell_for(
    workload: &Workload,
    profile: WorkloadProfile,
    depth: u32,
    config: &RunConfig,
) -> CellSpec {
    CellSpec {
        workload: workload.name.clone(),
        profile,
        depth,
        warmup: config.warmup,
        instructions: config.instructions,
        leakage_fraction: config.leakage_fraction,
        ref_depth: config.ref_depth as f64,
        latch_growth: 1.3,
    }
}

/// Full analytic depth sweeps for a set of workloads — the model-backend
/// replacement for [`Runner::sweep_all`]. No simulator type is touched:
/// each curve is the closed-form evaluation of the workload's
/// [`fitted_profile`] across the configured depths.
pub fn model_curves(workloads: &[Workload], config: &RunConfig) -> Vec<WorkloadCurve> {
    let model = AnalyticModel::paper();
    workloads
        .iter()
        .map(|w| {
            let profile = fitted_profile(w);
            let points = config
                .depths
                .iter()
                .map(|&depth| {
                    let out = model
                        .evaluate(&cell_for(w, profile, depth, config))
                        // analysis: allow(panic-path) — fitted profiles are
                        // finite and clamped, so these cells never fail
                        .expect("fitted cells are valid by construction");
                    DepthPoint {
                        depth,
                        throughput: out.throughput,
                        metric_gated: out.metric_gated,
                        metric_ungated: out.metric_ungated,
                        cpi: out.cpi,
                    }
                })
                .collect();
            WorkloadCurve {
                workload: w.clone(),
                points,
                extracted: ExtractedParams::from_profile(&profile, config.ref_depth),
            }
        })
        .collect()
}

/// The depth sweeps of `workloads` under `backend`: simulated on `runner`
/// under `sim`, evaluated in closed form by [`model_curves`] under `model`,
/// which leaves the runner untouched.
pub fn curves(
    backend: Backend,
    runner: &Runner,
    workloads: &[Workload],
    config: &RunConfig,
) -> Vec<WorkloadCurve> {
    match backend {
        Backend::Sim => runner.sweep_all(workloads, config),
        Backend::Model => model_curves(workloads, config),
    }
}

/// The cycle-accurate backend: answers evaluation cells from the cell
/// [`Runner`] (worker pool, simulation cache, annotation store). Outcomes
/// are derived from the [`SimReport`] exactly as the sweep layer derives
/// its [`DepthPoint`]s, so evaluating a swept cell reproduces the curve's
/// numbers bit for bit (and hits the runner's cache instead of
/// re-simulating).
pub struct SimBackend {
    runner: Arc<Runner>,
    by_name: BTreeMap<String, Workload>,
}

impl SimBackend {
    /// A simulation backend resolving workload ids against the full suite.
    pub fn new(runner: Arc<Runner>) -> Self {
        Self::with_workloads(runner, &suite())
    }

    /// A simulation backend resolving workload ids against an explicit
    /// workload set (tests and custom sweeps).
    pub fn with_workloads(runner: Arc<Runner>, workloads: &[Workload]) -> Self {
        SimBackend {
            runner,
            by_name: workloads
                .iter()
                .map(|w| (w.name.clone(), w.clone()))
                .collect(),
        }
    }

    /// The underlying cell runner.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// The outcome of `cell` if the runner's cache already holds its
    /// report, derived with the cell's own power calibration; `Ok(None)`
    /// when the cell would have to be simulated. Never simulates: a cached
    /// cell under a new leakage setting is answered here, from the same
    /// report.
    ///
    /// # Errors
    ///
    /// The `invalid_cell` error [`SimBackend::evaluate`] would answer, for
    /// a cell no simulation can run, so a caller can refuse it without a
    /// dispatch.
    pub fn cached(&self, cell: &CellSpec) -> Result<Option<EvalOutcome>, EvalError> {
        let sim_cell = self.prepare(cell)?;
        Ok(self
            .runner
            .cached(&sim_cell)
            .map(|report| outcome_from_report(&report, cell)))
    }

    /// Resolves one evaluation cell into a runnable simulation cell,
    /// rejecting unknown workloads, out-of-range machines and empty
    /// measurement windows as values.
    fn prepare(&self, cell: &CellSpec) -> Result<SimCell, EvalError> {
        cell.validate()?;
        // `validate` cannot check this: analytic cells carry a zero window.
        if cell.instructions == 0 {
            return Err(EvalError::invalid(
                "instructions must be at least 1: a simulation measures at least one instruction",
            ));
        }
        let workload = self
            .by_name
            .get(&cell.workload)
            .ok_or_else(|| EvalError::invalid(format!("unknown workload \"{}\"", cell.workload)))?;
        let config =
            SimConfig::try_paper(cell.depth).map_err(|e| EvalError::invalid(e.to_string()))?;
        Ok(SimCell::new(
            workload,
            config,
            cell.warmup,
            cell.instructions,
        ))
    }

    /// Simulates the cell (or retrieves it from the runner's cache) and
    /// reduces the report to the common outcome row.
    ///
    /// # Errors
    ///
    /// `invalid_cell` for an unknown workload, a depth outside the
    /// machine's range or an empty or oversized measurement window.
    pub fn evaluate(&self, cell: &CellSpec) -> Result<EvalOutcome, EvalError> {
        let sim_cell = self.prepare(cell)?;
        let report = &self.runner.run_cells(std::slice::from_ref(&sim_cell))[0];
        Ok(outcome_from_report(report, cell))
    }

    /// Answers the whole batch in **one** runner dispatch: invalid cells
    /// fail fast as values, every runnable cell joins a single
    /// [`Runner::run_cells`] call (which coalesces duplicates, replays
    /// depth mates in one pass and fans out over the worker pool once),
    /// and outcomes are mapped back in order.
    pub fn evaluate_batch(&self, cells: &[CellSpec]) -> Vec<Result<EvalOutcome, EvalError>> {
        let prepared: Vec<Result<SimCell, EvalError>> =
            cells.iter().map(|cell| self.prepare(cell)).collect();
        let runnable: Vec<SimCell> = prepared
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .copied()
            .collect();
        let reports = self.runner.run_cells(&runnable);
        let mut reports = reports.iter();
        prepared
            .into_iter()
            .zip(cells)
            .map(|(prep, cell)| {
                prep.map(|_| {
                    // analysis: allow(panic-path) — run_cells returns one
                    // report per runnable cell, in order, by contract
                    let report = reports.next().expect("one report per runnable cell");
                    outcome_from_report(report, cell)
                })
            })
            .collect()
    }
}

impl fmt::Debug for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBackend")
            .field("workloads", &self.by_name.len())
            .finish()
    }
}

/// Reduces a finished simulation report to the common outcome row, using
/// the cell's power calibration.
pub fn outcome_from_report(report: &SimReport, cell: &CellSpec) -> EvalOutcome {
    let ref_depth = cell.ref_depth.round().max(2.0) as u32;
    let gated = PowerConfig::paper(Gating::Gated, cell.leakage_fraction, ref_depth);
    let ungated = PowerConfig::paper(Gating::Ungated, cell.leakage_fraction, ref_depth);
    let tau = report.time_per_instruction_fo4();
    EvalOutcome {
        depth: cell.depth,
        cpi: report.cpi(),
        frequency: 1.0 / report.config.cycle_time_fo4(),
        time_per_instruction_fo4: tau,
        throughput: report.throughput(),
        power_gated: measure(report, &gated).total(),
        power_ungated: measure(report, &ungated).total(),
        metric_gated: [
            metric(report, &gated, 1.0),
            metric(report, &gated, 2.0),
            metric(report, &gated, 3.0),
        ],
        metric_ungated: [
            metric(report, &ungated, 1.0),
            metric(report, &ungated, 2.0),
            metric(report, &ungated, 3.0),
        ],
        profile: extract_from_report(report, &gated).profile(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_workloads::representatives;

    fn tiny() -> RunConfig {
        RunConfig {
            warmup: 2_000,
            instructions: 4_000,
            depths: vec![4, 8, 12],
            ..RunConfig::default()
        }
    }

    #[test]
    fn backend_parses_and_rejects() {
        assert_eq!("sim".parse::<Backend>().unwrap(), Backend::Sim);
        assert_eq!("model".parse::<Backend>().unwrap(), Backend::Model);
        for name in ["both", "cuda"] {
            let err = name.parse::<Backend>().unwrap_err();
            assert!(err.to_string().contains("valid backends: sim, model)"));
        }
    }

    #[test]
    fn fitted_profiles_are_deterministic_and_distinct() {
        let ws = suite();
        let profiles: Vec<WorkloadProfile> = ws.iter().map(fitted_profile).collect();
        let again: Vec<WorkloadProfile> = ws.iter().map(fitted_profile).collect();
        assert_eq!(profiles, again, "profiles are pure functions of the suite");
        // Members of the same class must not collapse onto one point, or
        // the analytic optimum distribution (Fig. 6) degenerates.
        let alphas: Vec<f64> = ws
            .iter()
            .zip(&profiles)
            .filter(|(w, _)| w.class == WorkloadClass::SpecInt)
            .map(|(_, p)| p.alpha)
            .collect();
        let spread = alphas.iter().cloned().fold(f64::MIN, f64::max)
            - alphas.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 1e-3, "specint α spread {spread} is degenerate");
    }

    #[test]
    fn model_curves_cover_every_depth_and_respect_gating() {
        let ws = representatives();
        let curves = model_curves(&ws, &tiny());
        assert_eq!(curves.len(), ws.len());
        for curve in &curves {
            assert_eq!(curve.depths(), vec![4.0, 8.0, 12.0]);
            for p in &curve.points {
                assert!(p.throughput > 0.0);
                for k in 0..3 {
                    assert!(p.metric_gated[k] > p.metric_ungated[k]);
                }
            }
            assert_eq!(curve.extracted.ref_depth, tiny().ref_depth);
        }
    }

    #[test]
    fn sim_backend_matches_the_sweep_layer_exactly() {
        let runner = Arc::new(Runner::serial());
        let cfg = tiny();
        let w = &representatives()[1];
        let curve = runner.sweep_workload(w, &cfg);
        let backend = SimBackend::with_workloads(Arc::clone(&runner), std::slice::from_ref(w));
        for point in &curve.points {
            let cell = cell_for(w, fitted_profile(w), point.depth, &cfg);
            let out = backend.evaluate(&cell).expect("swept cells are valid");
            assert_eq!(out.cpi, point.cpi, "depth {}", point.depth);
            assert_eq!(out.throughput, point.throughput);
            assert_eq!(out.metric_gated, point.metric_gated);
            assert_eq!(out.metric_ungated, point.metric_ungated);
            assert_eq!(
                backend.cached(&cell),
                Ok(Some(out)),
                "answered without a run"
            );
        }
        let unswept = cell_for(w, fitted_profile(w), 6, &cfg);
        assert_eq!(backend.cached(&unswept), Ok(None), "never simulates");
    }

    #[test]
    fn sim_backend_rejects_unknown_workloads_as_values() {
        let backend = SimBackend::with_workloads(Arc::new(Runner::serial()), &[]);
        let w = &representatives()[0];
        let err = backend
            .evaluate(&cell_for(w, fitted_profile(w), 8, &tiny()))
            .expect_err("no workloads registered");
        assert_eq!(err.code(), "invalid_cell");
        assert!(err.to_string().contains("unknown workload"));
    }

    #[test]
    fn sim_backend_rejects_out_of_range_cells_as_values() {
        let runner = Arc::new(Runner::serial());
        let w = &representatives()[0];
        let backend = SimBackend::with_workloads(Arc::clone(&runner), std::slice::from_ref(w));
        let cell = |depth: u32, warmup: u64, instructions: u64| CellSpec {
            warmup,
            instructions,
            ..cell_for(w, fitted_profile(w), depth, &tiny())
        };
        for bad in [
            cell(99, 2_000, 4_000), // outside the machine's depth range
            cell(8, 0, 0),          // nothing to measure
            cell(8, u64::MAX, 5),   // a window that wraps
            cell(8, 0, 10_000_000_000_000),
        ] {
            let err = backend.evaluate(&bad).expect_err("not simulable");
            assert_eq!(err.code(), "invalid_cell");
            assert_eq!(backend.cached(&bad), Err(err), "refused without a run");
        }
        let stats = runner.cache_stats().expect("always Some");
        assert_eq!(stats.requested(), 0, "no bad cell reached the runner");
    }

    #[test]
    fn batch_evaluation_is_one_dispatch_and_matches_single_cells() {
        let runner = Arc::new(Runner::serial());
        let cfg = tiny();
        let w = &representatives()[0];
        let backend = SimBackend::with_workloads(Arc::clone(&runner), std::slice::from_ref(w));
        let mut cells: Vec<CellSpec> = cfg
            .depths
            .iter()
            .map(|&d| cell_for(w, fitted_profile(w), d, &cfg))
            .collect();
        // An invalid cell in the middle must not poison its neighbours.
        cells.insert(1, cell_for(w, fitted_profile(w), 99, &cfg));
        let batch = backend.evaluate_batch(&cells);
        assert_eq!(batch.len(), cells.len());
        assert!(batch[1].is_err(), "invalid cell fails as a value");
        // One dispatch: the runner saw exactly the runnable cells, once.
        let stats = runner.cache_stats().expect("always Some");
        assert_eq!(stats.requested(), cfg.depths.len() as u64);
        for (i, result) in batch.iter().enumerate() {
            if i == 1 {
                continue;
            }
            let single = backend.evaluate(&cells[i]).expect("valid cell");
            assert_eq!(result.as_ref().expect("valid cell"), &single);
        }
    }

    #[test]
    fn crate_error_wraps_sim_config_rejections_with_source() {
        use std::error::Error as _;
        let rejection = SimConfig::try_paper(99).expect_err("depth 99 invalid");
        let err = pipedepth_core::Error::config(rejection);
        assert!(err.to_string().contains("configuration rejected"));
        let source = err.source().expect("source preserved");
        assert!(source.to_string().contains("99"), "source: {source}");
    }
}
