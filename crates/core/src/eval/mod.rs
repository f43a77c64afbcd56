//! Backend-agnostic evaluation of pipeline configurations.
//!
//! The workspace has two ways to score a `(workload, depth)` cell: the
//! paper's closed-form analytic model (Eqs. 1, 3 and 4, as implemented by
//! [`PerfModel`](crate::PerfModel) / [`PipelineModel`](crate::PipelineModel))
//! and the cycle-accurate simulator in `pipedepth-sim`. Historically the
//! experiment harness was wired to the simulator only, with the analytic
//! model bolted on per-figure for overlays. This module unifies both behind
//! one interface:
//!
//! * [`CellSpec`] — one evaluation request: a workload (by stable id, plus
//!   its fitted [`WorkloadProfile`]), a pipeline depth, and the power
//!   calibration shared by every backend;
//! * [`EvalOutcome`] — the common result row: CPI, clock frequency,
//!   per-instruction time, throughput, gated/ungated power and the six
//!   `BIPS^m/W` metrics;
//! * [`AnalyticModel`] — the closed-form backend, evaluating the paper's
//!   extended theory (`τ_total = τ(p) + t_mem`) directly from the profile;
//! * [`ShardedCache`] / [`TieredCache`] — the concurrent result cache:
//!   the experiment runner keeps its simulation reports in one, and the
//!   `pipedepth-serve` service memoises the outcomes it derives from
//!   them in another (see [`cache`](crate::eval::cache)).
//!
//! The simulation backend, `SimBackend`, lives in the experiments crate
//! (the simulator does not depend on this crate) and answers the same
//! [`CellSpec`] with the same [`EvalOutcome`] row.
//!
//! Power scale: both backends report power in the model's own per-latch
//! units (`P_d = 1`). Absolute watts are out of scope throughout the
//! workspace — every figure is scale-free or normalised — so outcomes are
//! comparable *within* a backend and, for CPI/throughput, across backends.

/// The sharded, backend-agnostic result cache.
pub mod cache;
/// The two-tier (memory + warm disk image) cache built on [`cache`].
pub mod tiered;

/// The sharded cache and its counters (see [`cache`]).
pub use cache::{CacheStats, ShardedCache};
/// The tiered cache with promote-on-hit from a warm disk image.
pub use tiered::TieredCache;

/// Evaluation failures, re-exported from the crate error surface.
pub use crate::error::EvalError;
use crate::params::{ClockGating, MetricExponent, PowerParams, TechParams, WorkloadParams};
use crate::perf::PerfModel;

/// A fitted workload characterisation: everything the analytic model needs
/// to evaluate the paper's equations for one workload.
///
/// The fields mirror `ExtractedParams` in the experiments crate (which
/// fits them from a reference simulation) but carry no simulator types, so
/// profiles can be stored, shipped and evaluated without a simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Superscalar issue degree `α` (instructions per issue cycle).
    pub alpha: f64,
    /// Pipeline-drain fraction `γ` per hazard.
    pub gamma: f64,
    /// Hazards per instruction `N_H/N_I`.
    pub hazard_rate: f64,
    /// Complete-gating constant `κ` (latch switchings per FO4).
    pub kappa: f64,
    /// Constant per-instruction memory time `t_mem`, in FO4.
    pub memory_time_fo4: f64,
}

impl WorkloadProfile {
    /// The profile as model-domain [`WorkloadParams`], clamped exactly as
    /// the experiment harness clamps its extractions (`α ≥ 1`,
    /// `γ ∈ [10⁻³, 1]`, `N_H/N_I ≥ 10⁻⁴`).
    pub fn workload_params(&self) -> WorkloadParams {
        WorkloadParams::new(
            self.alpha.max(1.0),
            self.gamma.clamp(1e-3, 1.0),
            self.hazard_rate.max(1e-4),
        )
    }
}

/// The longest simulated window, `warmup + instructions`, a cell may
/// request: 111× the full run's 90,000 instructions, and at most 80 MB of
/// annotation at 8 bytes per instruction. [`CellSpec::validate`] rejects
/// longer windows, so no request can make a backend allocate without
/// bound.
pub const MAX_WINDOW: u64 = 10_000_000;

/// One evaluation request: a workload at a pipeline depth, plus the power
/// calibration every backend shares.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Stable workload identifier (e.g. `"spec-int"`). Simulation backends
    /// resolve it to a trace generator; the analytic backend ignores it.
    pub workload: String,
    /// The workload's fitted profile (the analytic backend's sole input).
    pub profile: WorkloadProfile,
    /// Pipeline depth `p`, in stages.
    pub depth: u32,
    /// Warmup instructions (simulation backends only).
    pub warmup: u64,
    /// Measured instructions (simulation backends only).
    pub instructions: u64,
    /// Leakage fraction of non-gated power at the reference depth.
    pub leakage_fraction: f64,
    /// Reference depth for the leakage calibration.
    pub ref_depth: f64,
    /// Latch growth exponent `β`.
    pub latch_growth: f64,
}

impl CellSpec {
    /// A cell with the workspace's default power calibration (15 % leakage
    /// at reference depth 10, `β = 1.3`).
    pub fn new(workload: impl Into<String>, profile: WorkloadProfile, depth: u32) -> Self {
        CellSpec {
            workload: workload.into(),
            profile,
            depth,
            warmup: 0,
            instructions: 0,
            leakage_fraction: 0.15,
            ref_depth: 10.0,
            latch_growth: 1.3,
        }
    }

    /// Content hash of the cell: FNV-1a over the workload id and the bit
    /// patterns of every numeric field. No allocation; collisions are
    /// resolved by full [`PartialEq`] comparison wherever the key is used
    /// (see [`ShardedCache`]), so the hash only needs to spread well.
    pub fn key(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        };
        for byte in self.workload.bytes() {
            eat(byte);
        }
        eat(0xff); // separator: "ab" + depth 1 must differ from "ab\x01"
        for word in [
            u64::from(self.depth),
            self.warmup,
            self.instructions,
            self.profile.alpha.to_bits(),
            self.profile.gamma.to_bits(),
            self.profile.hazard_rate.to_bits(),
            self.profile.kappa.to_bits(),
            self.profile.memory_time_fo4.to_bits(),
            self.leakage_fraction.to_bits(),
            self.ref_depth.to_bits(),
            self.latch_growth.to_bits(),
        ] {
            for byte in word.to_le_bytes() {
                eat(byte);
            }
        }
        h
    }

    /// Checks the cell for the failure modes every backend rejects:
    /// unpipelined or zero depth, a simulated window that overflows or
    /// exceeds [`MAX_WINDOW`], non-finite profile fields, and a power
    /// calibration outside the model's domain.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidCell`] naming the offending field.
    pub fn validate(&self) -> Result<(), EvalError> {
        if self.depth < 1 {
            return Err(EvalError::invalid("depth must be at least 1 stage"));
        }
        if self
            .warmup
            .checked_add(self.instructions)
            .is_none_or(|window| window > MAX_WINDOW)
        {
            return Err(EvalError::invalid(format!(
                "warmup + instructions must not exceed {MAX_WINDOW}"
            )));
        }
        let finite = [
            ("alpha", self.profile.alpha),
            ("gamma", self.profile.gamma),
            ("hazard_rate", self.profile.hazard_rate),
            ("kappa", self.profile.kappa),
            ("memory_time_fo4", self.profile.memory_time_fo4),
            ("leakage_fraction", self.leakage_fraction),
            ("ref_depth", self.ref_depth),
            ("latch_growth", self.latch_growth),
        ];
        for (name, value) in finite {
            if !value.is_finite() {
                return Err(EvalError::invalid(format!("{name} must be finite")));
            }
        }
        if !(0.0..1.0).contains(&self.leakage_fraction) {
            return Err(EvalError::invalid("leakage_fraction must be in [0, 1)"));
        }
        if self.ref_depth < 1.0 {
            return Err(EvalError::invalid("ref_depth must be at least 1"));
        }
        if self.latch_growth <= 0.0 {
            return Err(EvalError::invalid("latch_growth must be positive"));
        }
        Ok(())
    }
}

/// The common result row every backend produces for one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// Pipeline depth the cell was evaluated at.
    pub depth: u32,
    /// Cycles per instruction.
    pub cpi: f64,
    /// Clock frequency, in 1/FO4.
    pub frequency: f64,
    /// Total time per instruction (`τ_total`), in FO4.
    pub time_per_instruction_fo4: f64,
    /// Instructions per FO4 (`1/τ_total`).
    pub throughput: f64,
    /// Total power under complete clock gating (model units).
    pub power_gated: f64,
    /// Total power without gating (model units).
    pub power_ungated: f64,
    /// `BIPS^m/W` under complete gating, indexed `m - 1` for `m = 1, 2, 3`.
    pub metric_gated: [f64; 3],
    /// `BIPS^m/W` without gating, indexed `m - 1` for `m = 1, 2, 3`.
    pub metric_ungated: [f64; 3],
    /// The workload profile in effect: the input profile for the analytic
    /// backend, the freshly extracted one for a simulation backend.
    pub profile: WorkloadProfile,
}

impl EvalOutcome {
    /// The `BIPS^m/W` metric for an exponent and gating mode.
    pub fn metric(&self, gated: bool, m: MetricExponent) -> f64 {
        let idx = (m.get().round() as usize).clamp(1, 3) - 1;
        if gated {
            self.metric_gated[idx]
        } else {
            self.metric_ungated[idx]
        }
    }
}

/// The closed-form backend: evaluates the paper's extended theory
/// (`τ_total = τ(p) + t_mem`, Eq. 3/4 power with the profile's κ under
/// gating) directly from a [`WorkloadProfile`], with no simulation.
///
/// A full depth sweep through this backend costs microseconds, so it is
/// the default for interactive exploration and the reference curve the
/// cross-validation experiment compares the simulator against.
#[derive(Debug, Clone, Default)]
pub struct AnalyticModel {
    tech: TechParams,
}

impl AnalyticModel {
    /// An analytic backend on the paper's technology point.
    pub fn paper() -> Self {
        AnalyticModel {
            tech: TechParams::paper(),
        }
    }

    /// An analytic backend on an explicit technology point.
    pub fn with_tech(tech: TechParams) -> Self {
        AnalyticModel { tech }
    }

    /// Evaluates one cell. Deterministic: the same [`CellSpec`] always
    /// yields the same [`EvalOutcome`].
    ///
    /// # Errors
    ///
    /// [`EvalError::InvalidCell`] when [`CellSpec::validate`] rejects the
    /// cell.
    pub fn evaluate(&self, cell: &CellSpec) -> Result<EvalOutcome, EvalError> {
        cell.validate()?;
        let depth = f64::from(cell.depth);
        let workload = cell.profile.workload_params();
        let perf = PerfModel::new(self.tech, workload);
        let power =
            PowerParams::with_leakage_fraction(cell.leakage_fraction, &self.tech, cell.ref_depth)
                .with_latch_growth(cell.latch_growth);

        let tau = perf.time_per_instruction(depth) + cell.profile.memory_time_fo4;
        let cycle_time = self.tech.cycle_time(depth);
        let frequency = self.tech.frequency(depth);
        let latches = power.latch_count(depth);
        let kappa = cell.profile.kappa.max(1e-6);

        // Switching rates per gating mode (the extended-theory form: under
        // complete gating latches switch with work, κ per unit time).
        let switching_ungated = match power.gating {
            ClockGating::Partial(f_cg) => f_cg * frequency,
            _ => frequency,
        };
        let switching_gated = kappa / tau;
        let power_ungated = (switching_ungated * power.dynamic + power.leakage) * latches;
        let power_gated = (switching_gated * power.dynamic + power.leakage) * latches;

        let mut metric_gated = [0.0; 3];
        let mut metric_ungated = [0.0; 3];
        for m in 1..=3 {
            let tau_m = tau.powi(m as i32);
            metric_gated[m - 1] = 1.0 / (tau_m * power_gated);
            metric_ungated[m - 1] = 1.0 / (tau_m * power_ungated);
        }

        Ok(EvalOutcome {
            depth: cell.depth,
            cpi: tau / cycle_time,
            frequency,
            time_per_instruction_fo4: tau,
            throughput: 1.0 / tau,
            power_gated,
            power_ungated,
            metric_gated,
            metric_ungated,
            profile: cell.profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            alpha: 1.8,
            gamma: 0.35,
            hazard_rate: 0.15,
            kappa: 0.05,
            memory_time_fo4: 2.0,
        }
    }

    #[test]
    fn analytic_outcome_is_internally_consistent() {
        let model = AnalyticModel::paper();
        let cell = CellSpec::new("test", profile(), 10);
        let out = model.evaluate(&cell).expect("valid cell");
        assert_eq!(out.depth, 10);
        assert!(out.cpi > 1.0, "deep pipe with hazards cannot be sub-1 CPI");
        assert!((out.throughput - 1.0 / out.time_per_instruction_fo4).abs() < 1e-15);
        assert!((out.cpi - out.time_per_instruction_fo4 * out.frequency).abs() < 1e-9);
        for m in 0..3 {
            assert!(out.metric_gated[m] > 0.0);
            assert!(out.metric_ungated[m] > 0.0);
        }
    }

    #[test]
    fn gating_saves_power_at_low_utilisation() {
        let model = AnalyticModel::paper();
        let out = model
            .evaluate(&CellSpec::new("test", profile(), 15))
            .expect("valid cell");
        // κ = 0.05 switchings/FO4 is far below the ungated clock rate.
        assert!(out.power_gated < out.power_ungated);
        assert!(out.metric_gated[2] > out.metric_ungated[2]);
    }

    #[test]
    fn throughput_peaks_at_an_interior_depth() {
        let model = AnalyticModel::paper();
        let bips: Vec<f64> = (2..=25)
            .map(|p| {
                model
                    .evaluate(&CellSpec::new("t", profile(), p))
                    .expect("valid cell")
                    .throughput
            })
            .collect();
        let best = bips
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i + 2)
            .unwrap();
        assert!(
            best > 2 && best < 25,
            "optimum depth {best} must be interior"
        );
    }

    #[test]
    fn invalid_cells_are_rejected_not_panicked() {
        let model = AnalyticModel::paper();
        let zero_depth = CellSpec::new("t", profile(), 0);
        assert!(matches!(
            model.evaluate(&zero_depth),
            Err(EvalError::InvalidCell { .. })
        ));
        let mut bad_profile = CellSpec::new("t", profile(), 8);
        bad_profile.profile.alpha = f64::NAN;
        assert!(bad_profile.validate().is_err());
        let mut bad_leakage = CellSpec::new("t", profile(), 8);
        bad_leakage.leakage_fraction = 1.5;
        let err = bad_leakage.validate().unwrap_err();
        assert!(err.to_string().contains("leakage_fraction"), "{err}");
        // A window that wraps, or one past the cap, is rejected before any
        // backend sizes an allocation from it; the cap itself is valid.
        let mut wrapping = CellSpec::new("t", profile(), 8);
        wrapping.warmup = u64::MAX;
        wrapping.instructions = 5;
        let mut oversized = CellSpec::new("t", profile(), 8);
        oversized.instructions = 10_000_000_000_000;
        for cell in [&wrapping, &oversized] {
            let err = model.evaluate(cell).unwrap_err();
            assert_eq!(err.code(), "invalid_cell");
            assert!(err.to_string().contains("warmup + instructions"), "{err}");
        }
        let mut at_cap = CellSpec::new("t", profile(), 8);
        at_cap.warmup = 1;
        at_cap.instructions = MAX_WINDOW - 1;
        assert!(at_cap.validate().is_ok());
    }

    #[test]
    fn cell_keys_are_content_addressed() {
        let base = CellSpec::new("legacy-00", profile(), 10);
        assert_eq!(base.key(), base.clone().key());
        let mut deeper = base.clone();
        deeper.depth = 11;
        let mut renamed = base.clone();
        renamed.workload = "legacy-01".into();
        let mut recalibrated = base.clone();
        recalibrated.leakage_fraction = 0.3;
        for other in [deeper, renamed, recalibrated] {
            assert_ne!(base.key(), other.key());
        }
    }

    #[test]
    fn metric_accessor_maps_exponents() {
        let out = AnalyticModel::paper()
            .evaluate(&CellSpec::new("t", profile(), 12))
            .expect("valid cell");
        assert_eq!(
            out.metric(true, MetricExponent::BIPS_PER_WATT),
            out.metric_gated[0]
        );
        assert_eq!(
            out.metric(false, MetricExponent::BIPS3_PER_WATT),
            out.metric_ungated[2]
        );
    }
}
