//! Analytic power/performance pipeline-depth model — the primary
//! contribution of A. Hartstein and T. R. Puzak, *Optimum Power/Performance
//! Pipeline Depth*, MICRO-36, 2003.
//!
//! The model answers: **how deep should a microprocessor pipeline be when
//! the design is optimised for `BIPS^m/W`?** It combines
//!
//! * the performance model of Hartstein & Puzak (ISCA 2002) — time per
//!   instruction `τ(p) = (1/α)(t_o + t_p/p) + γ·(N_H/N_I)(t_o·p + t_p)` —
//!   implemented in [`perf::PerfModel`];
//! * the latch-centric power model of Srinivasan et al. (MICRO 2002) —
//!   `P_T(p) = (f_cg·f_s·P_d + P_l)·N_L·p^β` — implemented in
//!   [`power::PowerModel`];
//! * the family of metrics `Metric_m = (τ^m·P_T)⁻¹ ∝ BIPS^m/W` —
//!   implemented in [`metric::PipelineModel`].
//!
//! The optimality condition `d Metric/dp = 0` is available in closed form
//! ([`optimality`]) and the optimum itself through three cross-checked
//! routes ([`optimum`]). Parameter sweeps over leakage, latch growth and the
//! metric exponent ([`sensitivity`]) reproduce the paper's Figs. 8 and 9.
//!
//! # Quickstart
//!
//! ```
//! use pipedepth_core::{
//!     report, ClockGating, MetricExponent, PipelineModel, PowerParams,
//!     TechParams, WorkloadParams,
//! };
//!
//! // The paper's technology (t_p = 140 FO4, t_o = 2.5 FO4), a typical
//! // workload, complete clock gating, 15% leakage.
//! let model = PipelineModel::new(
//!     TechParams::paper(),
//!     WorkloadParams::typical(),
//!     PowerParams::paper().with_gating(ClockGating::complete()),
//! );
//! let r = report(&model, MetricExponent::BIPS3_PER_WATT);
//!
//! // Power-aware optimum is much shallower than the ≈22-stage
//! // performance-only optimum.
//! let depth = r.numeric.depth().expect("BIPS³/W has a pipelined optimum");
//! assert!(depth < r.perf_only);
//! ```
//!
//! # Key findings encoded (and tested) here
//!
//! * BIPS/W never has a pipelined optimum; BIPS²/W does not for typical
//!   parameters (`m > β` necessary, `m > β + 1` with negligible leakage).
//! * Growing **dynamic** power importance shortens the optimum pipeline.
//! * **Clock gating** pushes the optimum deeper.
//! * Growing **leakage** also pushes the optimum deeper (Fig. 8).
//! * The optimum is highly sensitive to the latch-growth exponent β
//!   (Fig. 9); β ≥ m removes the pipelined optimum entirely.

/// Power-budgeted design selection and the power–performance frontier.
pub mod budget;
/// The metric-exponent crossover where a pipelined optimum appears.
pub mod crossover;
/// Energy-per-instruction and energy-delay-product views of the model.
pub mod energy;
/// The crate-level error surface (`Error`, `EvalError`).
pub mod error;
/// Backend-agnostic cell evaluation (the analytic backend lives here).
pub mod eval;
/// The combined `BIPS^m/W` metric over the perf and power models.
pub mod metric;
/// The closed-form optimality condition `d Metric/dp = 0`.
pub mod optimality;
/// The optimum depth via quadratic, cubic and numeric routes.
pub mod optimum;
/// Technology, workload, power and metric parameters.
pub mod params;
/// The ISCA 2002 performance model `τ(p)`.
pub mod perf;
/// The latch-centric power model `P_T(p)`.
pub mod power;
/// Leakage, latch-growth and metric-exponent sensitivity sweeps.
pub mod sensitivity;

/// Power-capped design selection (paper §6 extensions).
pub use budget::{frontier, power_capped_design, BudgetedDesign, FrontierPoint};
/// The smallest metric exponent with a pipelined optimum.
pub use crossover::{crossover_exponent, Crossover};
/// Energy-oriented re-parameterisations of the metric family.
pub use energy::{energy_delay_product, energy_per_instruction, minimize_energy_delay};
/// The workspace-level error surface: configuration rejections and
/// evaluation failures behind one `#[non_exhaustive]` enum.
pub use error::{Error, EvalError};
/// Backend-agnostic evaluation: the request/result rows, the shared
/// result cache, and the closed-form backend.
pub use eval::{
    AnalyticModel, CacheStats, CellSpec, EvalOutcome, ShardedCache, TieredCache, WorkloadProfile,
};
/// The top-level model combining performance, power and the metric.
pub use metric::PipelineModel;
/// The optimality condition: coefficients, roots and special cases.
pub use optimality::{
    cubic_optimum, gated_quadratic_optimum, metric_slope, necessary_condition, optimality_cubic,
    paper_quartic, quadratic_coefficients, quadratic_optimum, spurious_root_6a, spurious_root_6b,
    zero_leakage_condition,
};
/// The optimum depth through three cross-checked routes, plus the
/// combined report.
pub use optimum::{
    analytic_optimum, closed_form_optimum, numeric_optimum, report, Optimum, OptimumReport,
    DEPTH_RANGE,
};
/// The model's input parameter types.
pub use params::{ClockGating, Fo4, MetricExponent, PowerParams, TechParams, WorkloadParams};
/// The time-per-instruction performance model.
pub use perf::PerfModel;
/// The total-power model.
pub use power::PowerModel;
/// Parameter sweeps reproducing the paper's Figs. 8 and 9.
pub use sensitivity::{
    exponent_beta_grid, gating_comparison, latch_growth_sweep, leakage_sweep,
    metric_exponent_sweep, normalized_leakage_curves, ExponentGrid, SweepConfig, SweepPoint,
};
