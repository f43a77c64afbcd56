//! `pipedepth` — a reproduction of A. Hartstein and T. R. Puzak, *Optimum
//! Power/Performance Pipeline Depth*, MICRO-36, 2003.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`model`] ([`pipedepth_core`]) — the analytic power/performance
//!   pipeline-depth theory (the paper's contribution);
//! * [`math`] ([`pipedepth_math`]) — polynomials, root finding, fitting;
//! * [`trace`] ([`pipedepth_trace`]) — the synthetic instruction-trace
//!   substrate;
//! * [`sim`] ([`pipedepth_sim`]) — the cycle-accurate configurable-depth
//!   pipeline simulator;
//! * [`power`] ([`pipedepth_power`]) — the latch-based power model;
//! * [`workloads`] ([`pipedepth_workloads`]) — the 55-workload suite;
//! * [`experiments`] ([`pipedepth_experiments`]) — per-figure drivers;
//! * [`telemetry`] ([`pipedepth_telemetry`]) — metrics for the sim/runner
//!   stack.
//!
//! The blessed types of each layer are additionally re-exported at the
//! crate root — `pipedepth::{Engine, SimConfig, TraceGenerator, Runner,
//! …}` — so examples, doctests and the README share one import path; the
//! module re-exports remain for everything deeper.
//!
//! # Quickstart
//!
//! Find the optimum pipeline depth for the paper's BIPS³/W metric:
//!
//! ```
//! use pipedepth::model::report;
//! use pipedepth::{
//!     ClockGating, MetricExponent, PipelineModel, PowerParams, TechParams,
//!     WorkloadParams,
//! };
//!
//! let model = PipelineModel::new(
//!     TechParams::paper(),
//!     WorkloadParams::typical(),
//!     PowerParams::paper().with_gating(ClockGating::complete()),
//! );
//! let r = report(&model, MetricExponent::BIPS3_PER_WATT);
//! let depth = r.numeric.depth().expect("pipelined optimum exists");
//! assert!(depth > 1.0 && depth < r.perf_only);
//! ```
//!
//! Or run the simulator directly (see `examples/` for richer scenarios),
//! configuring the machine through the fallible builder:
//!
//! ```
//! use pipedepth::{ConfigError, Engine, TraceGenerator, SimConfig, WorkloadModel};
//!
//! let config = SimConfig::builder().depth(8).build()?;
//! let mut engine = Engine::try_new(config)?;
//! let mut gen = TraceGenerator::new(WorkloadModel::spec_int_like(), 1);
//! let report = engine.run(&mut gen, 5_000);
//! assert!(report.cpi() > 0.25);
//! # Ok::<(), ConfigError>(())
//! ```

/// The analytic pipeline-depth theory ([`pipedepth_core`]).
pub use pipedepth_core as model;
/// Per-figure experiment drivers and the cell runner
/// ([`pipedepth_experiments`]).
pub use pipedepth_experiments as experiments;
/// Polynomials, root finding, fitting and statistics ([`pipedepth_math`]).
pub use pipedepth_math as math;
/// The latch-based power model ([`pipedepth_power`]).
pub use pipedepth_power as power;
/// The cycle-accurate configurable-depth simulator ([`pipedepth_sim`]).
pub use pipedepth_sim as sim;
/// Metrics for the simulation stack ([`pipedepth_telemetry`]).
pub use pipedepth_telemetry as telemetry;
/// The synthetic instruction-trace substrate ([`pipedepth_trace`]).
pub use pipedepth_trace as trace;
/// The 55-workload suite ([`pipedepth_workloads`]).
pub use pipedepth_workloads as workloads;

/// The theory's inputs and model: technology, workload and power
/// parameters, clock gating, and the metric family `BIPS^m/W`.
pub use pipedepth_core::{
    ClockGating, MetricExponent, PipelineModel, PowerParams, TechParams, WorkloadParams,
};
/// The experiment registry and harness: declarative figure specs, the
/// run-wide configuration, the cell runner, and the output manifest.
pub use pipedepth_experiments::{registry, Experiment, Manifest, RunConfig, Runner};
/// The simulator surface: fallible machine configuration and the engine
/// that turns traces into timing reports.
pub use pipedepth_sim::{ConfigError, Engine, SimConfig, SimConfigBuilder, SimReport};
/// The metrics handle and its point-in-time snapshot.
pub use pipedepth_telemetry::{Snapshot, Telemetry};
/// Deterministic trace generation from statistical workload models.
pub use pipedepth_trace::{TraceGenerator, WorkloadModel};
/// The paper's workload suite and its class representatives.
pub use pipedepth_workloads::{representatives, suite, Workload};
