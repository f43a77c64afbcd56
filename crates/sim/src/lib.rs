//! Cycle-accurate, configurable-depth pipeline simulator for the
//! `pipedepth` workspace.
//!
//! This crate is the stand-in for the proprietary IBM simulator the paper
//! used. It models the paper's Fig. 2 machine — a 4-issue in-order
//! superscalar with split RR/RX instruction flows — at any pipeline depth
//! from 2 to 25+ stages, using the paper's own scaling methodology: stages
//! are inserted into Decode, Cache access and the E-unit simultaneously;
//! shallow configurations merge units onto shared cycles.
//!
//! * [`config`] — machine configuration and the per-depth [`StagePlan`];
//! * [`predictor`] — a gshare branch predictor;
//! * [`cache`] — a two-level set-associative data-cache hierarchy with
//!   FO4-denominated (absolute-time) miss latencies;
//! * [`annotate`](mod@annotate) / [`replay`](mod@replay) — the sweep kernel: one depth-invariant
//!   pass per trace, then a timing-only replay with one lane per depth.
//!   The experiment runner times every simulated cell this way;
//! * [`engine`] — the deterministic interval timing engine, the
//!   reference the sweep kernel reproduces bit for bit;
//! * [`stage`] — the explicit stage units ([`FrontEnd`], [`HazardUnit`],
//!   [`IssueStage`], [`ExecCore`]) the engine orchestrates each cycle;
//! * [`hazard`] — hazard classification and the `γ`/`N_H` accounting;
//! * [`report`] — results plus extraction of the theory's workload
//!   parameters (`α`, `γ`, `N_H/N_I`) from a single simulation.
//!
//! # Examples
//!
//! Sweep one workload across pipeline depths, as every experiment in the
//! paper does:
//!
//! ```
//! use pipedepth_sim::{Engine, SimConfig};
//! use pipedepth_trace::{TraceGenerator, WorkloadModel};
//!
//! let mut times = Vec::new();
//! for depth in [4, 8, 16] {
//!     let mut engine = Engine::new(SimConfig::paper(depth));
//!     let mut gen = TraceGenerator::new(WorkloadModel::spec_int_like(), 42);
//!     let report = engine.run(&mut gen, 5_000);
//!     times.push(report.time_per_instruction_fo4());
//! }
//! // Pipelining from 4 to 8 stages speeds this workload up.
//! assert!(times[1] < times[0]);
//! ```

/// The annotate pass: depth-invariant event classification, once per trace.
pub mod annotate;
/// Binary codecs for persisting configs, reports and annotations.
pub mod blob;
/// The two-level cache hierarchy and its access bookkeeping.
pub mod cache;
/// Simulator configuration: stage plans, feature toggles, the builder.
pub mod config;
/// The cycle orchestrator driving the stage units over a trace.
pub mod engine;
/// Hazard taxonomy and per-kind stall statistics.
pub mod hazard;
/// The branch predictor model.
pub mod predictor;
/// The depth-batched timing replay kernel over an annotation.
pub mod replay;
/// The immutable end-of-run [`SimReport`].
pub mod report;
/// The explicit stage units the engine is composed of.
pub mod stage;

/// The annotate-once surface: the SoA annotation, the one-pass classifier
/// and the content-addressed store.
pub use annotate::{
    annotate, annotate_stream, annotation_fingerprint, AnnotateStats, AnnotatedTrace,
    AnnotationKey, AnnotationStore,
};
/// Configuration surface: `SimConfig`, its builder, and the plan types.
pub use config::{
    CacheConfig, ConfigError, Features, IssuePolicy, PredictorConfig, SimConfig, SimConfigBuilder,
    StagePlan, Unit,
};
/// The engine and its per-instruction timing record.
pub use engine::{Engine, InstrTiming};
/// Hazard kinds and their aggregate statistics.
pub use hazard::{HazardKind, HazardStats};
/// The per-depth and batched multi-depth replay kernels.
pub use replay::{replay, replay_sweep};
/// The end-of-run report.
pub use report::SimReport;
/// The stage units and their hand-off records.
pub use stage::{
    ExecCore, FetchDecode, FrontEnd, HazardUnit, IssueRing, IssueStage, Issued, MemorySegment, Port,
};
