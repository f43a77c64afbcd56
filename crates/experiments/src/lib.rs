//! Experiment harness regenerating every figure of Hartstein & Puzak,
//! *Optimum Power/Performance Pipeline Depth* (MICRO-36, 2003).
//!
//! * [`runner`] — the cell-level runner every simulation goes through: a
//!   caller builds one and passes it to each sweep, figure and study, so
//!   they all share its worker pool and simulation cache;
//! * [`sweep`] — depth-sweep sizing and results (2–25 stages, warmup +
//!   measurement windows);
//! * [`extract`] — single-run extraction of the theory's parameters
//!   (`α`, `γ`, `N_H/N_I`, κ) and assembly of the analytic model;
//! * [`eval`] — backend selection (`--backend {sim,model}`) and the
//!   simulation backend beside the closed-form
//!   [`AnalyticModel`](pipedepth_core::AnalyticModel);
//! * [`figures`] — one driver per figure: Fig. 1 (optimality quartic),
//!   Fig. 3 (latch growth), Figs. 4a–c (theory vs simulation), Fig. 5
//!   (metric comparison), Fig. 6 (optimum distribution), Fig. 7 (per-class
//!   distributions), Fig. 8 (leakage), Fig. 9 (latch-growth exponent), and
//!   the paper's headline numbers;
//! * [`ablation`] — microarchitectural ablations quantifying how much the
//!   headline result depends on substrate choices (forwarding, caches,
//!   queue sizing, issue policy);
//! * [`manifest`] — the schema-versioned `manifest.json` run manifest
//!   (config digest, phase timings, telemetry snapshot);
//! * [`store`] — the persistent evaluation store behind `--store`,
//!   warm-starting runs from the snapshots a previous run published;
//! * [`report`] — ASCII tables and CSV rendering.
//!
//! The `repro` binary runs everything and emits the full comparison
//! report (`cargo run --release -p pipedepth-experiments --bin repro`).
pub mod ablation;
pub mod convergence;
pub mod eval;
pub mod experiment;
pub mod extract;
pub mod figures;
pub mod issue_policy;
pub mod manifest;
pub mod paper;
pub mod plot;
pub mod report;
pub mod runner;
pub mod series;
pub mod store;
pub mod sweep;

pub use eval::{
    curves, fitted_profile, model_curves, outcome_from_report, Backend, SimBackend, UnknownBackend,
};
pub use experiment::{
    registry, select_experiments, Artifact, Context, Experiment, ExperimentOutput,
    UnknownExperiment,
};
pub use extract::{
    extended_theory_curve, extract_from_report, theory_curve, theory_model, ExtractedParams,
};
pub use manifest::{Manifest, PhaseTiming, SCHEMA_VERSION};
pub use runner::{CacheStats, CellSpec, Runner, SimCache};
pub use store::{RunStore, StoreStats};
pub use sweep::{DepthPoint, RunConfig, WorkloadCurve};
