//! The declarative experiment layer.
//!
//! Every regenerated figure or table is an [`Experiment`]: a named spec
//! that runs against a shared [`Context`] — the run configuration, the
//! cell-level [`Runner`] with its simulation cache, and the lazily swept
//! suite curves — and returns a summary plus typed [`Artifact`]s. The
//! `repro` binary is a thin driver over [`registry`]: it selects specs,
//! times them, prints summaries and writes artifacts; it contains no
//! figure logic of its own.

use crate::eval::{curves, Backend};
use crate::report::Table;
use crate::runner::Runner;
use crate::sweep::{RunConfig, WorkloadCurve};
use pipedepth_workloads::{suite, WorkloadClass};
use std::fmt;
use std::sync::OnceLock;

/// A file an experiment wants written into the output directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Name relative to the output directory, e.g. `fig6.csv`.
    pub filename: String,
    /// Full file contents.
    pub contents: String,
}

impl Artifact {
    /// Builds an artifact from anything string-like.
    pub fn new(filename: impl Into<String>, contents: impl Into<String>) -> Self {
        Artifact {
            filename: filename.into(),
            contents: contents.into(),
        }
    }
}

/// What one experiment produced: a human-readable summary (printed by the
/// driver) and zero or more artifacts (written by the driver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentOutput {
    /// Printable summary, newline-terminated.
    pub summary: String,
    /// Files to deposit in the output directory.
    pub artifacts: Vec<Artifact>,
}

impl ExperimentOutput {
    /// An output with no artifacts.
    pub fn summary_only(summary: impl Into<String>) -> Self {
        ExperimentOutput {
            summary: summary.into(),
            artifacts: Vec::new(),
        }
    }
}

/// Typed figure results deposited during a run, so cross-cutting consumers
/// (the paper-verdict table) can read them after the registry loop without
/// re-running anything.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// Figure 1 (optimality quartic), if its spec ran.
    pub fig1: OnceLock<crate::figures::fig1::Fig1>,
    /// Figure 3 (latch growth), if its spec ran.
    pub fig3: OnceLock<crate::figures::fig3::Fig3>,
    /// Figure 6 (optimum distribution), if its spec ran.
    pub fig6: OnceLock<crate::figures::fig6::Fig6>,
    /// Figure 7 (per-class distributions), if its spec ran.
    pub fig7: OnceLock<crate::figures::fig7::Fig7>,
    /// Figure 8 (leakage), if its spec ran.
    pub fig8: OnceLock<crate::figures::fig8::Fig8>,
    /// Figure 9 (latch-growth exponent), if its spec ran.
    pub fig9: OnceLock<crate::figures::fig9::Fig9>,
    /// The headline numbers, if their spec ran.
    pub headline: OnceLock<crate::figures::headline::Headline>,
}

/// Shared state for one experiment run.
#[derive(Debug)]
pub struct Context {
    /// The sweep configuration every experiment uses.
    pub config: RunConfig,
    /// The cell runner (worker pool + simulation cache) every experiment
    /// schedules onto.
    pub runner: Runner,
    /// Results deposited by finished experiments.
    pub outcomes: Outcomes,
    /// The evaluation backend the suite curves come from.
    backend: Backend,
    curves: OnceLock<Vec<WorkloadCurve>>,
}

impl Context {
    /// A fresh context with an empty cache and no curves swept yet, on the
    /// simulation backend.
    pub fn new(config: RunConfig, runner: Runner) -> Self {
        Self::with_backend(config, runner, Backend::Sim)
    }

    /// A fresh context on an explicit evaluation backend.
    pub fn with_backend(config: RunConfig, runner: Runner, backend: Backend) -> Self {
        Context {
            config,
            runner,
            outcomes: Outcomes::default(),
            backend,
            curves: OnceLock::new(),
        }
    }

    /// The evaluation backend this context's curves come from.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The full-suite sweep, materialised on first use and shared
    /// afterwards: simulated under the `sim` backend, evaluated in
    /// closed form (no simulator in the call path) under `model`.
    pub fn curves(&self) -> &[WorkloadCurve] {
        self.curves
            .get_or_init(|| curves(self.backend, &self.runner, &suite(), &self.config))
    }

    /// Whether the suite sweep has been materialised yet.
    pub fn curves_ready(&self) -> bool {
        self.curves.get().is_some()
    }

    /// The first suite curve of a class (the per-class representative the
    /// figure drivers display).
    pub fn curve_for(&self, class: WorkloadClass) -> &WorkloadCurve {
        self.curves()
            .iter()
            .find(|c| c.workload.class == class)
            .expect("every class is present in the suite")
    }
}

/// One declarative experiment: a named, self-describing unit the driver
/// can list, select and time.
pub trait Experiment {
    /// Stable identifier used by `--only`, e.g. `fig4`.
    fn name(&self) -> &'static str;
    /// One-line description for `--list`.
    fn title(&self) -> &'static str;
    /// Whether this experiment reads [`Context::curves`]; the driver uses
    /// this to time the shared suite sweep as its own phase.
    fn needs_curves(&self) -> bool {
        false
    }
    /// Whether this experiment drives the simulator directly (beyond the
    /// shared curves) and therefore cannot run under the pure `model`
    /// backend. The driver skips such specs, with a note, when no
    /// simulation backend is available.
    fn requires_sim(&self) -> bool {
        false
    }
    /// Runs the experiment against the shared context.
    fn run(&self, ctx: &Context) -> ExperimentOutput;
}

/// Every experiment, in the canonical report order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(crate::figures::fig1::Spec),
        Box::new(crate::figures::fig2::Spec),
        Box::new(crate::figures::fig3::Spec),
        Box::new(crate::figures::fig4::Spec),
        Box::new(crate::figures::fig5::Spec),
        Box::new(WorkloadTable),
        Box::new(crate::figures::fig6::Spec),
        Box::new(crate::figures::fig7::Spec),
        Box::new(crate::figures::fig8::Spec),
        Box::new(crate::figures::fig9::Spec),
        Box::new(crate::figures::headline::Spec),
        Box::new(crate::ablation::Spec),
        Box::new(crate::issue_policy::Spec),
        Box::new(crate::figures::ext_gating::Spec),
        Box::new(crate::figures::xval::Spec),
    ]
}

/// Error for `--only` selections naming unknown experiments: carries the
/// unknown names and the full list of valid ones for the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The selector names that matched nothing.
    pub unknown: Vec<String>,
    /// Every valid experiment name, in registry order.
    pub valid: Vec<&'static str>,
}

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown experiment{} {}; valid names: {}",
            if self.unknown.len() == 1 { "" } else { "s" },
            self.unknown
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", "),
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// Filters the registry by a `--only` selection, preserving registry
/// order. An empty selection keeps everything. Selections naming an
/// unknown experiment are an error — silently running nothing has bitten
/// CI scripts before — listing the valid names.
pub fn select_experiments<'a>(
    specs: &'a [Box<dyn Experiment>],
    only: &[String],
) -> Result<Vec<&'a dyn Experiment>, UnknownExperiment> {
    let valid: Vec<&'static str> = specs.iter().map(|e| e.name()).collect();
    let unknown: Vec<String> = only
        .iter()
        .filter(|name| !valid.contains(&name.as_str()))
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(UnknownExperiment { unknown, valid });
    }
    Ok(specs
        .iter()
        .filter(|e| only.is_empty() || only.iter().any(|n| n == e.name()))
        .map(|e| e.as_ref())
        .collect())
}

/// The per-workload extracted-parameter table (`workloads.csv`).
#[derive(Debug)]
pub struct WorkloadTable;

impl Experiment for WorkloadTable {
    fn name(&self) -> &'static str {
        "workloads"
    }

    fn title(&self) -> &'static str {
        "per-workload extracted theory parameters (CSV)"
    }

    fn needs_curves(&self) -> bool {
        true
    }

    fn run(&self, ctx: &Context) -> ExperimentOutput {
        let mut t = Table::new(&[
            "workload",
            "class",
            "alpha",
            "gamma",
            "hazard_rate",
            "kappa",
            "memory_time_fo4",
            "serial_fraction",
        ]);
        for c in ctx.curves() {
            let x = &c.extracted;
            t.push_row(vec![
                c.workload.name.clone(),
                c.workload.class.tag().to_string(),
                x.alpha.to_string(),
                x.gamma.to_string(),
                x.hazard_rate.to_string(),
                x.kappa.to_string(),
                x.memory_time_fo4.to_string(),
                c.workload.model.serial_fraction.to_string(),
            ])
            .expect("row width fixed by construction");
        }
        ExperimentOutput {
            summary: format!("Workload table — {} extracted parameter sets\n", t.len()),
            artifacts: vec![Artifact::new("workloads.csv", t.to_csv())],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let specs = registry();
        let names: Vec<&str> = specs.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "workloads",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "headline",
                "ablation",
                "issue_policy",
                "ext_gating",
                "xval",
            ]
        );
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn every_spec_has_a_title() {
        for e in registry() {
            assert!(!e.title().is_empty(), "{} needs a title", e.name());
        }
    }

    #[test]
    fn context_sweeps_lazily_and_once() {
        let cfg = RunConfig {
            warmup: 500,
            instructions: 1_000,
            depths: vec![4, 8],
            ..RunConfig::default()
        };
        let ctx = Context::new(cfg, Runner::serial());
        assert!(!ctx.curves_ready());
        let first = ctx.curves().as_ptr();
        assert!(ctx.curves_ready());
        assert_eq!(first, ctx.curves().as_ptr(), "curves swept exactly once");
        assert_eq!(ctx.curves().len(), suite().len());
        let modern = ctx.curve_for(WorkloadClass::Modern);
        assert_eq!(modern.workload.class, WorkloadClass::Modern);
    }

    #[test]
    fn model_backend_sweeps_without_simulation() {
        let cfg = RunConfig {
            depths: vec![4, 10, 16],
            ..RunConfig::default()
        };
        let ctx = Context::with_backend(cfg, Runner::serial(), Backend::Model);
        let curves = ctx.curves();
        assert_eq!(curves.len(), suite().len());
        assert!(curves.iter().all(|c| c.points.len() == 3));
        let stats = ctx.runner.cache_stats().expect("always Some");
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "model curves must not touch the simulation runner"
        );
    }

    #[test]
    fn selection_filters_in_registry_order() {
        let specs = registry();
        let picked = select_experiments(&specs, &["fig4".to_string(), "fig1".to_string()])
            .expect("both names are valid");
        let names: Vec<&str> = picked.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            ["fig1", "fig4"],
            "registry order, not selection order"
        );
        let all = select_experiments(&specs, &[]).expect("empty selection is valid");
        assert_eq!(all.len(), specs.len());
    }

    #[test]
    fn unknown_selection_is_an_error_listing_valid_names() {
        let specs = registry();
        let err = select_experiments(&specs, &["fig4".to_string(), "fig99".to_string()])
            .err()
            .expect("fig99 does not exist");
        assert_eq!(err.unknown, ["fig99"]);
        let msg = err.to_string();
        assert!(msg.contains("\"fig99\""), "{msg}");
        assert!(msg.contains("fig4") && msg.contains("xval"), "{msg}");
    }

    #[test]
    fn sim_only_specs_are_marked() {
        let requires: Vec<&str> = registry()
            .iter()
            .filter(|e| e.requires_sim())
            .map(|e| e.name())
            .collect();
        assert_eq!(requires, ["ablation", "issue_policy", "ext_gating", "xval"]);
    }
}
