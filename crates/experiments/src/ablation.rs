//! Ablation studies over the simulator's microarchitectural choices.
//!
//! DESIGN.md commits this reproduction to several substrate decisions the
//! paper leaves implicit (forwarding, non-blocking caches, depth-scaled
//! decoupling queues, a sequential prefetcher, in-order issue). Each
//! ablation disables one of them and re-measures the optimum pipeline
//! depth, quantifying how much the headline result depends on the choice.
//!
//! The in-order vs out-of-order comparison also checks the paper's claim
//! that the issue policy changes the optimisation "only through α and γ".

use crate::figures::fig6::optimum_of;
use crate::runner::Runner;
use crate::sweep::RunConfig;
use pipedepth_sim::{Features, IssuePolicy, SimConfig};
use pipedepth_workloads::{suite_class, Workload, WorkloadClass};
use std::fmt;

/// A named microarchitectural variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper machine (all features on, in-order).
    Baseline,
    /// No ALU-result forwarding (consumers wait for the full E-unit pipe).
    NoForwarding,
    /// Blocking cache (a load miss stalls the load itself at issue).
    BlockingCache,
    /// Fixed 16-entry decoupling queues (do not scale with depth).
    FixedQueues,
    /// No next-line prefetcher.
    NoPrefetch,
    /// Out-of-order issue within the decoupling window.
    OutOfOrder,
}

impl Variant {
    /// All variants, baseline first.
    pub const ALL: [Variant; 6] = [
        Variant::Baseline,
        Variant::NoForwarding,
        Variant::BlockingCache,
        Variant::FixedQueues,
        Variant::NoPrefetch,
        Variant::OutOfOrder,
    ];

    /// The simulator configuration realising this variant at a depth.
    pub fn config(&self, depth: u32) -> SimConfig {
        let mut cfg = SimConfig::paper(depth);
        match self {
            Variant::Baseline => {}
            Variant::NoForwarding => {
                cfg.features = Features {
                    forwarding: false,
                    ..Features::default()
                }
            }
            Variant::BlockingCache => {
                cfg.features = Features {
                    stall_on_use: false,
                    ..Features::default()
                }
            }
            Variant::FixedQueues => {
                cfg.features = Features {
                    scaled_queues: false,
                    ..Features::default()
                }
            }
            Variant::NoPrefetch => cfg.cache.prefetch = false,
            Variant::OutOfOrder => {
                cfg.features = Features {
                    issue: IssuePolicy::OutOfOrder,
                    ..Features::default()
                }
            }
        }
        cfg
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Variant::Baseline => "baseline",
            Variant::NoForwarding => "no forwarding",
            Variant::BlockingCache => "blocking cache",
            Variant::FixedQueues => "fixed queues",
            Variant::NoPrefetch => "no prefetch",
            Variant::OutOfOrder => "out of order",
        };
        f.write_str(s)
    }
}

/// One variant's measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// The variant measured.
    pub variant: Variant,
    /// Cubic-fit BIPS³/W (gated) optimum depth.
    pub optimum_depth: f64,
    /// CPI at the 8-stage design point.
    pub cpi_at_8: f64,
    /// Extracted α at the reference depth.
    pub alpha: f64,
    /// Extracted γ at the reference depth.
    pub gamma: f64,
}

/// Result of an ablation study on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// The workload studied.
    pub workload_name: String,
    /// One point per variant, in [`Variant::ALL`] order.
    pub points: Vec<AblationPoint>,
}

impl Ablation {
    /// The baseline point.
    pub fn baseline(&self) -> &AblationPoint {
        &self.points[0]
    }

    /// Looks up a variant's point.
    pub fn variant(&self, v: Variant) -> &AblationPoint {
        self.points
            .iter()
            .find(|p| p.variant == v)
            .expect("all variants measured")
    }
}

/// Runs the full ablation study on one workload, on the caller's runner so
/// the baseline arm reuses any cached paper-machine cells.
pub fn run(runner: &Runner, workload: &Workload, config: &RunConfig) -> Ablation {
    let points = Variant::ALL
        .iter()
        .map(|&variant| {
            let curve = runner.sweep_workload_with(workload, config, |depth| variant.config(depth));
            let opt = optimum_of(&curve);
            let cpi_at_8 = curve
                .points
                .iter()
                .min_by_key(|p| p.depth.abs_diff(8))
                .expect("non-empty sweep")
                .cpi;
            AblationPoint {
                variant,
                optimum_depth: opt.cubic_fit_depth,
                cpi_at_8,
                alpha: curve.extracted.alpha,
                gamma: curve.extracted.gamma,
            }
        })
        .collect();
    Ablation {
        workload_name: workload.name.clone(),
        points,
    }
}

/// Registry spec: ablate the representative modern workload.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "ablation"
    }

    fn title(&self) -> &'static str {
        "microarchitectural ablations (modern workload)"
    }

    fn requires_sim(&self) -> bool {
        true
    }

    fn run(&self, ctx: &crate::experiment::Context) -> crate::experiment::ExperimentOutput {
        let w = suite_class(WorkloadClass::Modern)
            .into_iter()
            .next()
            .expect("modern class populated");
        let study = run(&ctx.runner, &w, &ctx.config);
        crate::experiment::ExperimentOutput::summary_only(study.to_string())
    }
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — {} (BIPS³/W gated optimum)",
            self.workload_name
        )?;
        writeln!(
            f,
            "  {:<16} {:>9} {:>9} {:>7} {:>7}",
            "variant", "opt depth", "CPI@8", "α", "γ"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  {:<16} {:>9.1} {:>9.2} {:>7.2} {:>7.2}",
                p.variant.to_string(),
                p.optimum_depth,
                p.cpi_at_8,
                p.alpha,
                p.gamma
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use pipedepth_workloads::{suite_class, WorkloadClass};

    fn quick() -> RunConfig {
        RunConfig {
            warmup: 8_000,
            instructions: 16_000,
            depths: (2..=24).step_by(2).collect(),
            ..RunConfig::default()
        }
    }

    fn study() -> Ablation {
        let w = suite_class(WorkloadClass::Modern)
            .into_iter()
            .next()
            .unwrap();
        run(runner::shared(), &w, &quick())
    }

    #[test]
    fn all_variants_measured() {
        let a = study();
        assert_eq!(a.points.len(), Variant::ALL.len());
        assert_eq!(a.points[0].variant, Variant::Baseline);
    }

    #[test]
    fn degraded_variants_are_slower() {
        let a = study();
        let base = a.baseline().cpi_at_8;
        for v in [
            Variant::NoForwarding,
            Variant::BlockingCache,
            Variant::NoPrefetch,
        ] {
            assert!(
                a.variant(v).cpi_at_8 >= base - 1e-9,
                "{v}: {} vs baseline {base}",
                a.variant(v).cpi_at_8
            );
        }
    }

    #[test]
    fn out_of_order_is_faster_with_similar_optimum() {
        // The paper: OoO vs in-order changes the optimum only a little,
        // through α and γ.
        let a = study();
        let base = a.baseline();
        let ooo = a.variant(Variant::OutOfOrder);
        assert!(ooo.cpi_at_8 <= base.cpi_at_8 + 1e-9);
        assert!(ooo.alpha >= base.alpha - 0.1, "OoO should not lower α");
        assert!(
            (ooo.optimum_depth - base.optimum_depth).abs() <= 3.0,
            "OoO optimum {} vs in-order {}",
            ooo.optimum_depth,
            base.optimum_depth
        );
    }

    #[test]
    fn optima_stay_physical() {
        let a = study();
        for p in &a.points {
            assert!(
                p.optimum_depth >= 2.0 && p.optimum_depth <= 24.0,
                "{}: {}",
                p.variant,
                p.optimum_depth
            );
        }
    }
}
