//! The in-order vs out-of-order study.
//!
//! The paper simulates an in-order machine and argues (citing Hartstein &
//! Puzak, ISCA 2002) that "only minor differences in the pipeline depth
//! optimization" separate in-order from out-of-order execution, and that
//! "these differences could be accounted for by changes in the superscaling
//! parameter α and the pipeline hazard parameter γ". This study runs both
//! issue policies over representative workloads and checks exactly that:
//! how far the optima move, and whether the extracted α/γ shifts explain
//! the movement through the theory.

use crate::extract::theory_model;
use crate::figures::fig6::optimum_of;
use crate::runner::Runner;
use crate::sweep::RunConfig;
use pipedepth_core::{numeric_optimum, MetricExponent};
use pipedepth_sim::{Features, IssuePolicy, SimConfig};
use pipedepth_workloads::{representatives, Workload};
use std::fmt;

/// One workload's in-order vs out-of-order comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyComparison {
    /// Workload name.
    pub workload_name: String,
    /// In-order cubic-fit optimum (BIPS³/W, gated).
    pub inorder_optimum: f64,
    /// Out-of-order cubic-fit optimum.
    pub ooo_optimum: f64,
    /// In-order extracted (α, γ).
    pub inorder_params: (f64, f64),
    /// Out-of-order extracted (α, γ).
    pub ooo_params: (f64, f64),
    /// Theory optimum predicted from the in-order extraction.
    pub theory_from_inorder: f64,
    /// Theory optimum predicted from the OoO extraction.
    pub theory_from_ooo: f64,
}

impl PolicyComparison {
    /// Shift of the simulated optimum caused by going out of order.
    pub fn optimum_shift(&self) -> f64 {
        self.ooo_optimum - self.inorder_optimum
    }

    /// Shift of the theory optimum once the OoO α/γ are plugged in — the
    /// paper's claim is that this accounts for the simulated shift.
    pub fn theory_shift(&self) -> f64 {
        self.theory_from_ooo - self.theory_from_inorder
    }
}

/// Result of the issue-policy study.
#[derive(Debug, Clone, PartialEq)]
pub struct IssuePolicyStudy {
    /// Per-workload comparisons.
    pub comparisons: Vec<PolicyComparison>,
}

/// Runs the study over the given workloads on the caller's runner: the
/// in-order arm is the paper machine, so it reuses any cached suite cells.
pub fn run(runner: &Runner, workloads: &[Workload], config: &RunConfig) -> IssuePolicyStudy {
    let comparisons = workloads
        .iter()
        .map(|w| {
            let inorder = runner.sweep_workload_with(w, config, SimConfig::paper);
            let ooo = runner.sweep_workload_with(w, config, |depth| {
                SimConfig::paper(depth).with_features(Features {
                    issue: IssuePolicy::OutOfOrder,
                    ..Features::default()
                })
            });
            let theory_opt = |x: &crate::extract::ExtractedParams| {
                numeric_optimum(
                    &theory_model(
                        x,
                        true,
                        config.leakage_fraction,
                        config.ref_depth as f64,
                        1.3,
                    ),
                    MetricExponent::BIPS3_PER_WATT,
                )
                .depth()
                .unwrap_or(1.0)
            };
            PolicyComparison {
                workload_name: w.name.clone(),
                inorder_optimum: optimum_of(&inorder).cubic_fit_depth,
                ooo_optimum: optimum_of(&ooo).cubic_fit_depth,
                inorder_params: (inorder.extracted.alpha, inorder.extracted.gamma),
                ooo_params: (ooo.extracted.alpha, ooo.extracted.gamma),
                theory_from_inorder: theory_opt(&inorder.extracted),
                theory_from_ooo: theory_opt(&ooo.extracted),
            }
        })
        .collect();
    IssuePolicyStudy { comparisons }
}

/// Registry spec: the in-order vs out-of-order comparison over the
/// representative workloads.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "issue_policy"
    }

    fn title(&self) -> &'static str {
        "in-order vs out-of-order issue (representatives)"
    }

    fn requires_sim(&self) -> bool {
        true
    }

    fn run(&self, ctx: &crate::experiment::Context) -> crate::experiment::ExperimentOutput {
        let study = run(&ctx.runner, &representatives(), &ctx.config);
        crate::experiment::ExperimentOutput::summary_only(study.to_string())
    }
}

impl fmt::Display for IssuePolicyStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Issue-policy study — in-order vs out-of-order (BIPS³/W gated)"
        )?;
        writeln!(
            f,
            "  {:<12} {:>8} {:>8} {:>11} {:>11} {:>9} {:>9}",
            "workload", "in-order", "OoO", "α in/ooo", "γ in/ooo", "Δsim", "Δtheory"
        )?;
        for c in &self.comparisons {
            writeln!(
                f,
                "  {:<12} {:>8.1} {:>8.1} {:>5.2}/{:<5.2} {:>5.2}/{:<5.2} {:>+9.1} {:>+9.1}",
                c.workload_name,
                c.inorder_optimum,
                c.ooo_optimum,
                c.inorder_params.0,
                c.ooo_params.0,
                c.inorder_params.1,
                c.ooo_params.1,
                c.optimum_shift(),
                c.theory_shift()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    fn quick_study() -> IssuePolicyStudy {
        let workloads = representatives();
        run(
            runner::shared(),
            &workloads,
            &RunConfig {
                warmup: 8_000,
                instructions: 16_000,
                depths: (2..=24).step_by(2).collect(),
                ..RunConfig::default()
            },
        )
    }

    #[test]
    fn covers_all_representatives() {
        assert_eq!(quick_study().comparisons.len(), 4);
    }

    #[test]
    fn differences_are_minor() {
        // The paper's claim: only minor optimum differences between the
        // issue policies.
        for c in quick_study().comparisons {
            assert!(
                c.optimum_shift().abs() <= 4.0,
                "{}: in-order {} vs OoO {}",
                c.workload_name,
                c.inorder_optimum,
                c.ooo_optimum
            );
        }
    }

    #[test]
    fn ooo_never_lowers_alpha() {
        for c in quick_study().comparisons {
            assert!(
                c.ooo_params.0 >= c.inorder_params.0 - 0.15,
                "{}: α {} -> {}",
                c.workload_name,
                c.inorder_params.0,
                c.ooo_params.0
            );
        }
    }
}
