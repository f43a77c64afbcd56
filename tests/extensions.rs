//! Cross-crate integration tests for the beyond-the-paper extensions:
//! power-budget designs, crossover exponents and the gating-degree sweep,
//! all driven from simulator-extracted parameters.

use pipedepth::experiments::sweep::{RunConfig, WorkloadCurve};
use pipedepth::experiments::theory_model;
use pipedepth::model::{crossover_exponent, power_capped_design, BudgetedDesign, MetricExponent};
use pipedepth::workloads::{suite_class, WorkloadClass};
use pipedepth::Runner;
use std::sync::OnceLock;

/// The runner every test here sweeps on, so tests reuse each other's
/// cells.
fn runner() -> &'static Runner {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(Runner::default)
}

fn quick() -> RunConfig {
    RunConfig {
        warmup: 8_000,
        instructions: 16_000,
        depths: (2..=24).step_by(2).collect(),
        ..RunConfig::default()
    }
}

/// The quick sweep of a class's first workload: the one each figure
/// displays.
fn first_curve(class: WorkloadClass) -> WorkloadCurve {
    let w = suite_class(class).into_iter().next().unwrap();
    runner().sweep_workload(&w, &quick())
}

fn extracted_model(gated: bool) -> pipedepth::model::PipelineModel {
    let curve = first_curve(WorkloadClass::SpecInt);
    theory_model(&curve.extracted, gated, 0.15, 10.0, 1.3)
}

#[test]
fn budget_strategy_walks_the_extracted_frontier() {
    let model = extracted_model(true);
    let perf_opt = model.perf().optimum_depth().clamp(1.0, 60.0);
    let full = model.power().total_power(perf_opt);
    let mut last_depth = f64::INFINITY;
    let mut last_bips = f64::INFINITY;
    for frac in [0.8, 0.5, 0.3, 0.15] {
        match power_capped_design(&model, full * frac) {
            BudgetedDesign::Feasible(p) => {
                assert!(p.depth < last_depth, "tighter budget, shallower design");
                assert!(p.throughput < last_bips + 1e-12);
                assert!(p.power <= full * frac * (1.0 + 1e-6));
                last_depth = p.depth;
                last_bips = p.throughput;
            }
            other => panic!("expected feasible design at {frac}: {other:?}"),
        }
    }
}

#[test]
fn metric_optimum_lies_on_the_budget_frontier() {
    // The BIPS³/W optimum must equal the budget-capped design whose budget
    // is exactly the optimum's own power draw.
    let model = extracted_model(true);
    let m3 = pipedepth::model::numeric_optimum(&model, MetricExponent::BIPS3_PER_WATT)
        .depth()
        .expect("optimum exists");
    let budget = model.power().total_power(m3);
    match power_capped_design(&model, budget) {
        BudgetedDesign::Feasible(p) => {
            assert!(
                (p.depth - m3).abs() < 1e-6,
                "frontier {} vs optimum {m3}",
                p.depth
            )
        }
        other => panic!("expected feasible: {other:?}"),
    }
}

#[test]
fn crossover_brackets_the_usual_metrics() {
    // For the extracted SPECint parameters: BIPS/W must not pipeline,
    // BIPS³/W must — so the crossover lies strictly between 1 and 3.
    let model = extracted_model(true);
    let cross = crossover_exponent(&model, 2.0).expect("crossover exists");
    assert!(
        cross.exponent > 1.0 && cross.exponent < 3.0,
        "crossover at {}",
        cross.exponent
    );
}

#[test]
fn gating_degree_interpolates_between_endpoints() {
    use pipedepth::experiments::figures::ext_gating;
    let curve = first_curve(WorkloadClass::Modern);
    let fig = ext_gating::run(runner(), &curve.workload, &curve.extracted, &quick());
    // Ungated endpoint (f_cg = 1) is the shallowest; complete gating at
    // least as deep as any partial point.
    let ungated = fig.sim_optima[0];
    for &opt in &fig.sim_optima {
        assert!(opt >= ungated);
        assert!(fig.sim_complete_gating >= ungated);
    }
}
