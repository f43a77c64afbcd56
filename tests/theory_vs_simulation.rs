//! Cross-crate integration tests: the paper's scientific claims checked
//! end to end — trace generation → cycle-accurate simulation → power
//! accounting → parameter extraction → analytic theory.

use pipedepth::experiments::sweep::{RunConfig, WorkloadCurve};
use pipedepth::experiments::theory_model;
use pipedepth::math::fit::cubic_peak_fit;
use pipedepth::model::{numeric_optimum, MetricExponent};
use pipedepth::workloads::{representatives, suite_class, Workload, WorkloadClass};
use pipedepth::Runner;
use std::sync::OnceLock;

/// Sweeps on the runner every test here shares, so tests reuse each
/// other's cells.
fn sweep_workload(w: &Workload, cfg: &RunConfig) -> WorkloadCurve {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(Runner::default).sweep_workload(w, cfg)
}

fn quick_config() -> RunConfig {
    RunConfig {
        warmup: 8_000,
        instructions: 16_000,
        depths: (2..=24).step_by(2).collect(),
        ..RunConfig::default()
    }
}

#[test]
fn power_always_shortens_the_optimum() {
    // The paper's central claim: for every workload, the BIPS³/W optimum is
    // shallower than the performance-only optimum.
    let cfg = quick_config();
    for w in representatives() {
        let curve = sweep_workload(&w, &cfg);
        let xs = curve.depths();
        let perf = cubic_peak_fit(&xs, &curve.throughput_series())
            .unwrap()
            .peak_x;
        let m3 = cubic_peak_fit(&xs, &curve.gated_series(3)).unwrap().peak_x;
        assert!(
            m3 < perf,
            "{}: BIPS³/W {m3} should be shallower than BIPS {perf}",
            w.name
        );
    }
}

#[test]
fn clock_gating_deepens_the_optimum() {
    let cfg = quick_config();
    for w in representatives() {
        let curve = sweep_workload(&w, &cfg);
        let xs = curve.depths();
        let gated = cubic_peak_fit(&xs, &curve.gated_series(3)).unwrap().peak_x;
        let ungated = cubic_peak_fit(&xs, &curve.ungated_series(3))
            .unwrap()
            .peak_x;
        assert!(
            gated >= ungated - 0.5,
            "{}: gated {gated} vs ungated {ungated}",
            w.name
        );
    }
}

#[test]
fn metric_exponent_orders_the_optima() {
    // m = 1 shallowest, then m = 2, then m = 3, then BIPS.
    let cfg = quick_config();
    let w = &representatives()[2]; // a modern workload
    let curve = sweep_workload(w, &cfg);
    let best = |ys: &[f64]| {
        curve.points[ys
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0]
            .depth
    };
    let p1 = best(&curve.gated_series(1));
    let p2 = best(&curve.gated_series(2));
    let p3 = best(&curve.gated_series(3));
    let pb = best(&curve.throughput_series());
    assert!(p1 <= p2 && p2 <= p3 && p3 <= pb, "{p1} {p2} {p3} {pb}");
}

#[test]
fn extracted_parameters_predict_the_optimum_ballpark() {
    // Theory parameterised from one depth should land its optimum within a
    // factor of two of the simulated cubic-fit optimum.
    let cfg = quick_config();
    for w in representatives() {
        let curve = sweep_workload(&w, &cfg);
        let xs = curve.depths();
        let sim_opt = cubic_peak_fit(&xs, &curve.gated_series(3)).unwrap().peak_x;
        let model = theory_model(&curve.extracted, true, cfg.leakage_fraction, 10.0, 1.3);
        let theory_opt = numeric_optimum(&model, MetricExponent::BIPS3_PER_WATT)
            .depth()
            .unwrap_or(1.0);
        let ratio = theory_opt / sim_opt;
        assert!(
            ratio > 0.3 && ratio < 2.5,
            "{}: theory {theory_opt} vs sim {sim_opt}",
            w.name
        );
    }
}

#[test]
fn fp_workloads_optimise_deepest() {
    // The paper's Fig. 7: floating point spans the deepest optima, because
    // serialised multi-cycle FP execution lowers α.
    let cfg = quick_config();
    let opt_of = |class: WorkloadClass| {
        let w = suite_class(class).into_iter().next().unwrap();
        let curve = sweep_workload(&w, &cfg);
        cubic_peak_fit(&curve.depths(), &curve.gated_series(3))
            .unwrap()
            .peak_x
    };
    let fp = opt_of(WorkloadClass::FloatingPoint);
    let spec = opt_of(WorkloadClass::SpecInt);
    let modern = opt_of(WorkloadClass::Modern);
    assert!(fp > spec, "fp {fp} vs specint {spec}");
    assert!(fp > modern, "fp {fp} vs modern {modern}");
}

#[test]
fn alpha_reflects_class_ilp() {
    // Legacy (serialised assembler) extracts a much smaller superscalar
    // degree than SPECint.
    let cfg = quick_config();
    let alpha_of = |class: WorkloadClass| {
        let w = suite_class(class).into_iter().next().unwrap();
        sweep_workload(&w, &cfg).extracted.alpha
    };
    let legacy = alpha_of(WorkloadClass::Legacy);
    let spec = alpha_of(WorkloadClass::SpecInt);
    assert!(
        legacy + 0.5 < spec,
        "legacy α {legacy} should trail SPECint α {spec}"
    );
}

#[test]
fn same_trace_same_results_across_crates() {
    // End-to-end determinism: the whole pipeline of crates is reproducible.
    // Two fresh runners: the second sweep must simulate again, not hit a
    // cache.
    let cfg = quick_config();
    let w = &representatives()[0];
    let a = Runner::serial().sweep_workload(w, &cfg);
    let b = Runner::serial().sweep_workload(w, &cfg);
    assert_eq!(a, b);
}
