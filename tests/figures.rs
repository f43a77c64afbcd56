//! Integration tests of the figure drivers: every figure of the paper is
//! regenerated (at reduced simulation sizes) and checked against the
//! paper's qualitative findings.

use pipedepth::experiments::figures::{fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, headline};
use pipedepth::experiments::sweep::{RunConfig, WorkloadCurve};
use pipedepth::workloads::{suite_class, Workload, WorkloadClass};
use pipedepth::Runner;
use std::sync::OnceLock;

/// The runner every test here sweeps on, so tests reuse each other's
/// cells.
fn runner() -> &'static Runner {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(Runner::default)
}

/// The first suite workload of a class: the one each figure displays.
fn first_of(class: WorkloadClass) -> Workload {
    suite_class(class)
        .into_iter()
        .next()
        .expect("every class is populated")
}

fn quick_config() -> RunConfig {
    RunConfig {
        warmup: 8_000,
        instructions: 16_000,
        depths: (2..=24).step_by(2).collect(),
        ..RunConfig::default()
    }
}

/// Three workloads per class: enough for distribution shape at test cost.
fn small_suite_curves() -> Vec<WorkloadCurve> {
    let cfg = quick_config();
    let ws: Vec<_> = WorkloadClass::ALL
        .iter()
        .flat_map(|&c| suite_class(c).into_iter().take(3))
        .collect();
    runner().sweep_all(&ws, &cfg)
}

#[test]
fn fig1_reproduces_root_structure() {
    let f = fig1::run();
    assert_eq!(f.roots.len(), 4, "four real zero crossings");
    assert_eq!(f.roots.iter().filter(|&&r| r > 0.0).count(), 1);
    assert!((f.root_6a + 56.0).abs() < 1e-9);
    assert!(f.root_6b > -2.0 && f.root_6b < 0.0);
}

#[test]
fn fig3_reproduces_latch_exponent() {
    let f = fig3::run();
    assert!(
        (f.fit.exponent - 1.1).abs() < 0.08,
        "exponent {}",
        f.fit.exponent
    );
    assert_eq!(f.unit_growth, 1.3);
}

#[test]
fn fig4_gated_above_ungated_and_theory_fits() {
    let cfg = quick_config();
    let f = fig4::Fig4 {
        panels: fig4::PANEL_CLASSES
            .iter()
            .map(|&c| fig4::panel_from_curve(&runner().sweep_workload(&first_of(c), &cfg), &cfg))
            .collect(),
    };
    assert_eq!(f.panels.len(), 3);
    for p in &f.panels {
        for (g, u) in p.sim_gated.iter().zip(&p.sim_ungated) {
            assert!(g > u, "{}", p.workload.name);
        }
    }
    // Integer-class panels fit well; FP is the hardest in the paper too.
    assert!(f.panels[0].r2_gated > 0.5);
    assert!(f.panels[1].r2_gated > 0.5);
}

#[test]
fn fig5_metric_ordering() {
    let modern = first_of(WorkloadClass::Modern);
    let f = fig5::from_curve(&runner().sweep_workload(&modern, &quick_config()));
    let p = |label: &str| f.series_named(label).unwrap().peak_depth;
    assert!(p("BIPS/W") <= p("BIPS^2/W"));
    assert!(p("BIPS^2/W") <= p("BIPS^3/W"));
    assert!(p("BIPS^3/W") < p("BIPS"));
    assert!(f.series_named("BIPS^3/W").unwrap().interior);
}

#[test]
fn fig6_distribution_centred_in_paper_band() {
    let curves = small_suite_curves();
    let f = fig6::from_curves(&curves);
    // The paper's distribution is centred around 8 stages; at reduced sizes
    // allow 5–12.
    assert!(
        f.summary.mean > 5.0 && f.summary.mean < 12.0,
        "mean optimum {}",
        f.summary.mean
    );
    assert_eq!(f.histogram.total() as usize, curves.len());
}

#[test]
fn fig7_class_contrasts() {
    let curves = small_suite_curves();
    let f = fig7::from_curves(&curves);
    let fp = f.class(WorkloadClass::FloatingPoint).summary.mean;
    let spec = f.class(WorkloadClass::SpecInt).summary.mean;
    let modern = f.class(WorkloadClass::Modern).summary.mean;
    assert!(fp > spec, "fp {fp} vs specint {spec}");
    assert!(fp > modern, "fp {fp} vs modern {modern}");
}

#[test]
fn fig8_and_fig9_trends() {
    let cfg = quick_config();
    let curve = runner().sweep_workload(&first_of(WorkloadClass::SpecInt), &cfg);

    let f8 = fig8::run_with_params(&curve.extracted, &cfg);
    let depths8: Vec<f64> = f8.optima.iter().map(|o| o.unwrap_or(1.0)).collect();
    for w in depths8.windows(2) {
        assert!(
            w[1] >= w[0],
            "leakage must not shrink the optimum: {depths8:?}"
        );
    }

    let f9 = fig9::run_with_params(&curve.extracted, &cfg);
    let depths9: Vec<f64> = f9.optima.iter().map(|o| o.unwrap_or(1.0)).collect();
    for w in depths9.windows(2) {
        assert!(w[1] <= w[0], "β must not deepen the optimum: {depths9:?}");
    }
}

#[test]
fn headline_shape_holds() {
    let cfg = quick_config();
    let curves = small_suite_curves();
    let h = headline::from_curves(&curves, &cfg);
    // Power shortens the pipeline by a factor in the paper's ballpark
    // (22/8 ≈ 2.75; accept 1.5–5 at reduced sizes).
    let factor = h.shortening_factor();
    assert!(factor > 1.5 && factor < 5.0, "shortening factor {factor}");
    assert_eq!(h.m1_unpipelined, h.workloads, "BIPS/W never pipelines");
    // The FO4 design point is in the paper's regime.
    let fo4 = headline::Headline::fo4(h.m3_cubic_mean);
    assert!(fo4 > 12.0 && fo4 < 35.0, "FO4/stage {fo4}");
}
