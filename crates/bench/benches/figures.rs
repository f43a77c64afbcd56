//! Figure-regeneration benches: one Criterion benchmark per table/figure of
//! the paper. Each bench prints the regenerated rows once (so running
//! `cargo bench` reproduces the paper's series alongside the timings) and
//! then measures the cost of recomputing the figure.

use criterion::{criterion_group, criterion_main, Criterion};
use pipedepth_bench::bench_config;
use pipedepth_experiments::figures::{fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, headline};
use pipedepth_experiments::runner::Runner;
use pipedepth_experiments::sweep::{RunConfig, WorkloadCurve};
use pipedepth_workloads::{suite, suite_class, WorkloadClass};
use std::hint::black_box;
use std::sync::OnceLock;

/// The runner the untimed set-up sweeps share.
fn runner() -> &'static Runner {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(Runner::default)
}

/// Full-suite sweep shared by the distribution figures (computed once,
/// outside the timed loops).
fn shared_curves() -> &'static Vec<WorkloadCurve> {
    static CURVES: OnceLock<Vec<WorkloadCurve>> = OnceLock::new();
    CURVES.get_or_init(|| runner().sweep_all(&suite(), &bench_config()))
}

fn spec_extraction() -> pipedepth_experiments::ExtractedParams {
    shared_curves()
        .iter()
        .find(|c| c.workload.class == WorkloadClass::SpecInt)
        .expect("SPECint present")
        .extracted
}

fn bench_fig1(c: &mut Criterion) {
    println!("{}", fig1::run());
    c.bench_function("fig1_optimality_quartic", |b| {
        b.iter(|| black_box(fig1::run()))
    });
}

fn bench_fig3(c: &mut Criterion) {
    println!("{}", fig3::run());
    c.bench_function("fig3_latch_growth", |b| b.iter(|| black_box(fig3::run())));
}

fn bench_fig4(c: &mut Criterion) {
    let cfg = bench_config();
    let panels = fig4::PANEL_CLASSES
        .iter()
        .map(|&class| {
            let curve = shared_curves()
                .iter()
                .find(|c| c.workload.class == class)
                .expect("every class is in the suite");
            fig4::panel_from_curve(curve, &cfg)
        })
        .collect();
    println!("{}", fig4::Fig4 { panels });
    // Time a single panel's regeneration (a cold sweep + theory fit).
    let w = suite_class(WorkloadClass::Modern)
        .into_iter()
        .next()
        .unwrap();
    c.bench_function("fig4_panel_modern", |b| {
        b.iter(|| {
            let curve = Runner::serial().sweep_workload(&w, &cfg);
            black_box(fig4::panel_from_curve(&curve, &cfg))
        })
    });
}

fn bench_fig5(c: &mut Criterion) {
    let cfg = bench_config();
    let w = suite_class(WorkloadClass::Modern)
        .into_iter()
        .next()
        .unwrap();
    let curve = runner().sweep_workload(&w, &cfg);
    println!("{}", fig5::from_curve(&curve));
    c.bench_function("fig5_metric_comparison", |b| {
        b.iter(|| black_box(fig5::from_curve(&curve)))
    });
}

fn bench_fig6(c: &mut Criterion) {
    let curves = shared_curves();
    println!("{}", fig6::from_curves(curves));
    c.bench_function("fig6_distribution_from_sweeps", |b| {
        b.iter(|| black_box(fig6::from_curves(curves)))
    });
}

fn bench_fig7(c: &mut Criterion) {
    let curves = shared_curves();
    println!("{}", fig7::from_curves(curves));
    c.bench_function("fig7_class_distributions", |b| {
        b.iter(|| black_box(fig7::from_curves(curves)))
    });
}

fn bench_fig8(c: &mut Criterion) {
    let cfg = bench_config();
    let x = spec_extraction();
    println!("{}", fig8::run_with_params(&x, &cfg));
    c.bench_function("fig8_leakage_sweep", |b| {
        b.iter(|| black_box(fig8::run_with_params(&x, &cfg)))
    });
}

fn bench_fig9(c: &mut Criterion) {
    let cfg = bench_config();
    let x = spec_extraction();
    println!("{}", fig9::run_with_params(&x, &cfg));
    c.bench_function("fig9_latch_growth_sweep", |b| {
        b.iter(|| black_box(fig9::run_with_params(&x, &cfg)))
    });
}

fn bench_headline(c: &mut Criterion) {
    let cfg = bench_config();
    let curves = shared_curves();
    println!("{}", headline::from_curves(curves, &cfg));
    c.bench_function("headline_from_sweeps", |b| {
        b.iter(|| black_box(headline::from_curves(curves, &cfg)))
    });
}

fn bench_full_suite_sweep(c: &mut Criterion) {
    // The expensive part of the reproduction: 55 workloads × 12 depths.
    let cfg = RunConfig {
        depths: vec![4, 8, 16],
        ..bench_config()
    };
    let workloads = suite();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("suite_55x3_depths", |b| {
        b.iter(|| black_box(Runner::default().sweep_all(&workloads, &cfg)))
    });
    group.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_fig1, bench_fig3, bench_fig4, bench_fig5, bench_fig6,
              bench_fig7, bench_fig8, bench_fig9, bench_headline,
              bench_full_suite_sweep
}
criterion_main!(figures);
