//! Ablation bench: regenerate the microarchitectural ablation table
//! (printing it once) and time the whole table's sweeps.

use criterion::{criterion_group, criterion_main, Criterion};
use pipedepth_bench::bench_config;
use pipedepth_experiments::ablation;
use pipedepth_experiments::runner::Runner;
use pipedepth_workloads::{suite_class, WorkloadClass};
use std::hint::black_box;

fn bench_ablation_table(c: &mut Criterion) {
    let cfg = bench_config();
    let w = suite_class(WorkloadClass::Modern)
        .into_iter()
        .next()
        .expect("modern class populated");
    println!("{}", ablation::run(&Runner::serial(), &w, &cfg));
    // Each iteration sweeps cold, on a runner of its own.
    c.bench_function("ablation_full_table", |b| {
        b.iter(|| black_box(ablation::run(&Runner::serial(), &w, &cfg)))
    });
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = bench_ablation_table
}
criterion_main!(ablations);
