//! Simulator micro-benchmarks: the sweep kernel's annotate and replay
//! passes, trace generation, and the cache and predictor substrates in
//! isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pipedepth_sim::cache::Hierarchy;
use pipedepth_sim::predictor::Gshare;
use pipedepth_sim::{annotate, replay, replay_sweep, CacheConfig, PredictorConfig, SimConfig};
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::{TraceGenerator, WorkloadModel};
use std::hint::black_box;

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    const N: usize = 100_000;
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("modern", |b| {
        b.iter(|| {
            let mut gen = TraceGenerator::new(WorkloadModel::modern_like(), 7);
            black_box(gen.take_vec(N))
        })
    });
    group.finish();
}

/// The sweep kernel's two passes over one stream: annotate (paid once
/// per stream) and a one-depth replay (paid per depth lane).
fn bench_annotate_and_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("annotate_and_replay");
    const N: u64 = 50_000;
    group.throughput(Throughput::Elements(N));
    let trace = TraceGenerator::new(WorkloadModel::spec_int_like(), 1).take_vec(N as usize);
    let config = SimConfig::paper(12);
    let notes = annotate(&trace, config.cache, config.predictor).expect("valid configuration");
    group.bench_function("annotate_once", |b| {
        b.iter(|| black_box(annotate(black_box(&trace), config.cache, config.predictor)))
    });
    group.bench_function("replay_one_depth", |b| {
        b.iter(|| black_box(replay(black_box(&notes), config, 0, N)))
    });
    group.finish();
}

/// Batched multi-depth replay: one annotation walk advancing 1/4/8/16
/// depth lanes. Per-lane cost should fall as lanes amortise the
/// annotation walk.
fn bench_sweep_kernel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_kernel_scaling");
    const N: u64 = 50_000;
    let trace = TraceGenerator::new(WorkloadModel::spec_int_like(), 1).take_vec(N as usize);
    let base = SimConfig::paper(2);
    let notes = annotate(&trace, base.cache, base.predictor).expect("valid configuration");
    for lanes in [1usize, 4, 8, 16] {
        // Per-lane throughput: N instructions advanced through each lane.
        group.throughput(Throughput::Elements(N * lanes as u64));
        let configs: Vec<SimConfig> = (0..lanes)
            .map(|i| SimConfig::paper(2 + (i as u32 * 23) / lanes.max(1) as u32))
            .collect();
        group.bench_with_input(BenchmarkId::new("lanes", lanes), &configs, |b, configs| {
            b.iter(|| {
                black_box(replay_sweep(
                    black_box(&notes),
                    configs,
                    0,
                    N,
                    &Telemetry::disabled(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    const N: u64 = 200_000;
    group.throughput(Throughput::Elements(N));
    group.bench_function("hierarchy_streaming", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(CacheConfig::default());
            let mut hits = 0u64;
            for i in 0..N {
                if h.access(black_box(i * 8 % (1 << 22))) == pipedepth_sim::cache::AccessResult::L1
                {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut group = c.benchmark_group("predictor");
    const N: u64 = 500_000;
    group.throughput(Throughput::Elements(N));
    group.bench_function("gshare_observe", |b| {
        b.iter(|| {
            let mut bp = Gshare::try_new(PredictorConfig::default()).expect("valid configuration");
            let mut x = 0x1234_5678u64;
            for _ in 0..N {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                bp.observe(black_box(x & 0xFFF0), (x >> 60) & 3 != 0);
            }
            black_box(bp.miss_rate())
        })
    });
    group.finish();
}

criterion_group! {
    name = simulator;
    config = Criterion::default().sample_size(10);
    targets = bench_annotate_and_replay, bench_sweep_kernel_scaling, bench_trace_generation,
              bench_cache, bench_predictor
}
criterion_main!(simulator);
