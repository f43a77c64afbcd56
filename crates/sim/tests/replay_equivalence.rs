//! Annotate/replay vs. stage-engine equivalence.
//!
//! The sweep kernel's contract is exactness: annotating a trace once and
//! replaying the annotation per depth must produce a `SimReport` that is
//! *bit-identical* to a fresh stage-engine pass over the same stream —
//! for every workload class, every depth, single-depth and batched
//! multi-lane replay alike. This is the contract that lets the runner
//! time every cell as a lane of one annotate + one batched replay, with
//! the stage engine kept as the reference, without perturbing a single
//! figure.

use pipedepth_sim::annotate::{annotate, AnnotationStore};
use pipedepth_sim::config::{CacheConfig, Features, IssuePolicy};
use pipedepth_sim::replay::{replay, replay_sweep};
use pipedepth_sim::{Engine, SimConfig, SimReport};
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::isa::Instruction;
use pipedepth_trace::{TraceGenerator, TraceRequest, WorkloadModel};

const WARMUP: u64 = 3_000;
const MEASURE: u64 = 6_000;
const DEPTHS: [u32; 5] = [2, 7, 13, 19, 25];
/// Stream length of each randomized case.
const TRACE_LEN: u64 = 5_000;

/// The paper's four workload classes, by their model presets.
fn classes() -> [(&'static str, WorkloadModel); 4] {
    [
        ("legacy", WorkloadModel::legacy_like()),
        ("spec_int", WorkloadModel::spec_int_like()),
        ("modern", WorkloadModel::modern_like()),
        ("spec_fp", WorkloadModel::spec_fp_like()),
    ]
}

/// The reference semantics: a fresh stage engine over the stream,
/// measuring up to `measure` instructions after the warmup.
fn engine_reference(
    trace: &[Instruction],
    config: SimConfig,
    warmup: u64,
    measure: u64,
) -> SimReport {
    let mut engine = Engine::new(config);
    let mut stream = trace.iter().copied();
    engine.warm_up(&mut stream, warmup);
    engine.run(stream, measure)
}

/// The first `len` instructions of the `(model, seed)` stream.
fn stream(model: WorkloadModel, seed: u64, len: u64) -> Vec<Instruction> {
    TraceGenerator::new(model, seed).take_vec(len as usize)
}

#[test]
fn replay_reproduces_engine_across_class_depth_grid() {
    for (name, model) in classes() {
        let seed = 0xA11CE ^ name.len() as u64;
        let trace = stream(model, seed, WARMUP + MEASURE);
        let base = SimConfig::paper(DEPTHS[0]);
        let notes = annotate(&trace, base.cache, base.predictor).expect("valid config");

        // Batched: all five depths advanced through one annotation pass.
        let configs: Vec<SimConfig> = DEPTHS.iter().map(|&d| SimConfig::paper(d)).collect();
        let batched = replay_sweep(&notes, &configs, WARMUP, MEASURE, &Telemetry::disabled())
            .expect("valid configs");
        assert_eq!(batched.len(), DEPTHS.len());

        for (config, from_batch) in configs.iter().zip(&batched) {
            let reference = engine_reference(&trace, *config, WARMUP, MEASURE);
            let single = replay(&notes, *config, WARMUP, MEASURE).expect("valid config");
            assert_eq!(
                reference, single,
                "single-depth replay diverged for {name} at depth {}",
                config.depth
            );
            assert_eq!(
                &reference, from_batch,
                "batched replay diverged for {name} at depth {}",
                config.depth
            );
        }
    }
}

#[test]
fn batched_lanes_may_differ_in_everything_but_the_annotation() {
    // Lanes sharing one annotation may differ in any knob that does not
    // feed it: depth, width, cache ports, forwarding, stall-on-use,
    // queue scaling, issue policy. Mix them all in one batch.
    let trace = stream(WorkloadModel::modern_like(), 99, WARMUP + MEASURE);
    let base = SimConfig::paper(8);
    let notes = annotate(&trace, base.cache, base.predictor).expect("valid config");

    let mut lanes = vec![SimConfig::paper(8), SimConfig::paper(20)];
    let mut narrow = SimConfig::paper(12);
    narrow.width = 2;
    narrow.cache_ports = 1;
    lanes.push(narrow);
    let mut no_forwarding = SimConfig::paper(12);
    no_forwarding.features = Features {
        forwarding: false,
        ..Features::default()
    };
    lanes.push(no_forwarding);
    let mut blocking = SimConfig::paper(16);
    blocking.features = Features {
        stall_on_use: false,
        scaled_queues: false,
        ..Features::default()
    };
    lanes.push(blocking);
    let mut ooo = SimConfig::paper(16);
    ooo.features = Features {
        issue: IssuePolicy::OutOfOrder,
        ..Features::default()
    };
    lanes.push(ooo);

    let batched =
        replay_sweep(&notes, &lanes, WARMUP, MEASURE, &Telemetry::disabled()).expect("valid");
    for (config, report) in lanes.iter().zip(&batched) {
        let reference = engine_reference(&trace, *config, WARMUP, MEASURE);
        assert_eq!(
            &reference, report,
            "mixed-feature lane diverged (depth {}, width {})",
            config.depth, config.width
        );
    }
}

#[test]
fn warmup_seam_matches_engine_exactly() {
    // The warmup boundary is where the lane resets its statistics while
    // keeping timing state; sweep it across odd positions, including 0
    // and beyond the trace length.
    let trace = stream(WorkloadModel::spec_fp_like(), 5, 4_000);
    let config = SimConfig::paper(11);
    let notes = annotate(&trace, config.cache, config.predictor).expect("valid config");
    for warmup in [0u64, 1, 777, 3_999, 4_000, 9_000] {
        let clamped = warmup.min(4_000);
        let mut engine = Engine::new(config);
        engine.warm_up(trace.iter().copied(), warmup);
        let reference = engine.run(trace[clamped as usize..].iter().copied(), u64::MAX);
        let fast = replay(&notes, config, warmup, u64::MAX).expect("valid config");
        assert_eq!(reference, fast, "warmup seam {warmup} diverged");
    }
}

/// A deterministic xorshift for randomized-model generation — the vendored
/// proptest idiom without the dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish f64 in [lo, hi).
    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

#[test]
fn randomized_workloads_replay_exactly() {
    // Proptest-style: perturb a base model's knobs through a seeded RNG
    // and pin replay == engine on every case. Failures print the case
    // seed, which fully reproduces the model.
    let mut rng = XorShift(0xDEC0DE);
    for case in 0..8u64 {
        let case_seed = rng.next();
        // A random instruction mix: raw weights, normalised to sum to 1.
        let w = [
            rng.in_range(0.2, 1.0),  // alu_rr
            rng.in_range(0.0, 0.3),  // alu_rx
            rng.in_range(0.1, 0.6),  // load
            rng.in_range(0.05, 0.3), // store
            rng.in_range(0.05, 0.4), // branch
            rng.in_range(0.0, 0.5),  // fp
            rng.in_range(0.0, 0.1),  // fp_long
        ];
        let sum: f64 = w.iter().sum();
        let mix = pipedepth_trace::model::InstructionMix::new(
            w[0] / sum,
            w[1] / sum,
            w[2] / sum,
            w[3] / sum,
            w[4] / sum,
            w[5] / sum,
            w[6] / sum,
        );
        let mut model = WorkloadModel::modern_like();
        model.mix = mix;
        model.mean_dep_distance = rng.in_range(1.5, 12.0);
        model.dep_density = rng.in_range(0.2, 0.9);
        model.memory.spatial_locality = rng.in_range(0.3, 0.95);
        model.memory.working_set = 1 << (14 + (rng.next() % 10));
        model.branches.biased_fraction = rng.in_range(0.5, 0.98);
        model.branches.bias = rng.in_range(0.55, 0.99);
        model.serial_fraction = rng.in_range(0.0, 0.02);
        // A random cache, where the per-sweep miss counts are most
        // fragile: the case's low three bits switch off the L1i, make L2
        // hits free and turn the prefetcher off, so the eight cases cover
        // every combination; L1d and L2 sizes shrink at random.
        let mut cache = CacheConfig::default();
        if case & 1 == 1 {
            cache.l1i_bytes = 0;
        } else {
            cache.l1i_bytes = 1 << (9 + rng.next() % 6);
        }
        cache.l2_latency_fo4 = if case & 2 == 2 {
            0.0
        } else {
            rng.in_range(10.0, 400.0)
        };
        cache.prefetch = case & 4 == 0;
        cache.l1_bytes = 1 << (9 + rng.next() % 7);
        cache.l2_bytes = 1 << (12 + rng.next() % 9);
        cache.memory_latency_fo4 = rng.in_range(0.0, 3_000.0);
        let depths: [u32; 3] = std::array::from_fn(|_| 2 + (rng.next() % 24) as u32);
        let warmup = rng.next() % 2_000;
        // A measured count that stops short of the end of the stream.
        let measure = 1 + rng.next() % (TRACE_LEN - warmup - 1);

        let trace = stream(model, case_seed, TRACE_LEN);
        let configs = depths.map(|depth| SimConfig {
            cache,
            ..SimConfig::paper(depth)
        });
        let notes = annotate(&trace, cache, configs[0].predictor).expect("valid config");
        let batched = replay_sweep(&notes, &configs, warmup, measure, &Telemetry::disabled())
            .expect("valid configs");
        for (config, from_batch) in configs.iter().zip(&batched) {
            let depth = config.depth;
            let reference = engine_reference(&trace, *config, warmup, measure);
            let single = replay(&notes, *config, warmup, measure).expect("valid config");
            assert_eq!(
                reference, single,
                "randomized case {case} (seed {case_seed:#x}, depth {depth}, \
                 warmup {warmup}, measure {measure}) diverged"
            );
            assert_eq!(
                &reference, from_batch,
                "randomized case {case} (seed {case_seed:#x}, depth {depth}, \
                 warmup {warmup}, measure {measure}) diverged in the batch"
            );
        }
    }
}

#[test]
fn store_shares_one_annotation_per_stream_and_config() {
    // The runner's discipline: one annotation per (stream, cache,
    // predictor), generated straight from the request and reused across
    // the whole depth sweep.
    let request = TraceRequest {
        model: WorkloadModel::spec_int_like(),
        seed: 3,
        len: 2_000,
    };
    let trace = stream(request.model, request.seed, request.len);
    let store = AnnotationStore::new();
    for depth in DEPTHS {
        let config = SimConfig::paper(depth);
        let notes = store
            .get_or_annotate(request, config.cache, config.predictor)
            .expect("valid config");
        let fast = replay(&notes, config, 500, u64::MAX).expect("valid config");
        let reference = engine_reference(&trace, config, 500, u64::MAX);
        assert_eq!(reference, fast, "store-served replay diverged at {depth}");
    }
    assert_eq!(store.stats().misses, 1, "one annotation pass for the sweep");
    assert_eq!(store.stats().hits, DEPTHS.len() as u64 - 1);
}
