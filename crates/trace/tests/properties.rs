//! Property-based tests for the trace substrate.

use pipedepth_trace::isa::OpClass;
use pipedepth_trace::model::{BranchModel, InstructionMix, MemoryModel, WorkloadModel};
use pipedepth_trace::{TraceGenerator, TraceStats};
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = WorkloadModel> {
    (
        1.5f64..12.0, // mean dep distance
        0.1f64..0.9,  // dep density
        0.5f64..0.99, // biased fraction
        0.6f64..0.99, // bias
        0.5f64..0.99, // spatial locality
        12u64..24,    // log2 working set
        0.0f64..0.7,  // serial fraction
    )
        .prop_map(|(dist, dens, biased, bias, loc, ws_log, serial)| {
            WorkloadModel::new(
                InstructionMix::integer(),
                dist,
                dens,
                BranchModel::new(256, biased, bias, 64 * 1024),
                MemoryModel::new(1 << ws_log, loc, 8),
            )
            .with_serial_fraction(serial)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generator_is_deterministic(model in arb_model(), seed in any::<u64>()) {
        let a = TraceGenerator::new(model, seed).take_vec(300);
        let b = TraceGenerator::new(model, seed).take_vec(300);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn generated_memory_ops_carry_refs(model in arb_model(), seed in any::<u64>()) {
        let trace = TraceGenerator::new(model, seed).take_vec(500);
        for i in &trace {
            prop_assert_eq!(i.mem.is_some(), i.class.is_memory());
            prop_assert_eq!(i.branch.is_some(), i.class == OpClass::Branch);
        }
    }

    #[test]
    fn generated_addresses_within_working_set(model in arb_model(), seed in any::<u64>()) {
        let ws = model.memory.working_set;
        let trace = TraceGenerator::new(model, seed).take_vec(500);
        for m in trace.iter().filter_map(|i| i.mem) {
            prop_assert!(m.addr >= 0x4000_0000);
            prop_assert!(m.addr < 0x4000_0000 + ws + 64, "addr {:#x} ws {}", m.addr, ws);
        }
    }

    #[test]
    fn not_taken_branches_fall_through(model in arb_model(), seed in any::<u64>()) {
        let trace = TraceGenerator::new(model, seed).take_vec(500);
        for i in trace.iter().filter(|i| i.class == OpClass::Branch) {
            let b = i.branch.expect("branch info present");
            if !b.taken {
                prop_assert_eq!(b.target, i.pc + 4);
            }
        }
    }

    #[test]
    fn stats_fractions_sum_to_one(model in arb_model(), seed in any::<u64>()) {
        let trace = TraceGenerator::new(model, seed).take_vec(1000);
        let stats = TraceStats::of(&trace);
        let total: f64 = OpClass::ALL.iter().map(|&c| stats.class_fraction(c)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert_eq!(stats.instructions, 1000);
    }

    #[test]
    fn serial_fraction_is_realised(seed in any::<u64>(), frac in 0.1f64..0.9) {
        let model = WorkloadModel::new(
            InstructionMix::integer(),
            4.0,
            0.5,
            BranchModel::predictable(),
            MemoryModel::cache_friendly(),
        )
        .with_serial_fraction(frac);
        let trace = TraceGenerator::new(model, seed).take_vec(4000);
        // FP ops are excluded from serialisation; integer mix has none.
        let measured = trace.iter().filter(|i| i.serial).count() as f64 / 4000.0;
        prop_assert!((measured - frac).abs() < 0.06, "wanted {frac}, got {measured}");
    }
}
