//! Trace tooling: generate a synthetic trace, inspect its statistics, and
//! replay it against two pipeline depths.
//!
//! ```text
//! cargo run --release --example trace_inspect
//! ```

use pipedepth::trace::isa::OpClass;
use pipedepth::trace::TraceStats;
use pipedepth::{Engine, SimConfig, TraceGenerator, WorkloadModel};

fn main() {
    let model = WorkloadModel::modern_like();
    let mut gen = TraceGenerator::new(model, 2026);
    let trace = gen.take_vec(50_000);

    // ---- Statistics ------------------------------------------------------
    let stats = TraceStats::of(&trace);
    println!(
        "generated {} instructions (modern C++/Java model)",
        stats.instructions
    );
    println!("instruction mix:");
    for class in OpClass::ALL {
        let frac = stats.class_fraction(class);
        if frac > 0.0 {
            println!("  {class:<8} {:>5.1}%", frac * 100.0);
        }
    }
    println!(
        "branch taken rate     : {:>5.1}%",
        stats.taken_rate() * 100.0
    );
    println!(
        "mean dep distance     : {:>5.2} instructions",
        stats.mean_dep_distance()
    );
    println!("distinct cache lines  : {}", stats.distinct_lines);

    // ---- Replay against two machines ---------------------------------------
    println!("\nreplaying the same trace at two depths:");
    for depth in [6u32, 18] {
        let mut engine = Engine::new(SimConfig::paper(depth));
        let mut stream = trace.iter().copied();
        let report = engine.run(&mut stream, trace.len() as u64);
        println!(
            "  depth {depth:>2}: CPI {:.2}, {:>6.1} FO4/instr, mispredict {:>4.1}%, L1 miss {:>4.1}%",
            report.cpi(),
            report.time_per_instruction_fo4(),
            report.mispredict_rate() * 100.0,
            report.l1_miss_rate * 100.0,
        );
    }
}
