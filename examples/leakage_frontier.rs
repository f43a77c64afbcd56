//! Leakage frontier: where should a design land as technology leakage
//! grows? Combines simulation (one workload, all depths) with the analytic
//! theory (leakage sweep per depth), reproducing the paper's Fig. 8 logic
//! end to end and printing the optimum-depth frontier.
//!
//! ```text
//! cargo run --release --example leakage_frontier
//! ```

use pipedepth::experiments::figures::fig8;
use pipedepth::workloads::{suite_class, WorkloadClass};
use pipedepth::{RunConfig, Runner};

fn main() {
    let config = RunConfig {
        warmup: 20_000,
        instructions: 40_000,
        depths: (2..=25).collect(),
        ..RunConfig::default()
    };
    let workload = suite_class(WorkloadClass::SpecInt)
        .into_iter()
        .next()
        .expect("SPECint class populated");
    println!("extracting theory parameters from {} …", workload.name);
    let curve = Runner::serial().sweep_workload(&workload, &config);
    let x = &curve.extracted;
    println!(
        "  α = {:.2}, γ = {:.2}, N_H/N_I = {:.3}, κ = {:.3}\n",
        x.alpha, x.gamma, x.hazard_rate, x.kappa
    );

    let fig = fig8::run_with_params(x, &config);
    println!("optimum pipeline depth vs leakage fraction (BIPS³/W, gated):\n");
    println!("{:>8} | {:>8} | {:>10}", "leakage", "stages", "FO4/stage");
    println!("{}", "-".repeat(34));
    for (frac, opt) in fig.fractions.iter().zip(&fig.optima) {
        match opt {
            Some(d) => println!(
                "{:>7.0}% | {d:>8.2} | {:>10.1}",
                frac * 100.0,
                2.5 + 140.0 / d
            ),
            None => println!("{:>7.0}% | {:>8} | {:>10}", frac * 100.0, "none", "-"),
        }
    }
    println!("\nThe paper's Fig. 8 finding, reproduced: leakage favours deeper");
    println!("pipelines, because dynamic power (which grows with both clock and");
    println!("latch count) is what punishes depth.");
}
