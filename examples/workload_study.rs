//! Workload study: sweep one workload of each class through the simulator
//! and compare the optimum depths by metric — a miniature of the paper's
//! Figs. 5–7.
//!
//! ```text
//! cargo run --release --example workload_study
//! ```

use pipedepth::math::fit::cubic_peak_fit;
use pipedepth::{representatives, RunConfig, Runner};

fn main() {
    let config = RunConfig {
        warmup: 20_000,
        instructions: 40_000,
        depths: (2..=25).collect(),
        ..RunConfig::default()
    };
    let reps = representatives();
    println!(
        "sweeping {} representative workloads over depths 2–25 …\n",
        reps.len()
    );
    let curves = Runner::default().sweep_all(&reps, &config);

    println!(
        "{:<12} {:<20} {:>10} {:>10} {:>12} {:>12}",
        "workload", "class", "BIPS opt", "m=3 grid", "m=3 cubic", "FO4/stage"
    );
    for curve in &curves {
        let xs = curve.depths();
        let bips_fit = cubic_peak_fit(&xs, &curve.throughput_series()).expect("cubic fit");
        let m3_fit = cubic_peak_fit(&xs, &curve.gated_series(3)).expect("cubic fit");
        println!(
            "{:<12} {:<20} {:>10.1} {:>10} {:>12.1} {:>12.1}",
            curve.workload.name,
            curve.workload.class.to_string(),
            bips_fit.peak_x,
            curve.best_gated_m3_depth(),
            m3_fit.peak_x,
            2.5 + 140.0 / m3_fit.peak_x
        );
    }

    println!(
        "\nextracted theory parameters (single run at depth {}):",
        config.ref_depth
    );
    println!(
        "{:<12} {:>6} {:>6} {:>8} {:>8} {:>10}",
        "workload", "α", "γ", "N_H/N_I", "κ", "t_mem FO4"
    );
    for curve in &curves {
        let x = &curve.extracted;
        println!(
            "{:<12} {:>6.2} {:>6.2} {:>8.3} {:>8.3} {:>10.1}",
            curve.workload.name, x.alpha, x.gamma, x.hazard_rate, x.kappa, x.memory_time_fo4
        );
    }
}
