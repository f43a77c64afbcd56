//! Sweep one workload of the suite across pipeline depths and print the
//! full measurement table.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pipedepth-experiments --bin sweep -- \
//!     [--workload NAME] [--instructions N] [--warmup N] [--max-depth D] \
//!     [--backend sim|model] [--list]
//! ```
//!
//! `--list` prints the 55 workload names and exits. The default workload is
//! `specint-00`. `--backend model` skips the simulator entirely and sweeps
//! the workload's fitted analytic profile through the paper's closed forms.

use pipedepth_core::eval::{AnalyticModel, Evaluator};
use pipedepth_experiments::eval::{cell_for, fitted_profile, Backend};
use pipedepth_experiments::report::{fmt_sig, table};
use pipedepth_experiments::sweep::{sweep_workload, RunConfig};
use pipedepth_math::fit::cubic_peak_fit;
use pipedepth_workloads::suite;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workloads = suite();

    if args.iter().any(|a| a == "--list") {
        for w in &workloads {
            println!(
                "{:<12} {:<20} serial {:>4.0}%  ws {:>6} KiB",
                w.name,
                w.class.to_string(),
                w.model.serial_fraction * 100.0,
                w.model.memory.working_set / 1024
            );
        }
        return;
    }

    let name = arg_value(&args, "--workload").unwrap_or_else(|| "specint-00".to_string());
    let Some(workload) = workloads.iter().find(|w| w.name == name) else {
        eprintln!("unknown workload {name:?}; use --list to see the suite");
        std::process::exit(1);
    };
    let instructions = arg_value(&args, "--instructions")
        .map(|v| v.parse().expect("--instructions takes a number"))
        .unwrap_or(60_000);
    let warmup = arg_value(&args, "--warmup")
        .map(|v| v.parse().expect("--warmup takes a number"))
        .unwrap_or(30_000);
    let max_depth: u32 = arg_value(&args, "--max-depth")
        .map(|v| v.parse().expect("--max-depth takes a number"))
        .unwrap_or(25);
    let backend: Backend = arg_value(&args, "--backend")
        .map(|v| {
            v.parse().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
        })
        .unwrap_or(Backend::Sim);

    let config = RunConfig {
        warmup,
        instructions,
        depths: (2..=max_depth).collect(),
        ..RunConfig::default()
    };
    println!(
        "sweeping {} ({}), {} instructions per depth, {backend} backend …\n",
        workload.name, workload.class, instructions
    );
    // (depth, cpi, bips, gated m=3, ungated m=3) rows, backend-agnostic.
    let points: Vec<(u32, f64, f64, f64, f64)>;
    let extracted_line: String;
    if backend.uses_sim() {
        let curve = sweep_workload(workload, &config);
        points = curve
            .points
            .iter()
            .map(|p| {
                (
                    p.depth,
                    p.cpi,
                    p.throughput,
                    p.metric_gated[2],
                    p.metric_ungated[2],
                )
            })
            .collect();
        let x = &curve.extracted;
        extracted_line = format!(
            "extracted at depth {}: α = {:.2}, γ = {:.2}, N_H/N_I = {:.3}, κ = {:.3}, \
             t_mem = {:.1} FO4",
            x.ref_depth, x.alpha, x.gamma, x.hazard_rate, x.kappa, x.memory_time_fo4
        );
    } else {
        let profile = fitted_profile(workload);
        let model = AnalyticModel::paper();
        points = config
            .depths
            .iter()
            .map(|&depth| {
                let out = model
                    .evaluate(&cell_for(workload, profile, depth, &config))
                    .expect("fitted cells are valid by construction");
                (
                    depth,
                    out.cpi,
                    out.throughput,
                    out.metric_gated[2],
                    out.metric_ungated[2],
                )
            })
            .collect();
        extracted_line = format!(
            "fitted profile (ref depth {}): α = {:.2}, γ = {:.2}, N_H/N_I = {:.3}, κ = {:.3}, \
             t_mem = {:.1} FO4",
            config.ref_depth,
            profile.alpha,
            profile.gamma,
            profile.hazard_rate,
            profile.kappa,
            profile.memory_time_fo4
        );
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|&(depth, cpi, bips, gated, ungated)| {
            vec![
                depth.to_string(),
                format!("{:.1}", 2.5 + 140.0 / depth as f64),
                format!("{cpi:.2}"),
                fmt_sig(bips),
                fmt_sig(gated),
                fmt_sig(ungated),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "depth",
                "FO4",
                "CPI",
                "BIPS",
                "BIPS³/W gated",
                "BIPS³/W ungated"
            ],
            &rows
        )
    );

    let xs: Vec<f64> = points.iter().map(|p| p.0 as f64).collect();
    let gated: Vec<f64> = points.iter().map(|p| p.3).collect();
    let bips_series: Vec<f64> = points.iter().map(|p| p.2).collect();
    let m3 = cubic_peak_fit(&xs, &gated).expect("cubic fit");
    let bips = cubic_peak_fit(&xs, &bips_series).expect("cubic fit");
    println!(
        "cubic-fit optima: BIPS³/W @ {:.1} stages, BIPS @ {:.1} stages",
        m3.peak_x, bips.peak_x
    );
    println!("{extracted_line}");
}
