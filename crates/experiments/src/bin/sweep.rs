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
//! Every flag is checked before anything runs: a bad value prints one line
//! naming the flag and exits 2.

use pipedepth_core::eval::MAX_WINDOW;
use pipedepth_experiments::eval::{curves, Backend};
use pipedepth_experiments::report::{fmt_sig, table};
use pipedepth_experiments::runner::Runner;
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_math::fit::cubic_peak_fit;
use pipedepth_workloads::{suite, Workload};
use std::process::exit;

/// The valid `--max-depth` values: a cubic fit needs four depths (2
/// through 5), and the paper machine is defined up to 64 stages.
const MAX_DEPTHS: std::ops::RangeInclusive<u64> = 5..=64;

struct Options {
    list: bool,
    workload: Workload,
    backend: Backend,
    config: RunConfig,
}

/// Prints one line and exits 2, as every flag error does.
fn fail(message: String) -> ! {
    eprintln!("{message}");
    exit(2)
}

fn parse_args(workloads: &[Workload]) -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |i: usize, flag: &str| -> String {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| fail(format!("{flag} needs a value")))
    };
    let number = |i: usize, flag: &str| -> u64 {
        let text = value(i, flag);
        text.parse()
            .unwrap_or_else(|_| fail(format!("{flag} needs an unsigned integer, got {text:?}")))
    };
    let mut list = false;
    let mut name = "specint-00".to_string();
    let mut backend = Backend::Sim;
    let (mut instructions, mut warmup, mut max_depth) = (60_000, 30_000, 25);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                list = true;
                i += 1;
                continue;
            }
            "--workload" => name = value(i, "--workload"),
            "--instructions" => instructions = number(i, "--instructions"),
            "--warmup" => warmup = number(i, "--warmup"),
            "--max-depth" => max_depth = number(i, "--max-depth"),
            "--backend" => {
                backend = value(i, "--backend")
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--backend: {e}")))
            }
            other => fail(format!(
                "unknown argument {other:?} (usage: sweep [--workload NAME] [--instructions N] \
                 [--warmup N] [--max-depth D] [--backend sim|model] [--list])"
            )),
        }
        // Past the flag and its value.
        i += 2;
    }
    let Some(workload) = workloads.iter().find(|w| w.name == name) else {
        fail(format!(
            "--workload: unknown workload {name:?}; use --list to see the suite"
        ))
    };
    if !MAX_DEPTHS.contains(&max_depth) {
        fail(format!(
            "--max-depth must be in {MAX_DEPTHS:?} (a cubic fit needs four depths, and the \
             paper machine stops at 64), got {max_depth}"
        ));
    }
    if instructions == 0 {
        fail("--instructions must be at least 1".to_string());
    }
    if warmup
        .checked_add(instructions)
        .is_none_or(|window| window > MAX_WINDOW)
    {
        fail(format!(
            "--warmup + --instructions must not exceed {MAX_WINDOW}, got {warmup} + {instructions}"
        ));
    }
    Options {
        list,
        workload: workload.clone(),
        backend,
        config: RunConfig {
            warmup,
            instructions,
            depths: (2..=max_depth as u32).collect(),
            ..RunConfig::default()
        },
    }
}

fn main() {
    let workloads = suite();
    let opts = parse_args(&workloads);

    if opts.list {
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

    let (workload, backend, config) = (&opts.workload, opts.backend, &opts.config);
    println!(
        "sweeping {} ({}), {} instructions per depth, {backend} backend …\n",
        workload.name, workload.class, config.instructions
    );
    // Both backends answer with one curve: simulated under `sim`, the
    // workload's fitted profile in closed form under `model`.
    let curve = curves(
        backend,
        &Runner::serial(),
        std::slice::from_ref(workload),
        config,
    )
    .remove(0);

    let rows: Vec<Vec<String>> = curve
        .points
        .iter()
        .map(|p| {
            vec![
                p.depth.to_string(),
                format!("{:.1}", 2.5 + 140.0 / p.depth as f64),
                format!("{:.2}", p.cpi),
                fmt_sig(p.throughput),
                fmt_sig(p.metric_gated[2]),
                fmt_sig(p.metric_ungated[2]),
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

    let xs = curve.depths();
    let fit = |ys: Vec<f64>| {
        cubic_peak_fit(&xs, &ys).unwrap_or_else(|e| {
            eprintln!("cubic fit failed: {e}");
            exit(1)
        })
    };
    let (m3, bips) = (fit(curve.gated_series(3)), fit(curve.throughput_series()));
    println!(
        "cubic-fit optima: BIPS³/W @ {:.1} stages, BIPS @ {:.1} stages",
        m3.peak_x, bips.peak_x
    );
    let x = &curve.extracted;
    let source = match backend {
        Backend::Sim => format!("extracted at depth {}", x.ref_depth),
        Backend::Model => format!("fitted profile (ref depth {})", x.ref_depth),
    };
    println!(
        "{source}: α = {:.2}, γ = {:.2}, N_H/N_I = {:.3}, κ = {:.3}, t_mem = {:.1} FO4",
        x.alpha, x.gamma, x.hazard_rate, x.kappa, x.memory_time_fo4
    );
}
