//! Golden-artifact regression test for the `repro` binary.
//!
//! A serial and a 2-worker `--quick` run into separate directories must
//! produce CSV artifacts with the expected headers and row counts,
//! byte-identical across the two runs — the determinism guarantee the cell
//! runner makes for any thread count — and `manifest.json` must be
//! byte-identical after masking its wall-clock-dependent lines. A cold and
//! a warm `--store` run must write the same CSVs, leave only the report
//! snapshot on disk, and the warm one must simulate and publish nothing.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;

fn run_repro(out: &Path, threads: &str, store: Option<&Path>) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro"));
    command
        .args(["--quick", "--threads", threads, "--out"])
        .arg(out);
    if let Some(dir) = store {
        command.arg("--store").arg(dir);
    }
    let status = command.status().expect("repro binary runs");
    assert!(status.success(), "repro exited with {status}");
}

/// Every `*.csv` artifact in `dir`, by file name.
fn csvs(dir: &Path) -> BTreeMap<String, String> {
    fs::read_dir(dir)
        .expect("output directory lists")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "csv"))
        .map(|path| {
            let contents = fs::read_to_string(&path).expect("CSV reads");
            let name = path.file_name().expect("file name");
            (name.to_string_lossy().into_owned(), contents)
        })
        .collect()
}

/// The first `"field": N` at or after the start of the manifest's
/// `section`, whether the section spans lines (`cache`) or sits on one
/// (`store`).
fn counter(manifest: &str, section: &str, field: &str) -> u64 {
    let start = manifest
        .find(&format!("\"{section}\": {{"))
        .unwrap_or_else(|| panic!("{section} section missing"));
    let key = format!("\"{field}\": ");
    let rest = &manifest[start..];
    let at = rest
        .find(&key)
        .unwrap_or_else(|| panic!("{section}.{field} missing"))
        + key.len();
    let digits: String = rest[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{section}.{field} is not a count"))
}

fn read(dir: &Path, name: &str) -> String {
    fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The manifest with every wall-clock-dependent line replaced by a
/// placeholder. The manifest's layout contract keeps timing confined to
/// lines containing `_us` (phase timings, timing histograms and counters),
/// the `"threads"` line and gauge lines (worker utilization).
fn masked_manifest(dir: &Path) -> String {
    read(dir, "manifest.json")
        .lines()
        .map(|line| {
            if line.contains("_us") || line.contains("\"threads\"") || line.contains("\"gauge\"") {
                "<masked>"
            } else {
                line
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn quick_artifacts_are_deterministic_and_well_formed() {
    let base = std::env::temp_dir().join(format!("pipedepth-golden-{}", std::process::id()));
    let (dir_a, dir_b) = (base.join("a"), base.join("b"));
    run_repro(&dir_a, "1", None);
    run_repro(&dir_b, "2", None);

    // The quick config sweeps depths 2, 4, …, 24 → 12 rows per depth table;
    // Figs. 8/9 sample the analytic curves at depths 1–28.
    let panel_header = "depth,sim_gated,sim_ungated,theory_gated,theory_ungated";
    let expectations: &[(&str, &str, usize)] = &[
        ("fig1.csv", "p,d_metric_dp", 321),
        ("fig3.csv", "depth,latches", 24),
        ("fig4a.csv", panel_header, 12),
        ("fig4b.csv", panel_header, 12),
        ("fig4c.csv", panel_header, 12),
        ("fig5.csv", "depth,BIPS,BIPS^3/W,BIPS^2/W,BIPS/W", 12),
        (
            "workloads.csv",
            "workload,class,alpha,gamma,hazard_rate,kappa,memory_time_fo4,serial_fraction",
            55,
        ),
        (
            "fig6.csv",
            "workload,class,cubic_fit_depth,grid_depth,r_squared",
            55,
        ),
        (
            "fig8.csv",
            "depth,leak_0pct,leak_15pct,leak_30pct,leak_50pct,leak_90pct",
            28,
        ),
        (
            "fig9.csv",
            "depth,beta_1,beta_1.1,beta_1.3,beta_1.5,beta_1.8",
            28,
        ),
    ];
    for (name, header, rows) in expectations {
        let a = read(&dir_a, name);
        assert_eq!(a.lines().next(), Some(*header), "{name} header");
        assert_eq!(a.lines().count(), rows + 1, "{name} row count");
        assert_eq!(
            a,
            read(&dir_b, name),
            "{name} must be byte-identical across runs"
        );
    }

    // The report carries verdicts plus the runner's own metrics (these are
    // timing-dependent, so report.md is excluded from the byte comparison).
    let report = read(&dir_a, "report.md");
    assert!(
        report.contains("within tolerance"),
        "verdict table missing:\n{report}"
    );
    assert!(
        report.contains("simulation cache:"),
        "cache statistics missing:\n{report}"
    );
    assert!(report.contains("## Run metrics"), "phase table missing");
    assert!(report.contains("## Telemetry"), "telemetry section missing");

    // The manifest must be identical for 1 vs 2 workers once wall-clock
    // lines are masked: counters aggregate commutatively, snapshots are
    // name-sorted, and the JSON layout keeps timing on maskable lines.
    let masked = masked_manifest(&dir_a);
    assert_eq!(
        masked,
        masked_manifest(&dir_b),
        "masked manifest must not depend on the thread count"
    );
    assert!(masked.contains("\"schema_version\": 6"));
    assert!(
        !masked.contains("\"arena\""),
        "the runner keeps no trace arena to report"
    );
    assert!(masked.contains("\"sweep_kernel\": {\"enabled\": true"));
    assert!(
        masked.contains("\"store\": null"),
        "a run without --store must record a null store section"
    );
    assert!(masked.contains("\"digest\": "));
    assert!(masked.contains("\"hit_rate\": "));
    #[cfg(feature = "telemetry")]
    for metric in [
        "\"sim.instructions\"",
        "\"sim.stage.hazard.control.events\"",
        "\"sim.stage.frontend.fetch_stall_cycles\"",
        "\"sim.stage.issue.distinct_cycles\"",
        "\"sim.stage.exec.memory_wait_cycles\"",
        "\"sim.predictor.misses\"",
        "\"sim.cache.l1d.hits\"",
        "\"trace.generators_created\"",
        "\"trace.instructions_generated\"",
        "\"runner.cells_simulated\"",
        "\"runner.cache_hits\"",
        "\"runner.sweep_kernel.groups\"",
        "\"runner.sweep_kernel.cells\"",
        "\"trace.annotate.misses\"",
        "\"trace.annotate.instructions_annotated\"",
        "\"trace.fingerprint_memo_hits\"",
    ] {
        assert!(masked.contains(metric), "{metric} missing from manifest");
    }

    // A cold then a warm run against one store directory. The store keeps
    // answers only, the warm run simulates and publishes nothing, and both
    // write the store-less run's CSVs byte for byte.
    let (store, dir_cold, dir_warm) = (base.join("store"), base.join("cold"), base.join("warm"));
    run_repro(&dir_cold, "1", Some(&store));
    run_repro(&dir_warm, "1", Some(&store));
    let files: Vec<_> = fs::read_dir(&store)
        .expect("store directory lists")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect();
    assert_eq!(
        files,
        ["sim_reports.pds"],
        "the store persists answers only"
    );
    let warm = read(&dir_warm, "manifest.json");
    assert_eq!(
        counter(&warm, "cache", "misses"),
        0,
        "a warm run simulates nothing"
    );
    assert_eq!(
        counter(&warm, "store", "flushes"),
        0,
        "nothing new to publish"
    );
    assert_eq!(
        counter(&warm, "store", "hits"),
        counter(&warm, "store", "reports_loaded"),
        "every loaded report serves a cell"
    );
    let reference = csvs(&dir_a);
    assert!(!reference.is_empty());
    for dir in [&dir_cold, &dir_warm] {
        assert!(
            csvs(dir) == reference,
            "{} CSVs differ from the store-less run",
            dir.display()
        );
    }

    let _ = fs::remove_dir_all(&base);
}
