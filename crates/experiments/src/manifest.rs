//! The machine-readable run manifest written by the `repro` binary.
//!
//! `results/manifest.json` captures everything a downstream consumer needs
//! to audit a reproduction run without scraping `report.md`: a schema
//! version, the run configuration plus a content digest of it, per-phase
//! wall times, the simulation-cache counters and a snapshot of every
//! telemetry metric. The JSON is hand-rendered (the workspace is offline,
//! no serialisation dependency) with one phase and one metric per line, and
//! every wall-clock-dependent field confined to lines containing `_us`,
//! `"threads"` or `"type": "gauge"` — line-oriented consumers, including
//! the golden-manifest test, mask exactly those lines and byte-compare the
//! rest across thread counts.

use crate::runner::CacheStats;
use crate::store::StoreStats;
use crate::sweep::RunConfig;
use pipedepth_sim::AnnotateStats;
use pipedepth_telemetry::{json, Snapshot};
use std::fmt::Write as _;
use std::time::Duration;

/// Version of the manifest layout; bumped on breaking changes so consumers
/// can reject manifests they do not understand. Version 2 added the
/// `arena` section (trace-arena service counters). Version 3 added the
/// single-line `sweep_kernel` section (annotation-store counters) — kept
/// to one line so line-oriented consumers can drop it wholesale. Version 4
/// added the single-line `store` section (persistent-store counters of a
/// `--store` run, or `null` without one), one line for the same reason:
/// warm-vs-cold manifest comparisons drop it with a line filter. Version 5
/// removed `annotations_loaded` from the `store` section: `repro` persists
/// only simulation reports, so it loads no annotations to count. Version 6
/// removed the `arena` section: the runner generates each stream straight
/// into its annotation, so the `sweep_kernel` section's counters are the
/// per-stream counters.
pub const SCHEMA_VERSION: u32 = 6;

/// Wall time of one named phase of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (`suite sweep` or an experiment name).
    pub name: String,
    /// Wall-clock duration of the phase.
    pub wall: Duration,
}

/// Everything `manifest.json` records about one `repro` run.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Worker threads the runner scheduled onto.
    pub threads: usize,
    /// The run configuration (sizing, depths, power calibration).
    pub config: RunConfig,
    /// Per-phase wall times, in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Simulation-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Annotation-store counters of the sweep kernel.
    pub sweep_kernel: AnnotateStats,
    /// Persistent-store counters; `None` when the run had no `--store`.
    pub store: Option<StoreStats>,
    /// Snapshot of every telemetry metric (empty when telemetry is
    /// disabled).
    pub metrics: Snapshot,
    /// Total wall time of the run.
    pub total_wall: Duration,
}

/// FNV-1a content digest of a run configuration. `Debug` round-trips every
/// `f64` exactly, so equal digests mean equal configurations.
pub fn config_digest(config: &RunConfig) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{config:?}").bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn us(d: Duration) -> String {
    json::number(d.as_secs_f64() * 1e6)
}

impl Manifest {
    /// Renders the manifest as JSON (see the module docs for the layout
    /// contract relied on by line-oriented consumers).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"generator\": \"pipedepth repro\",");
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"total_wall_us\": {},", us(self.total_wall));
        out.push_str("  \"config\": {\n");
        let _ = writeln!(
            out,
            "    \"digest\": \"{:016x}\",",
            config_digest(&self.config)
        );
        let _ = writeln!(out, "    \"warmup\": {},", self.config.warmup);
        let _ = writeln!(out, "    \"instructions\": {},", self.config.instructions);
        let _ = writeln!(out, "    \"ref_depth\": {},", self.config.ref_depth);
        let _ = writeln!(
            out,
            "    \"leakage_fraction\": {},",
            json::number(self.config.leakage_fraction)
        );
        let depths: Vec<String> = self.config.depths.iter().map(|d| d.to_string()).collect();
        let _ = writeln!(out, "    \"depths\": [{}]", depths.join(", "));
        out.push_str("  },\n");
        out.push_str("  \"phases\": [\n");
        for (i, phase) in self.phases.iter().enumerate() {
            let comma = if i + 1 == self.phases.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"wall_us\": {}}}{comma}",
                json::escape(&phase.name),
                us(phase.wall)
            );
        }
        out.push_str("  ],\n");
        let cache = &self.cache;
        out.push_str("  \"cache\": {\n");
        let _ = writeln!(out, "    \"hits\": {},", cache.hits);
        let _ = writeln!(out, "    \"misses\": {},", cache.misses);
        let _ = writeln!(out, "    \"inserts\": {},", cache.inserts);
        let _ = writeln!(out, "    \"requested\": {},", cache.requested());
        let _ = writeln!(out, "    \"hit_rate\": {}", json::number(cache.hit_rate()));
        out.push_str("  },\n");
        // The whole section stays on ONE line containing `sweep_kernel`, so
        // the warm-vs-cold manifest comparison can delete it (and nothing
        // else) with a single line filter.
        let kernel = &self.sweep_kernel;
        let _ = writeln!(
            out,
            "  \"sweep_kernel\": {{\"enabled\": true, \"annotation_hits\": {}, \
             \"annotation_misses\": {}, \"instructions_annotated\": {}}},",
            kernel.hits, kernel.misses, kernel.instructions_annotated
        );
        // Same one-line contract as `sweep_kernel`: warm-vs-cold manifest
        // comparisons delete every line containing `store` and nothing
        // else, so the section must never span lines.
        match &self.store {
            Some(stats) => {
                let _ = writeln!(
                    out,
                    "  \"store\": {{\"enabled\": true, \"hits\": {}, \"misses\": {}, \
                     \"reports_loaded\": {}, \"invalid\": {}, \"flushes\": {}, \
                     \"records_flushed\": {}}},",
                    stats.hits,
                    stats.misses,
                    stats.reports_loaded,
                    stats.invalid,
                    stats.flushes,
                    stats.records_flushed
                );
            }
            None => out.push_str("  \"store\": null,\n"),
        }
        out.push_str("  \"metrics\": {\n");
        for (i, metric) in self.metrics.metrics.iter().enumerate() {
            let comma = if i + 1 == self.metrics.metrics.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    \"{}\": {}{comma}",
                json::escape(&metric.name),
                metric.value.to_json()
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest {
            threads: 2,
            config: RunConfig::quick(),
            phases: vec![
                PhaseTiming {
                    name: "suite sweep".into(),
                    wall: Duration::from_micros(1500),
                },
                PhaseTiming {
                    name: "fig4".into(),
                    wall: Duration::from_micros(250),
                },
            ],
            cache: CacheStats {
                hits: 1,
                misses: 3,
                inserts: 3,
            },
            sweep_kernel: AnnotateStats {
                hits: 8,
                misses: 2,
                instructions_annotated: 12_000,
            },
            store: Some(StoreStats {
                hits: 5,
                misses: 7,
                reports_loaded: 5,
                invalid: 0,
                flushes: 3,
                records_flushed: 21,
            }),
            metrics: Snapshot::default(),
            total_wall: Duration::from_micros(2000),
        }
    }

    #[test]
    fn digest_tracks_config_content() {
        let quick = RunConfig::quick();
        assert_eq!(config_digest(&quick), config_digest(&RunConfig::quick()));
        assert_ne!(config_digest(&quick), config_digest(&RunConfig::default()));
    }

    #[test]
    fn renders_schema_version_and_sections() {
        let rendered = manifest().to_json();
        assert!(rendered.starts_with("{\n  \"schema_version\": 6,\n"));
        for needle in [
            "\"config\": {",
            "\"digest\": ",
            "\"phases\": [",
            "\"cache\": {",
            "\"sweep_kernel\": {\"enabled\": true",
            "\"instructions_annotated\": 12000",
            "\"store\": {\"enabled\": true",
            "\"records_flushed\": 21",
            "\"metrics\": {",
            "\"hit_rate\": 0.25",
        ] {
            assert!(rendered.contains(needle), "missing {needle}");
        }
        assert!(!rendered.contains("\"arena\""), "schema 6 has no arena");
    }

    #[test]
    fn sweep_kernel_section_stays_on_one_line() {
        // The warm-vs-cold manifest comparison deletes every line
        // containing `sweep_kernel`; the section must therefore never span
        // lines.
        let rendered = manifest().to_json();
        assert_eq!(
            rendered
                .lines()
                .filter(|l| l.contains("sweep_kernel"))
                .count(),
            1,
            "sweep_kernel must occupy exactly one line"
        );
    }

    #[test]
    fn store_section_stays_on_one_line() {
        // Warm-vs-cold manifest comparisons delete every line containing
        // `store`; the section must therefore never span lines, enabled
        // or disabled.
        let enabled = manifest().to_json();
        let mut m = manifest();
        m.store = None;
        let disabled = m.to_json();
        for rendered in [&enabled, &disabled] {
            assert_eq!(
                rendered.lines().filter(|l| l.contains("\"store\"")).count(),
                1,
                "store must occupy exactly one line"
            );
        }
        assert!(disabled.contains("\"store\": null,"));
        // Dropping that one line makes the two manifests identical.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("\"store\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&enabled), strip(&disabled));
    }

    #[test]
    fn timing_fields_stay_on_maskable_lines() {
        // The golden-manifest test masks lines containing these markers;
        // everything else must be deterministic. Guard the layout contract:
        // no line mixes a wall-clock field with a non-timing field other
        // than the phase name.
        let rendered = manifest().to_json();
        for line in rendered.lines() {
            if line.contains("wall_us") {
                assert!(
                    line.trim_start().starts_with("{\"name\": ") || line.contains("total_wall_us"),
                    "unexpected timing line {line:?}"
                );
            }
        }
        assert_eq!(
            rendered.lines().filter(|l| l.contains("wall_us")).count(),
            3,
            "two phases plus the total"
        );
    }

    #[test]
    fn phase_names_are_escaped() {
        let mut m = manifest();
        m.phases[0].name = "we\"ird".into();
        assert!(m.to_json().contains("we\\\"ird"));
    }
}
