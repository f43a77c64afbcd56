//! The traced repro pass: runs what `repro --threads 1 --store DIR` runs,
//! in process, with each layer called directly and timed.
//!
//! | layer | timed call |
//! |---|---|
//! | `store.load` | `RunStore::open`, `load_reports`, `load_annotations` |
//! | `trace.arena` | `TraceArena::get_or_generate`, once per distinct stream |
//! | `sim.annotate` | `annotate` |
//! | `sim.replay` | `replay_sweep` |
//! | `experiments.extract` | `extract_from_report` and `pipedepth_power::metric` |
//! | `experiments.runner` | `Runner::sweep_all` minus the extraction inside it |
//! | `experiments.figures` | `Experiment::run`, per spec |
//! | `store.publish` | snapshot export, `RunStore::flush_*`, `finish` drain |
//!
//! The suite sweep, the dominant phase of a cold run, is composed from its
//! layers — arena, annotate, replay — exactly as the runner's sweep kernel
//! composes them, and handed to the runner as a warm tier plus seeded
//! annotations. `Runner::sweep_all` then costs only planning, cache probes
//! and extraction; extraction is timed by repeating it on the same reports
//! beside the pass and checked against the runner's curves. Figure specs
//! run unchanged on that runner. Publishes are drained before the pass
//! continues, so their cost is charged rather than overlapped.

use crate::spans::{micros, Spans};
use pipedepth_experiments::eval::Backend;
use pipedepth_experiments::experiment::{registry, Context};
use pipedepth_experiments::extract_from_report;
use pipedepth_experiments::paper;
use pipedepth_experiments::runner::{CellSpec, Runner, SimCache};
use pipedepth_experiments::store::RunStore;
use pipedepth_experiments::sweep::{RunConfig, WorkloadCurve};
use pipedepth_power::metric;
use pipedepth_sim::{annotate, replay_sweep, AnnotatedTrace, AnnotationKey, SimConfig, SimReport};
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::{TraceArena, TraceRequest};
use pipedepth_workloads::{suite, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The suite sweep composed from its layers.
#[derive(Debug, Default)]
pub struct Composed {
    /// One report per (workload, depth) cell.
    pub reports: Vec<(CellSpec, Arc<SimReport>)>,
    /// One annotation per workload stream, keyed as the runner keys it.
    pub annotations: Vec<(AnnotationKey, Arc<AnnotatedTrace>)>,
}

/// Composes the paper-machine depth sweep of `workloads` from its layers —
/// one arena stream, one annotation and one batched replay per workload,
/// as the runner's sweep kernel does — timing each layer into `spans`.
pub fn compose_sweep(
    workloads: &[Workload],
    config: &RunConfig,
    telemetry: &Telemetry,
    spans: &mut Spans,
) -> Composed {
    let arena = TraceArena::new();
    let mut out = Composed::default();
    for w in workloads {
        let cells: Vec<CellSpec> = config
            .depths
            .iter()
            .map(|&d| CellSpec::new(w, SimConfig::paper(d), config.warmup, config.instructions))
            .collect();
        let Some(lead) = cells.first().copied() else {
            continue;
        };
        let len = lead.trace_len();
        let trace = spans.time("trace.arena", || {
            arena.get_or_generate(w.model, w.trace_seed, len)
        });
        spans.count("trace.arena.streams", 1.0);
        spans.count("trace.arena.instructions", len as f64);
        let notes = spans
            .time("sim.annotate", || {
                annotate(&trace, lead.sim.cache, lead.sim.predictor)
            })
            .expect("the paper machine's cache and predictor are valid");
        spans.count("sim.annotate.instructions", len as f64);
        spans.count("sim.annotate.bytes", notes.bytes() as f64);
        let configs: Vec<SimConfig> = cells.iter().map(|c| c.sim).collect();
        let reports = spans
            .time("sim.replay", || {
                replay_sweep(
                    &notes,
                    &configs,
                    config.warmup,
                    config.instructions,
                    telemetry,
                )
            })
            .expect("paper machines replay");
        spans.count("sim.replay.lanes", configs.len() as f64);
        spans.count(
            "sim.replay.lane_instructions",
            (configs.len() as u64 * len) as f64,
        );
        spans.count("sim.replay.bytes", notes.bytes() as f64);
        let key = AnnotationKey {
            trace_key: TraceRequest {
                model: w.model,
                seed: w.trace_seed,
                len,
            }
            .key(),
            len: len as usize,
            cache: lead.sim.cache,
            predictor: lead.sim.predictor,
        };
        out.annotations.push((key, Arc::new(notes)));
        out.reports
            .extend(cells.into_iter().zip(reports.into_iter().map(Arc::new)));
    }
    out
}

/// What one traced repro pass produced.
#[derive(Debug)]
pub struct ReproPass {
    /// Wall time of the pass, without the side measurement of extraction.
    pub wall_us: f64,
    /// Time charged to layers during the pass.
    pub layer_us: f64,
    /// Figure CSVs by file name, as `repro` would write them.
    pub csvs: BTreeMap<String, Vec<u8>>,
    /// Paper verdicts within tolerance, and in total.
    pub verdicts: (usize, usize),
    /// Whether the side measurement of extraction reproduced the runner's
    /// curves exactly.
    pub extraction_matches: bool,
}

/// Runs the whole registry on `config` against the store in `dir`, the way
/// `repro --threads 1 --store DIR` does. A store holding a finished run
/// makes a warm pass; an empty one a cold pass, whose suite sweep is
/// composed from its layers.
pub fn repro_pass(config: &RunConfig, dir: &Path, spans: &mut Spans) -> ReproPass {
    let start = Instant::now();
    let layers_before = spans.total_us();
    let telemetry = Telemetry::new();
    let on_disk = dir_bytes(dir);
    let (mut store, image, seeds) = spans.time("store.load", || {
        let mut store = RunStore::open(dir, config, &telemetry);
        let image = store.load_reports();
        let seeds = store.load_annotations();
        (store, image, seeds)
    });
    let loaded = (image.len(), seeds.len());
    spans.count("store.load.records", (loaded.0 + loaded.1) as f64);
    if loaded.0 + loaded.1 > 0 {
        spans.count("store.load.bytes", on_disk as f64);
    }
    let cold = image.is_empty();
    let (image, seeds, reports) = if cold {
        let composed = compose_sweep(&suite(), config, &telemetry, spans);
        let image = SimCache::new();
        for (spec, report) in &composed.reports {
            image.insert(spec.key(), *spec, Arc::clone(report));
        }
        (image, composed.annotations, composed.reports)
    } else {
        let reports = image.entries();
        (image, seeds, reports)
    };
    let by_key: BTreeMap<u64, Arc<SimReport>> =
        reports.into_iter().map(|(s, r)| (s.key(), r)).collect();

    let runner = Runner::new(1)
        .with_telemetry(telemetry.clone())
        .with_warm_reports(image);
    let ctx = Context::with_backend(config.clone(), runner, Backend::Sim);
    ctx.runner.seed_annotations(seeds);
    let mut publisher = Publisher {
        dir,
        config,
        high: loaded,
    };

    let sweep = Instant::now();
    let curves = ctx.curves();
    let sweep_us = micros(sweep);
    let side = Instant::now();
    let (extract_us, extraction_matches) = extraction(curves, &by_key, config);
    let side_us = micros(side);
    spans.add_us("experiments.extract", extract_us);
    spans.add_us("experiments.runner", (sweep_us - extract_us).max(0.0));
    publisher.publish_if_grown(&ctx.runner, spans);

    let mut csvs = BTreeMap::new();
    for exp in &registry() {
        let t = Instant::now();
        let out = exp.run(&ctx);
        let us = micros(t);
        spans.add_us("experiments.figures", us);
        spans.add_detail_us(exp.name(), us);
        for artifact in out.artifacts {
            if artifact.filename.ends_with(".csv") {
                csvs.insert(artifact.filename, artifact.contents.into_bytes());
            }
        }
        publisher.publish_if_grown(&ctx.runner, spans);
    }

    let o = &ctx.outcomes;
    let verdicts = match (
        o.fig1.get(),
        o.fig3.get(),
        o.fig6.get(),
        o.fig7.get(),
        o.fig8.get(),
        o.fig9.get(),
        o.headline.get(),
    ) {
        (Some(f1), Some(f3), Some(f6), Some(f7), Some(f8), Some(f9), Some(h)) => {
            let rows = paper::compare(f1, f3, f6, f7, f8, f9, h);
            (rows.iter().filter(|r| r.ok()).count(), rows.len())
        }
        _ => (0, 0),
    };
    store.record_warm(ctx.runner.warm_report_stats());
    spans.time("store.publish", || store.finish());

    if let Some(stats) = ctx.runner.cache_stats() {
        // A real cold run simulates the suite cells this pass served from
        // the composed warm tier, so those warm hits are not cache hits.
        let composed = if cold {
            ctx.runner.warm_report_stats().map_or(0, |w| w.hits)
        } else {
            0
        };
        spans.count(
            "experiments.runner.hits",
            stats.hits.saturating_sub(composed) as f64,
        );
        spans.count("experiments.runner.requested", stats.requested() as f64);
    }
    ReproPass {
        wall_us: micros(start) - side_us,
        layer_us: spans.total_us() - layers_before,
        csvs,
        verdicts,
        extraction_matches,
    }
}

/// Times the extraction `Runner::sweep_all` applies to each swept cell —
/// six metric evaluations per depth, parameter extraction at the reference
/// depth — by repeating it on the same reports, and reports whether the
/// results equal the runner's curves.
fn extraction(
    curves: &[WorkloadCurve],
    reports: &BTreeMap<u64, Arc<SimReport>>,
    config: &RunConfig,
) -> (f64, bool) {
    let gated = config.power_gated();
    let ungated = config.power_ungated();
    let mut us = 0.0;
    let mut matches = true;
    for curve in curves {
        for point in &curve.points {
            let spec = CellSpec::new(
                &curve.workload,
                SimConfig::paper(point.depth),
                config.warmup,
                config.instructions,
            );
            let Some(report) = reports.get(&spec.key()) else {
                matches = false;
                continue;
            };
            let t = Instant::now();
            let m = |power, exp| metric(report, power, exp);
            let metric_gated = [m(&gated, 1.0), m(&gated, 2.0), m(&gated, 3.0)];
            let metric_ungated = [m(&ungated, 1.0), m(&ungated, 2.0), m(&ungated, 3.0)];
            let extracted =
                (point.depth == config.ref_depth).then(|| extract_from_report(report, &gated));
            us += micros(t);
            matches &= point.metric_gated == metric_gated
                && point.metric_ungated == metric_ungated
                && extracted.is_none_or(|x| x == curve.extracted);
        }
    }
    (us, matches)
}

/// Publishes the runner's snapshots whenever they outgrow what is on disk,
/// as `repro` does after every phase, draining each publish before
/// returning.
struct Publisher<'a> {
    dir: &'a Path,
    config: &'a RunConfig,
    /// Largest report and annotation counts already on disk.
    high: (usize, usize),
}

impl Publisher<'_> {
    fn publish_if_grown(&mut self, runner: &Runner, spans: &mut Spans) {
        let start = Instant::now();
        let reports = runner.export_reports();
        let notes = runner.export_annotations();
        let grew = (reports.len() > self.high.0, notes.len() > self.high.1);
        if grew.0 || grew.1 {
            let store = RunStore::open(self.dir, self.config, &Telemetry::disabled());
            if grew.0 {
                self.high.0 = reports.len();
                store.flush_reports(reports);
            }
            if grew.1 {
                self.high.1 = notes.len();
                store.flush_annotations(notes);
            }
            store.finish();
        }
        spans.add_us("store.publish", micros(start));
        for (grown, file) in [(grew.0, "sim_reports.pds"), (grew.1, "annotations.pds")] {
            if grown {
                let bytes = std::fs::metadata(self.dir.join(file)).map_or(0, |m| m.len());
                spans.count("store.publish.bytes", bytes as f64);
            }
        }
    }
}

/// Total size of the files directly inside `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
