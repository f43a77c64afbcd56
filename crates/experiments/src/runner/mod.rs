//! Cell-level simulation runner shared by every experiment.
//!
//! A sweep decomposes into independent *cells* — one (workload × depth ×
//! machine) simulation each, see [`CellSpec`] — which a [`Runner`] executes
//! on a worker pool with dynamic work distribution: workers pull the next
//! cell off a shared atomic index, so one slow workload never idles the
//! other threads the way static chunking did. Finished cells land in a
//! shared content-keyed [`SimCache`], so figures that re-visit the same
//! machine (the gating-degree extension, the ablation baseline, the
//! issue-policy in-order arm) reuse the suite sweep instead of
//! re-simulating it.
//!
//! Cell results are deterministic and independent, so the assembled curves
//! are identical for any thread count; `threads = 1` executes in submission
//! order on the calling thread.
//!
//! Every simulated cell is timed by the sweep kernel: the planner groups
//! the pending cells that differ only in pipeline depth, asks the
//! [`AnnotationStore`] for each group's annotation, and [`replay_sweep`]
//! advances every member as one lane of a single pass. A cell with no
//! depth mates is a one-lane group. The stage engine
//! ([`CellSpec::execute`]) is the reference the kernel is tested against,
//! not a second production path.
//!
//! The annotation store is the runner's only per-stream cache. On a miss
//! it generates the group's (model, seed, length) stream straight into
//! the annotate pass, so no instruction stream is ever held in memory;
//! on a hit it generates nothing. The planner runs serially on the
//! calling thread before any worker starts, so no generation is
//! duplicated, no worker blocks on another's, and the store's counters
//! are identical for any thread count.

mod cache;
mod cell;

pub use cache::{CacheStats, SimCache};
pub use cell::CellSpec;

use crate::extract::extract_from_report;
use crate::sweep::{DepthPoint, RunConfig, WorkloadCurve};
use pipedepth_core::eval::TieredCache;
use pipedepth_power::metric;
use pipedepth_sim::{
    replay_sweep, AnnotatedTrace, AnnotationKey, AnnotationStore, ConfigError, SimConfig, SimReport,
};
use pipedepth_telemetry::{Stopwatch, Telemetry, DEFAULT_TIME_BUCKETS_US};
use pipedepth_trace::TraceRequest;
use pipedepth_workloads::Workload;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One schedulable unit of a batch: pending cells that differ only in
/// pipeline depth, replayed as the lanes of one pass over the annotation
/// they share.
#[derive(Debug)]
struct Group {
    /// Indices into the pending list; the first is the group's lead.
    members: Vec<usize>,
    /// The shared annotation, or the configuration error that prevented
    /// it — surfaced where replay surfaces its own validation errors.
    annotation: Result<Arc<AnnotatedTrace>, ConfigError>,
}

/// Executes simulation cells on a worker pool, backed by a shared cache.
#[derive(Debug)]
pub struct Runner {
    threads: usize,
    /// Shared result cache — a memory tier with an optional warm tier
    /// loaded from a persistent store.
    cache: TieredCache<CellSpec, SimReport>,
    telemetry: Telemetry,
    /// Shared annotations, one per (stream, cache, predictor), reused
    /// across batches; the only per-stream state the runner keeps.
    annotations: AnnotationStore,
    /// Watermark of the process-global fingerprint-memo hit counter, so
    /// each batch flushes only its own delta into telemetry.
    memo_hits_seen: AtomicU64,
}

impl Runner {
    /// A runner with an explicit worker count (`0` means one worker per
    /// available CPU).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            threads
        };
        Runner {
            threads,
            cache: TieredCache::new(),
            telemetry: Telemetry::disabled(),
            annotations: AnnotationStore::new(),
            memo_hits_seen: AtomicU64::new(pipedepth_trace::fingerprint_memo_hits()),
        }
    }

    /// A single-threaded runner: cells run in submission order on the
    /// calling thread.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// Attaches a telemetry handle; scheduling counters, per-cell timing
    /// histograms, annotation and generation counters and the replay
    /// metrics of every executed group report into it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.annotations.attach_telemetry(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// Attaches a warm tier of finished reports — the decoded image of a
    /// previous run's persistent snapshot. Memory misses then probe the
    /// warm tier and promote hits, so previously computed cells skip
    /// simulation entirely.
    pub fn with_warm_reports(mut self, warm: SimCache) -> Self {
        self.cache.attach_warm(warm);
        self
    }

    /// Worker count this runner schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cache hit/miss counters so far: the memory-tier classification
    /// counters the runner has always reported — attaching a warm tier
    /// does not change them. Always `Some`; the `Option` is kept for
    /// callers that still match on it.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    /// Warm-tier probe counters (`None` when no warm tier is attached):
    /// `hits` = cells served from the loaded snapshot instead of
    /// simulation.
    pub fn warm_report_stats(&self) -> Option<CacheStats> {
        self.cache.warm_stats()
    }

    /// The finished report of `cell`, if the cache can answer it, without
    /// simulating anything. Leaves the hit/miss counters alone; a warm-tier
    /// hit counts as a warm probe and is promoted, as in
    /// [`run_cells`](Self::run_cells).
    pub fn cached(&self, cell: &CellSpec) -> Option<Arc<SimReport>> {
        self.cache.get(cell.key(), cell)
    }

    /// A deterministic snapshot of every finished cell the cache can
    /// answer — each cell loaded into the warm tier plus each cell
    /// simulated since — for the persistence layer to encode and publish.
    pub fn export_reports(&self) -> Vec<(CellSpec, Arc<SimReport>)> {
        self.cache.entries()
    }

    /// Seeds the annotation store from a persistent snapshot, so warm
    /// depth groups skip the annotate pass. Counter-neutral (seeded
    /// entries count neither hits nor misses); returns how many entries
    /// were actually inserted. `repro` persists no annotations;
    /// perfbench's traced repro pass seeds its runner through this.
    pub fn seed_annotations(
        &self,
        seeds: impl IntoIterator<Item = (AnnotationKey, Arc<AnnotatedTrace>)>,
    ) -> u64 {
        seeds
            .into_iter()
            .filter(|(key, notes)| self.annotations.seed(*key, Arc::clone(notes)))
            .count() as u64
    }

    /// A deterministic snapshot of every annotation in the store, for the
    /// persistence layer to encode and publish. `repro` persists no
    /// annotations; perfbench's traced repro pass publishes this.
    pub fn export_annotations(&self) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
        self.annotations.export()
    }

    /// Annotation-store counters so far — the per-stream counters: each
    /// miss generated and annotated one stream (all zero until the first
    /// batch simulates a cell).
    pub fn annotation_stats(&self) -> pipedepth_sim::AnnotateStats {
        self.annotations.stats()
    }

    /// Runs a batch of cells, returning one report per requested cell in
    /// order. Cells already in the cache — or repeated within the batch —
    /// are simulated only once.
    pub fn run_cells(&self, cells: &[CellSpec]) -> Vec<Arc<SimReport>> {
        let mut results: Vec<Option<Arc<SimReport>>> = vec![None; cells.len()];
        // Unique cache misses, each with the result slots waiting on it.
        let mut pending: Vec<(u64, CellSpec)> = Vec::new();
        let mut waiters: Vec<Vec<usize>> = Vec::new();
        let mut hits: u64 = 0;
        for (i, cell) in cells.iter().enumerate() {
            let key = cell.key();
            if let Some(report) = self.cache.get(key, cell) {
                results[i] = Some(report);
                hits += 1;
            } else if let Some(j) = pending.iter().position(|(k, c)| *k == key && c == cell) {
                waiters[j].push(i);
                hits += 1; // shares the one simulation below
            } else {
                pending.push((key, *cell));
                waiters.push(vec![i]);
            }
        }
        self.cache.count_hits(hits);
        self.cache.count_misses(pending.len() as u64);
        self.telemetry
            .counter("runner.cells_requested")
            .add(cells.len() as u64);
        self.telemetry.counter("runner.cache_hits").add(hits);
        self.telemetry
            .counter("runner.cells_simulated")
            .add(pending.len() as u64);

        let groups = self.plan_groups(&pending);
        let computed = self.execute_groups(&pending, &groups);
        self.flush_memo_hits();

        for (((key, spec), slots), report) in pending.into_iter().zip(waiters).zip(computed) {
            if self.cache.insert(key, spec, Arc::clone(&report)) {
                self.telemetry.counter("runner.cache_inserts").inc();
            }
            for i in slots {
                results[i] = Some(Arc::clone(&report));
            }
        }
        results
            .into_iter()
            // analysis: allow(panic-path) — every slot is filled above: hits
            // in the classification loop, misses by their waiter lists
            .map(|r| r.expect("every requested cell resolved"))
            .collect()
    }

    /// Partitions the pending cells into depth groups: cells that differ
    /// only in pipeline depth share one [`Group`] and one annotation, and a
    /// cell with no depth mates is a one-lane group. Generation and
    /// annotation run here, serially, so the annotation-store and
    /// generator counters are deterministic for any thread count.
    ///
    /// Grouping compares cells structurally ([`PartialEq`] with the depth
    /// field neutralised) rather than by hash, so it changes no
    /// fingerprint or cache-counter accounting.
    fn plan_groups(&self, pending: &[(u64, CellSpec)]) -> Vec<Group> {
        let mates = |a: &CellSpec, b: &CellSpec| {
            a.model == b.model
                && a.trace_seed == b.trace_seed
                && a.warmup == b.warmup
                && a.instructions == b.instructions
                && SimConfig { depth: 0, ..a.sim } == SimConfig { depth: 0, ..b.sim }
        };
        let mut assigned = vec![false; pending.len()];
        let mut groups = Vec::new();
        for i in 0..pending.len() {
            if assigned[i] {
                continue;
            }
            assigned[i] = true;
            let mut members = vec![i];
            for j in (i + 1)..pending.len() {
                if !assigned[j] && mates(&pending[i].1, &pending[j].1) {
                    assigned[j] = true;
                    members.push(j);
                }
            }
            let spec = &pending[i].1;
            let request = TraceRequest {
                model: spec.model,
                seed: spec.trace_seed,
                len: spec.trace_len(),
            };
            let annotation =
                self.annotations
                    .get_or_annotate(request, spec.sim.cache, spec.sim.predictor);
            groups.push(Group {
                members,
                annotation,
            });
        }
        groups
    }

    /// Executes the planned groups, in order when serial, otherwise via a
    /// shared atomic work index over scoped worker threads. Returns one
    /// report per pending cell, in pending order.
    fn execute_groups(&self, pending: &[(u64, CellSpec)], groups: &[Group]) -> Vec<Arc<SimReport>> {
        let workers = self.threads.min(groups.len());
        let batch_start = Stopwatch::start();
        let busy_before = self.telemetry.counter("runner.worker_busy_us").value();
        let slots: Vec<OnceLock<Arc<SimReport>>> =
            (0..pending.len()).map(|_| OnceLock::new()).collect();
        if workers <= 1 {
            for group in groups {
                self.execute_group(group, pending, &slots, batch_start);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(group) = groups.get(i) else {
                            break;
                        };
                        self.execute_group(group, pending, &slots, batch_start);
                    });
                }
            });
        }
        let reports: Vec<Arc<SimReport>> = slots
            .into_iter()
            // analysis: allow(panic-path) — the planner assigns every
            // pending index to exactly one group, and workers drain the
            // shared index past groups.len(), so no slot is left unset
            .map(|slot| slot.into_inner().expect("every planned cell executed"))
            .collect();
        if self.telemetry.is_enabled() && !pending.is_empty() {
            let wall_us = batch_start.elapsed_us();
            let busy_us = self
                .telemetry
                .counter("runner.worker_busy_us")
                .value()
                .saturating_sub(busy_before);
            if wall_us > 0.0 {
                self.telemetry
                    .gauge("runner.worker_utilization")
                    .set((busy_us as f64 / (workers.max(1) as f64 * wall_us)).clamp(0.0, 1.0));
            }
            if busy_us > 0 {
                // Simulation throughput over the batch: simulated
                // instructions (warmup + measured) per worker-busy
                // microsecond = MIPS.
                let simulated: u64 = pending
                    .iter()
                    .map(|(_, spec)| spec.warmup + spec.instructions)
                    .sum();
                self.telemetry
                    .gauge("runner.sim_mips")
                    .set(simulated as f64 / busy_us as f64);
            }
        }
        reports
    }

    /// Runs one depth group through the sweep kernel — every member lane
    /// advances through the shared annotation in a single pass — and fills
    /// each member's result slot. Each member records one
    /// queue-wait/cell-time sample, so the scheduling histograms count once
    /// per simulated cell.
    fn execute_group(
        &self,
        group: &Group,
        pending: &[(u64, CellSpec)],
        slots: &[OnceLock<Arc<SimReport>>],
        queued_at: Stopwatch,
    ) {
        let start = Stopwatch::start();
        let lead = &pending[group.members[0]].1;
        let configs: Vec<SimConfig> = group.members.iter().map(|&i| pending[i].1.sim).collect();
        let reports = group
            .annotation
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|notes| {
                replay_sweep(
                    notes,
                    &configs,
                    lead.warmup,
                    lead.instructions,
                    &self.telemetry,
                )
            })
            // analysis: allow(panic-path) — a cell's machine is a
            // validated `SimConfig` (the paper builders, or `SimBackend`'s
            // checked `try_paper`), the precondition `Engine::new` also
            // asserts, so neither annotation nor replay rejects it
            .expect("runner cells carry validated machine configurations");
        if self.telemetry.is_enabled() {
            let wait_us = queued_at.elapsed_us();
            let busy_us = start.elapsed_us();
            let per_cell_us = busy_us / group.members.len() as f64;
            for _ in &group.members {
                self.telemetry
                    .histogram("runner.queue_wait_us", &DEFAULT_TIME_BUCKETS_US)
                    .record(wait_us);
                self.telemetry
                    .histogram("runner.cell_time_us", &DEFAULT_TIME_BUCKETS_US)
                    .record(per_cell_us);
            }
            self.telemetry.counter("runner.sweep_kernel.groups").inc();
            self.telemetry
                .counter("runner.sweep_kernel.cells")
                .add(group.members.len() as u64);
            self.telemetry
                .counter("runner.worker_busy_us")
                .add(busy_us as u64);
        }
        for (&i, report) in group.members.iter().zip(reports.into_iter().map(Arc::new)) {
            // analysis: allow(panic-path) — the planner assigns each
            // pending index to exactly one group
            slots[i].set(report).expect("each cell planned once");
        }
    }

    /// Flushes the delta of the process-global [`WorkloadModel`]
    /// fingerprint-memo hit counter into telemetry, against this runner's
    /// own watermark.
    ///
    /// [`WorkloadModel`]: pipedepth_trace::WorkloadModel
    fn flush_memo_hits(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let seen = pipedepth_trace::fingerprint_memo_hits();
        let prev = self.memo_hits_seen.swap(seen, Ordering::Relaxed);
        self.telemetry
            .counter("trace.fingerprint_memo_hits")
            .add(seen.saturating_sub(prev));
    }

    /// Sweeps one workload on the paper machine.
    pub fn sweep_workload(&self, workload: &Workload, config: &RunConfig) -> WorkloadCurve {
        self.sweep_workload_with(workload, config, SimConfig::paper)
    }

    /// Sweeps one workload with a custom machine builder (ablations and
    /// the issue-policy study vary the microarchitecture per depth).
    pub fn sweep_workload_with(
        &self,
        workload: &Workload,
        config: &RunConfig,
        make_sim: impl Fn(u32) -> SimConfig,
    ) -> WorkloadCurve {
        let cells = depth_cells(workload, config, &make_sim);
        let reports = self.run_cells(&cells);
        curve_from_reports(workload, config, &reports)
    }

    /// Sweeps many workloads as one flat cell batch — the scheduler
    /// distributes individual (workload, depth) cells, not whole workloads.
    pub fn sweep_all(&self, workloads: &[Workload], config: &RunConfig) -> Vec<WorkloadCurve> {
        let cells: Vec<CellSpec> = workloads
            .iter()
            .flat_map(|w| depth_cells(w, config, &SimConfig::paper))
            .collect();
        let reports = self.run_cells(&cells);
        workloads
            .iter()
            .zip(reports.chunks(config.depths.len()))
            .map(|(w, chunk)| curve_from_reports(w, config, chunk))
            .collect()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new(0)
    }
}

/// The cells of one workload's depth sweep.
fn depth_cells(
    workload: &Workload,
    config: &RunConfig,
    make_sim: &impl Fn(u32) -> SimConfig,
) -> Vec<CellSpec> {
    config
        .depths
        .iter()
        .map(|&depth| {
            CellSpec::new(
                workload,
                make_sim(depth),
                config.warmup,
                config.instructions,
            )
        })
        .collect()
}

/// Assembles a [`WorkloadCurve`] from one report per configured depth,
/// extracting theory parameters at the reference depth (falling back to
/// the deepest point when the reference is not in the sweep).
fn curve_from_reports(
    workload: &Workload,
    config: &RunConfig,
    reports: &[Arc<SimReport>],
) -> WorkloadCurve {
    assert_eq!(
        reports.len(),
        config.depths.len(),
        "one report per configured depth"
    );
    let gated = config.power_gated();
    let ungated = config.power_ungated();
    let mut points = Vec::with_capacity(config.depths.len());
    let mut extracted = None;
    for (&depth, report) in config.depths.iter().zip(reports) {
        if depth == config.ref_depth
            || (extracted.is_none() && Some(&depth) == config.depths.last())
        {
            extracted = Some(extract_from_report(report, &gated));
        }
        points.push(DepthPoint {
            depth,
            throughput: report.throughput(),
            metric_gated: [
                metric(report, &gated, 1.0),
                metric(report, &gated, 2.0),
                metric(report, &gated, 3.0),
            ],
            metric_ungated: [
                metric(report, &ungated, 1.0),
                metric(report, &ungated, 2.0),
                metric(report, &ungated, 3.0),
            ],
            cpi: report.cpi(),
        });
    }
    WorkloadCurve {
        workload: workload.clone(),
        points,
        // analysis: allow(panic-path) — the assert above pins reports to
        // depths, and the loop extracts at the last depth if nothing else
        extracted: extracted.expect("sweep covered at least one depth"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_workloads::representatives;

    fn tiny() -> RunConfig {
        RunConfig {
            warmup: 2_000,
            instructions: 4_000,
            depths: vec![4, 8, 12],
            ..RunConfig::default()
        }
    }

    fn cells_of(w: &Workload, cfg: &RunConfig) -> Vec<CellSpec> {
        depth_cells(w, cfg, &SimConfig::paper)
    }

    #[test]
    fn repeat_batches_hit_the_cache() {
        let runner = Runner::serial();
        let cells = cells_of(&representatives()[0], &tiny());
        let first = runner.run_cells(&cells);
        let again = runner.run_cells(&cells);
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b), "second batch must reuse reports");
        }
        let stats = runner.cache_stats().expect("always Some");
        assert_eq!(stats.misses, cells.len() as u64);
        assert_eq!(stats.hits, cells.len() as u64);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // A lookup answers from the cache without simulating or counting.
        let hit = runner.cached(&cells[0]).expect("simulated above");
        assert!(Arc::ptr_eq(&hit, &first[0]));
        let unseen = CellSpec::new(&representatives()[1], SimConfig::paper(4), 2_000, 4_000);
        assert!(runner.cached(&unseen).is_none());
        assert_eq!(runner.cache_stats(), Some(stats));
    }

    #[test]
    fn in_batch_duplicates_simulate_once() {
        let runner = Runner::serial();
        let base = cells_of(&representatives()[0], &tiny());
        let doubled: Vec<CellSpec> = base.iter().chain(base.iter()).copied().collect();
        let reports = runner.run_cells(&doubled);
        let stats = runner.cache_stats().expect("always Some");
        assert_eq!(stats.misses, base.len() as u64);
        for (a, b) in reports[..base.len()].iter().zip(&reports[base.len()..]) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let ws = representatives();
        let cfg = tiny();
        let serial = Runner::serial().sweep_all(&ws, &cfg);
        let parallel = Runner::new(4).sweep_all(&ws, &cfg);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweep_all_matches_per_workload_sweeps() {
        let ws = representatives();
        let cfg = tiny();
        let runner = Runner::new(3);
        let all = runner.sweep_all(&ws, &cfg);
        let single = Runner::serial();
        for (w, curve) in ws.iter().zip(&all) {
            assert_eq!(&single.sweep_workload(w, &cfg), curve);
        }
    }

    #[test]
    fn telemetry_counters_are_thread_count_invariant() {
        let ws = representatives();
        let cfg = tiny();
        let run = |threads: usize| {
            let telemetry = Telemetry::new();
            let runner = Runner::new(threads).with_telemetry(telemetry.clone());
            runner.sweep_all(&ws, &cfg);
            runner.sweep_all(&ws, &cfg); // second pass exercises cache hits
            telemetry.snapshot()
        };
        let serial = run(1);
        let parallel = run(4);
        let cells = (ws.len() * cfg.depths.len()) as u64;
        assert_eq!(serial.counter("runner.cells_requested"), 2 * cells);
        assert_eq!(serial.counter("runner.cells_simulated"), cells);
        assert_eq!(serial.counter("runner.cache_hits"), cells);
        assert_eq!(serial.counter("runner.cache_inserts"), cells);
        for name in [
            "runner.cells_requested",
            "runner.cells_simulated",
            "runner.cache_hits",
            "runner.cache_inserts",
            "sim.instructions",
            "sim.predictor.hits",
            "sim.predictor.misses",
            "trace.generators_created",
            "trace.instructions_generated",
            "trace.annotate.misses",
            "trace.annotate.instructions_annotated",
        ] {
            assert_eq!(serial.counter(name), parallel.counter(name), "{name}");
            assert!(serial.get(name).is_some(), "{name} missing");
        }
        // Each stream is generated once, straight into its annotation, and
        // the cache-hit pass generates nothing.
        assert_eq!(serial.counter("trace.generators_created"), ws.len() as u64);
        assert_eq!(
            serial.counter("trace.generators_created"),
            serial.counter("trace.annotate.misses")
        );
        assert_eq!(
            serial.counter("trace.instructions_generated"),
            serial.counter("trace.annotate.instructions_annotated")
        );
        // Timing histograms observe exactly one sample per simulated cell
        // regardless of scheduling.
        for snap in [&serial, &parallel] {
            let hist = snap.histogram("runner.cell_time_us").expect("cell timing");
            assert_eq!(hist.count, cells);
            let wait = snap.histogram("runner.queue_wait_us").expect("queue wait");
            assert_eq!(wait.count, cells);
        }
    }

    #[test]
    fn runner_matches_the_reference_engine_cell_by_cell() {
        // The stage engine is the reference the sweep kernel is held to:
        // multi-lane groups, a one-lane group and a non-default machine
        // must each reproduce `CellSpec::execute` exactly.
        let ws = representatives();
        let cfg = tiny();
        let runner = Runner::new(2);
        let sweeps: Vec<CellSpec> = ws.iter().flat_map(|w| cells_of(w, &cfg)).collect();
        let singleton = vec![CellSpec::new(
            &ws[1],
            SimConfig::paper(9),
            cfg.warmup,
            cfg.instructions,
        )];
        let wide = depth_cells(&ws[2], &cfg, &|depth| SimConfig {
            width: 2,
            ..SimConfig::paper(depth)
        });
        for batch in [sweeps, singleton, wide] {
            for (cell, report) in batch.iter().zip(runner.run_cells(&batch)) {
                assert_eq!(
                    *report,
                    cell.execute(),
                    "depth {} width {} diverged from the engine",
                    cell.sim.depth,
                    cell.sim.width
                );
            }
        }
    }

    #[test]
    fn sweep_kernel_groups_whole_depth_sweeps() {
        let ws = representatives();
        let cfg = tiny();
        let telemetry = Telemetry::new();
        let runner = Runner::new(2).with_telemetry(telemetry.clone());
        runner.sweep_all(&ws, &cfg);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("runner.sweep_kernel.groups"), ws.len() as u64);
        assert_eq!(
            snap.counter("runner.sweep_kernel.cells"),
            (ws.len() * cfg.depths.len()) as u64
        );
        // One annotation pass per workload stream, reused by every lane.
        assert_eq!(snap.counter("trace.annotate.misses"), ws.len() as u64);
        assert_eq!(snap.counter("trace.annotate.hits"), 0);
        // Scheduling histograms still observe one sample per cell.
        let cells = (ws.len() * cfg.depths.len()) as u64;
        let hist = snap.histogram("runner.cell_time_us").expect("cell timing");
        assert_eq!(hist.count, cells);
        let wait = snap.histogram("runner.queue_wait_us").expect("queue wait");
        assert_eq!(wait.count, cells);
    }

    #[test]
    fn singletons_are_one_lane_groups() {
        let ws = representatives();
        let single_depth = RunConfig {
            depths: vec![8],
            ..tiny()
        };
        let telemetry = Telemetry::new();
        let runner = Runner::serial().with_telemetry(telemetry.clone());
        runner.sweep_all(&ws, &single_depth);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("runner.sweep_kernel.groups"), ws.len() as u64);
        assert_eq!(snap.counter("runner.sweep_kernel.cells"), ws.len() as u64);
        assert_eq!(snap.counter("trace.annotate.misses"), ws.len() as u64);
    }

    #[test]
    fn kernel_groups_custom_machines_separately() {
        // Width-2 cells group with each other but never with the paper
        // machine: grouping compares the full depth-neutralised config.
        let w = &representatives()[0];
        let cfg = tiny();
        let wide_machine = |depth| SimConfig {
            width: 2,
            ..SimConfig::paper(depth)
        };
        let mut cells = cells_of(w, &cfg);
        cells.extend(depth_cells(w, &cfg, &wide_machine));
        let telemetry = Telemetry::new();
        let runner = Runner::serial().with_telemetry(telemetry.clone());
        let mixed = runner.run_cells(&cells);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("runner.sweep_kernel.groups"), 2);
        assert_eq!(
            snap.counter("runner.sweep_kernel.cells"),
            cells.len() as u64
        );
        // Width does not feed the annotation, so both groups share one.
        assert_eq!(snap.counter("trace.annotate.misses"), 1);
        assert_eq!(snap.counter("trace.annotate.hits"), 1);
        // Sharing a batch changes no report.
        let apart = Runner::serial();
        let paper = apart.run_cells(&cells[..cfg.depths.len()]);
        let wide = apart.run_cells(&cells[cfg.depths.len()..]);
        for (a, b) in mixed.iter().zip(paper.iter().chain(&wide)) {
            assert_eq!(**a, **b);
        }
    }

    #[test]
    fn custom_machines_do_not_collide_with_paper_cells() {
        let runner = Runner::serial();
        let w = &representatives()[0];
        let cfg = tiny();
        let paper = runner.sweep_workload(w, &cfg);
        let wide = runner.sweep_workload_with(w, &cfg, |depth| SimConfig {
            width: 2,
            ..SimConfig::paper(depth)
        });
        assert_ne!(paper.points, wide.points);
        let stats = runner.cache_stats().expect("always Some");
        assert_eq!(stats.misses, 2 * cfg.depths.len() as u64);
    }
}
