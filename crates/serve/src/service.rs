//! The evaluation service: backends, caching, deadlines, dispatch.
//!
//! [`EvalService`] is the HTTP-free core of `pipedepth-serve`. It owns
//!
//! * a **simulation backend** — a [`SimBackend`](pipedepth_experiments::eval::SimBackend) over an owned
//!   [`Runner`](pipedepth_experiments::runner::Runner) (worker pool, annotation store, report cache), reached through
//!   the [`BatchQueue`](crate::batch::BatchQueue) so concurrent requests coalesce and batch, and each
//!   batch's depth mates share one annotate + replay pass. The runner's
//!   report cache is the service's only cache of simulation results: a
//!   cell whose report it holds is answered by deriving the outcome from
//!   that report, under the cell's own power calibration, with no
//!   dispatch;
//! * an **analytic backend** — the closed-form [`AnalyticModel`](pipedepth_core::eval::AnalyticModel), answered
//!   inline (microseconds, no queue, nothing cached);
//! * an **outcome memo** — an in-memory [`ShardedCache`](pipedepth_core::eval::ShardedCache) of the outcomes
//!   derived from the runner's reports, keyed by
//!   [`CellSpec::key`](pipedepth_core::eval::CellSpec::key), so a repeated cell costs one probe instead of
//!   a fresh derivation. It is never persisted and holds nothing the
//!   runner's cache could not rebuild;
//! * a **persistent store** (`--store`) — the experiments
//!   [`RunStore`](pipedepth_experiments::store::RunStore) that `repro --store` writes: it warm-starts the
//!   runner's cache and receives its snapshots, so a directory either
//!   program warmed answers the other's cells from disk;
//! * **deadline handling** — a per-request budget; `auto` requests degrade
//!   to the analytic model when the budget rules simulation out (either up
//!   front, via a running instructions-per-microsecond estimate, or after
//!   a timed-out wait), while `sim` requests fail with
//!   `deadline_exceeded`.
//!
//! The server layer (`server.rs`) wraps this in HTTP and owns the worker
//! threads that loop on [`EvalService::dispatch_loop`].

use crate::batch::{BatchQueue, Shed};
use crate::wire::v1::{
    CellResult, EvaluateRequest, EvaluateResponse, OptimumResponse, WireBackend,
};
use pipedepth_core::eval::{AnalyticModel, CellSpec, EvalOutcome, Evaluator, ShardedCache};
use pipedepth_core::EvalError;
use pipedepth_experiments::eval::{cell_for, fitted_profile, SimBackend};
use pipedepth_experiments::runner::Runner;
use pipedepth_experiments::store::RunStore;
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_telemetry::{Stopwatch, Telemetry, DEFAULT_TIME_BUCKETS_US};
use pipedepth_workloads::{suite, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Depth range `GET /v1/optimum` searches (the machine model's full valid
/// range).
pub const OPTIMUM_DEPTHS: std::ops::RangeInclusive<u32> = 2..=64;

/// Bucket bounds for the `serve.batch_size` histogram.
const BATCH_SIZE_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// How the service is sized and defaulted. The `pipedepth-serve` binary
/// fills this from its flags.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation worker threads inside the runner's pool.
    pub threads: usize,
    /// Dispatch workers draining the batch queue. One is usually right:
    /// it maximises batching, and parallelism comes from the runner pool.
    pub workers: usize,
    /// Most cells the queue admits before shedding (429).
    pub queue_cap: usize,
    /// Most cells one dispatch sends to the backend at once.
    pub batch_max: usize,
    /// Default per-request deadline in milliseconds; 0 means none.
    pub deadline_ms: u64,
    /// When set, pins every request to this backend regardless of what
    /// the request asked for (the `--backend` flag).
    pub backend: Option<WireBackend>,
    /// When set, the directory of the persistent store (the one `repro
    /// --store` uses): the runner's report cache warm-starts from its
    /// snapshot and the service snapshots back into it (periodically and
    /// at drain).
    pub store: Option<std::path::PathBuf>,
    /// Template run configuration: sizing and power calibration for cells
    /// that do not override them.
    pub run: RunConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 2,
            workers: 1,
            queue_cap: 1024,
            batch_max: 32,
            deadline_ms: 0,
            backend: None,
            store: None,
            run: RunConfig::quick(),
        }
    }
}

/// How many dispatched cells accumulate between periodic store
/// snapshots. Deterministic (a count, not a timer) so tests can force a
/// snapshot by dispatching exactly this many cells.
pub const STORE_FLUSH_EVERY: u64 = 64;

/// The evaluation service. See the module docs for the architecture.
pub struct EvalService {
    sim: SimBackend,
    model: AnalyticModel,
    /// Outcomes derived from the runner's reports, keyed by the full
    /// evaluation cell (profile and power calibration included). Only
    /// simulation answers enter it, so a degraded analytic answer can
    /// never shadow one.
    memo: ShardedCache<CellSpec, EvalOutcome>,
    queue: BatchQueue,
    telemetry: Telemetry,
    by_name: BTreeMap<String, Workload>,
    run: RunConfig,
    default_deadline_ms: u64,
    backend_override: Option<WireBackend>,
    /// Observed simulation throughput in instructions per microsecond,
    /// stored as `f64` bits; 0 until the first dispatch completes.
    rate_bits: AtomicU64,
    /// The persistent store (`--store`). All its methods after loading
    /// take `&self`, so the `Arc`'d service snapshots and syncs without
    /// extra locking.
    store: Option<RunStore>,
    /// Cells dispatched since the last periodic store snapshot.
    store_pending: AtomicU64,
}

impl std::fmt::Debug for EvalService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalService")
            .field("workloads", &self.by_name.len())
            .field("memo", &self.memo.len())
            .field("queue_depth", &self.queue.depth())
            .finish()
    }
}

impl EvalService {
    /// Builds the service: runner pool, backends, caches and queue. The
    /// telemetry handle is shared with the runner, so `/metrics` exposes
    /// `runner.*` and `sim.*` alongside `serve.*`.
    pub fn new(config: ServiceConfig, telemetry: Telemetry) -> Self {
        let mut runner = Runner::new(config.threads.max(1)).with_telemetry(telemetry.clone());
        // The store's reports become the warm tier of the runner's cache,
        // keyed by the template run configuration's digest — the digest
        // `repro` uses for the same configuration.
        let mut store = None;
        if let Some(dir) = config.store.as_deref() {
            let mut s = RunStore::open(dir, &config.run, &telemetry);
            runner = runner.with_warm_reports(s.load_reports());
            store = Some(s);
        }
        let workloads = suite();
        EvalService {
            sim: SimBackend::new(Arc::new(runner)),
            model: AnalyticModel::paper(),
            memo: ShardedCache::new(),
            queue: BatchQueue::new(config.queue_cap, config.batch_max),
            telemetry,
            by_name: workloads
                .iter()
                .map(|w| (w.name.clone(), w.clone()))
                .collect(),
            run: config.run,
            default_deadline_ms: config.deadline_ms,
            backend_override: config.backend,
            rate_bits: AtomicU64::new(0),
            store,
            store_pending: AtomicU64::new(0),
        }
    }

    /// The service's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Answers one decoded request.
    ///
    /// # Errors
    ///
    /// [`Shed`] when admission control refuses the request's simulation
    /// cells — the HTTP layer turns that into a 429 with `Retry-After`
    /// (or a 503 while shutting down).
    pub fn evaluate(&self, request: &EvaluateRequest) -> Result<EvaluateResponse, Shed> {
        let started = Stopwatch::start();
        self.telemetry.counter("serve.requests").inc();
        self.telemetry
            .counter("serve.cells_requested")
            .add(request.cells.len() as u64);
        let backend = self.backend_override.unwrap_or(request.backend);
        let deadline_ms = match request.deadline_ms {
            Some(d) => Some(d),
            None if self.default_deadline_ms == 0 => None,
            None => Some(self.default_deadline_ms),
        };
        let cells: Vec<Result<CellSpec, EvalError>> =
            request.cells.iter().map(|c| self.resolve(c)).collect();
        let results = match backend {
            WireBackend::Model => cells
                .iter()
                .map(|cell| match cell {
                    Ok(spec) => self.model_result(spec, false),
                    Err(e) => error_result(e.clone(), "model"),
                })
                .collect(),
            WireBackend::Sim => self.answer_queued(&cells, deadline_ms, started, false)?,
            WireBackend::Auto => self.answer_queued(&cells, deadline_ms, started, true)?,
        };
        self.telemetry
            .histogram("serve.request_us", &DEFAULT_TIME_BUCKETS_US)
            .record(started.elapsed_us());
        Ok(EvaluateResponse { results })
    }

    /// Resolves a wire cell against the service's defaults: the
    /// workload's fitted analytic profile plus the run configuration's
    /// sizing and power calibration, unless the cell overrides them.
    /// Unknown workloads are accepted only with an explicit profile (the
    /// analytic model can evaluate any profile; the simulation backend
    /// will still reject them as values).
    fn resolve(&self, cell: &crate::wire::v1::WireCell) -> Result<CellSpec, EvalError> {
        let template = match self.by_name.get(&cell.workload) {
            Some(w) => cell_for(w, fitted_profile(w), cell.depth, &self.run),
            None => match cell.profile {
                Some(profile) => {
                    let mut t = CellSpec::new(cell.workload.clone(), profile, cell.depth);
                    t.warmup = self.run.warmup;
                    t.instructions = self.run.instructions;
                    t.leakage_fraction = self.run.leakage_fraction;
                    t.ref_depth = self.run.ref_depth as f64;
                    t
                }
                None => {
                    return Err(EvalError::invalid(format!(
                        "unknown workload \"{}\" (and no explicit profile given)",
                        cell.workload
                    )))
                }
            },
        };
        let spec = cell.resolve(&template);
        spec.validate()?;
        Ok(spec)
    }

    /// Answers a request through the analytic model, inline. Nothing is
    /// cached: a closed-form evaluation costs less than a cache probe.
    fn model_result(&self, spec: &CellSpec, degraded: bool) -> CellResult {
        if degraded {
            self.telemetry.counter("serve.degraded").inc();
        }
        CellResult {
            outcome: self.model.evaluate(spec),
            backend: "model",
            degraded,
        }
    }

    /// The simulation outcome of `spec` if it needs no dispatch: from the
    /// memo, or else derived from a report the runner's cache holds (a
    /// warm-tier report counts as a warm hit and is promoted) and
    /// memoised. `Err` for a cell no simulation can run, so it is answered
    /// without taking a dispatch.
    fn cached(&self, spec: &CellSpec) -> Result<Option<EvalOutcome>, EvalError> {
        let key = spec.key();
        if let Some(hit) = self.memo.get(key, spec) {
            return Ok(Some(*hit));
        }
        let Some(outcome) = self.sim.cached(spec)? else {
            return Ok(None);
        };
        self.memo.insert(key, spec.clone(), Arc::new(outcome));
        Ok(Some(outcome))
    }

    /// The sim/auto path: invalid and cached answers, then the coalescing
    /// queue, then a deadline-bounded wait. `auto` degrades to the model
    /// instead of failing when the deadline rules simulation out; a cell no
    /// simulation can run is answered `invalid_cell` under either backend.
    fn answer_queued(
        &self,
        cells: &[Result<CellSpec, EvalError>],
        deadline_ms: Option<u64>,
        started: Stopwatch,
        auto: bool,
    ) -> Result<Vec<CellResult>, Shed> {
        let mut results: Vec<Option<CellResult>> = vec![None; cells.len()];
        let mut submit_idx: Vec<usize> = Vec::new();
        let mut submit_specs: Vec<CellSpec> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            match cell {
                Err(e) => results[i] = Some(error_result(e.clone(), "sim")),
                Ok(spec) => match self.cached(spec) {
                    Err(e) => results[i] = Some(error_result(e, "sim")),
                    Ok(Some(hit)) => {
                        self.telemetry.counter("serve.cache_hits").inc();
                        results[i] = Some(CellResult {
                            outcome: Ok(hit),
                            backend: "sim",
                            degraded: false,
                        });
                    }
                    Ok(None) => {
                        submit_idx.push(i);
                        submit_specs.push(spec.clone());
                    }
                },
            }
        }
        if submit_specs.is_empty() {
            return Ok(finish_results(results));
        }
        // Pre-dispatch degradation: when the budget cannot possibly cover
        // the simulation (by the observed throughput estimate), an `auto`
        // request skips the queue entirely.
        if auto {
            if let Some(d) = deadline_ms {
                let budget_us = (d as f64) * 1_000.0 - started.elapsed_us();
                if self.estimated_us(&submit_specs) > budget_us {
                    for (&i, spec) in submit_idx.iter().zip(&submit_specs) {
                        results[i] = Some(self.model_result(spec, true));
                    }
                    return Ok(finish_results(results));
                }
            }
        }
        // The probe re-checks the caches under the queue lock, so a
        // dispatch completing between the pre-check above and admission
        // still answers from cache instead of re-enqueuing its cells.
        let admitted = self
            .queue
            .submit_with(&submit_specs, |spec| self.cached(spec).ok().flatten())
            .inspect_err(|_| {
                self.telemetry.counter("serve.shed").inc();
            })?;
        if admitted.cached > 0 {
            self.telemetry
                .counter("serve.cache_hits")
                .add(admitted.cached);
        }
        self.telemetry
            .counter("serve.coalesced")
            .add(admitted.coalesced);
        self.telemetry
            .counter("serve.enqueued")
            .add(admitted.enqueued);
        self.telemetry
            .gauge("serve.queue_depth")
            .set(self.queue.depth() as f64);
        for ((&i, spec), slot) in submit_idx.iter().zip(&submit_specs).zip(&admitted.slots) {
            let waited = match deadline_ms {
                None => Some(slot.wait()),
                Some(d) => {
                    let remaining_us = (d as f64) * 1_000.0 - started.elapsed_us();
                    // An already-exhausted budget times out deterministically
                    // — even a racing just-finished dispatch is not consulted,
                    // so `deadline_ms: 0` always answers the same way.
                    if remaining_us <= 0.0 {
                        None
                    } else {
                        slot.wait_for(Duration::from_micros(remaining_us as u64))
                    }
                }
            };
            results[i] = Some(match waited {
                // The runner cached the report, and the dispatch worker
                // memoised the outcome, before the slot was filled.
                Some(Ok(out)) => CellResult {
                    outcome: Ok(out),
                    backend: "sim",
                    degraded: false,
                },
                Some(Err(e)) => error_result(e, "sim"),
                // Timed out. The dispatch keeps running and will warm the
                // cache; this request degrades (auto) or fails (sim).
                None if auto => self.model_result(spec, true),
                None => error_result(
                    EvalError::DeadlineExceeded {
                        budget_ms: deadline_ms.unwrap_or(0),
                    },
                    "sim",
                ),
            });
        }
        Ok(finish_results(results))
    }

    /// Computes the optimum depth for a workload under `BIPS^m/W` with
    /// the analytic model across [`OPTIMUM_DEPTHS`].
    ///
    /// # Errors
    ///
    /// `invalid_cell` for unknown workloads or `m` outside `1..=3`, and
    /// `backend_error` if no depth evaluates (cannot happen for fitted
    /// profiles).
    pub fn optimum(&self, workload: &str, m: u32) -> Result<OptimumResponse, EvalError> {
        if !(1..=3).contains(&m) {
            return Err(EvalError::invalid(format!("m must be 1, 2 or 3 (got {m})")));
        }
        let w = self
            .by_name
            .get(workload)
            .ok_or_else(|| EvalError::invalid(format!("unknown workload \"{workload}\"")))?;
        let profile = fitted_profile(w);
        let cells: Vec<CellSpec> = OPTIMUM_DEPTHS
            .map(|depth| cell_for(w, profile, depth, &self.run))
            .collect();
        let mut best: Option<(u32, f64, f64)> = None;
        let mut best_perf: Option<(u32, f64)> = None;
        for result in self.model.evaluate_batch(&cells) {
            let out = result?;
            let metric = out.metric_gated[(m - 1) as usize];
            if best.is_none_or(|(_, m0, _)| metric > m0) {
                best = Some((out.depth, metric, out.throughput));
            }
            if best_perf.is_none_or(|(_, t0)| out.throughput > t0) {
                best_perf = Some((out.depth, out.throughput));
            }
        }
        let ((optimum_depth, metric, throughput), (perf_only_depth, _)) =
            best.zip(best_perf).ok_or_else(|| EvalError::Backend {
                backend: "model".to_string(),
                message: "no depth evaluated".to_string(),
            })?;
        Ok(OptimumResponse {
            workload: workload.to_string(),
            m,
            optimum_depth,
            metric,
            throughput,
            perf_only_depth,
        })
    }

    /// The dispatch-worker body: drains batches from the queue into
    /// single [`Evaluator::evaluate_batch`] calls until the queue closes
    /// and empties. The runner behind the simulation backend groups each
    /// batch's depth mates into one annotate + replay pass, so a coalesced
    /// sweep costs one annotation. The server runs this on `workers`
    /// threads.
    pub fn dispatch_loop(&self) {
        while let Some(batch) = self.queue.next_batch() {
            let watch = Stopwatch::start();
            self.telemetry.counter("serve.dispatches").inc();
            self.telemetry
                .counter("serve.dispatch_cells")
                .add(batch.len() as u64);
            self.telemetry
                .histogram("serve.batch_size", &BATCH_SIZE_BOUNDS)
                .record(batch.len() as f64);
            let specs: Vec<CellSpec> = batch.iter().map(|c| c.spec.clone()).collect();
            // The runner caches every report it produces before
            // `evaluate_batch` returns, so `submit_with`'s probe, run under
            // the queue lock, sees these cells before `finish` retires them
            // from the coalescing index. Memoising the outcomes here only
            // saves their first hit a derivation.
            let results = self.sim.evaluate_batch(&specs);
            for (spec, result) in specs.iter().zip(&results) {
                if let Ok(out) = result {
                    self.memo.insert(spec.key(), spec.clone(), Arc::new(*out));
                }
            }
            if let Some(store) = &self.store {
                // Deterministic periodic snapshotting: every
                // `STORE_FLUSH_EVERY` dispatched cells, publish the runner's
                // reports write-behind if it simulated any since the last
                // publish. Racing dispatchers may both cross the threshold;
                // the gate publishes at most once per simulated count, and
                // the drain-time snapshot catches whatever is left.
                let n = specs.len() as u64;
                if self.store_pending.fetch_add(n, Ordering::Relaxed) + n >= STORE_FLUSH_EVERY {
                    self.store_pending.store(0, Ordering::Relaxed);
                    store.flush_reports_if_simulated(self.sim.runner());
                }
            }
            let work: f64 = specs
                .iter()
                .map(|c| (c.warmup + c.instructions) as f64)
                .sum();
            self.observe_rate(work, watch.elapsed_us());
            self.queue.finish(batch, results);
            self.telemetry
                .gauge("serve.queue_depth")
                .set(self.queue.depth() as f64);
        }
    }

    /// Stops admitting work; dispatch workers drain and exit.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Drain-time store finalisation: one last snapshot of every report
    /// the runner can answer (each one loaded at startup plus each one
    /// simulated since), the lifetime warm-tier probe counters, and a sync
    /// that blocks until the backlog is durably published. The server
    /// calls this after the dispatch workers have joined and before the
    /// stats line, so a drained process is always restartable from its
    /// final state and the line reports true flush counts. The snapshot
    /// goes through the same simulated-cell gate as the periodic ones, so
    /// a fully warm session re-encodes nothing and leaves the snapshot on
    /// disk untouched. A no-op without `--store`.
    pub fn finish_store(&self) {
        let Some(store) = &self.store else {
            return;
        };
        let runner = self.sim.runner();
        store.flush_reports_if_simulated(runner);
        store.record_warm(runner.warm_report_stats());
        store.sync();
    }

    /// Current instructions-per-microsecond estimate (0 before the first
    /// dispatch).
    fn rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }

    /// Folds a finished dispatch into the throughput estimate (EMA, 30%
    /// weight on the new sample).
    fn observe_rate(&self, instructions: f64, elapsed_us: f64) {
        if instructions <= 0.0 || elapsed_us <= 0.0 {
            return;
        }
        let sample = instructions / elapsed_us;
        let old = self.rate();
        let next = if old > 0.0 {
            0.7 * old + 0.3 * sample
        } else {
            sample
        };
        self.rate_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    /// Estimated microseconds to simulate `cells`, from the observed
    /// rate; at least 1µs per cell, so a zero budget always degrades.
    fn estimated_us(&self, cells: &[CellSpec]) -> f64 {
        let rate = self.rate();
        cells
            .iter()
            .map(|c| {
                let work = (c.warmup + c.instructions) as f64;
                if rate > 0.0 {
                    (work / rate).max(1.0)
                } else {
                    // No observation yet: assume 1 instruction/µs.
                    work.max(1.0)
                }
            })
            .sum()
    }

    /// One line summarising the service's lifetime counters, printed at
    /// shutdown.
    pub fn stats_line(&self) -> String {
        let snap = self.telemetry.snapshot();
        let mut line = format!(
            "serve: {} requests, {} cells ({} cache hits, {} coalesced, {} degraded, {} shed) \
             over {} dispatches",
            snap.counter("serve.requests"),
            snap.counter("serve.cells_requested"),
            snap.counter("serve.cache_hits"),
            snap.counter("serve.coalesced"),
            snap.counter("serve.degraded"),
            snap.counter("serve.shed"),
            snap.counter("serve.dispatches"),
        );
        if let Some(store) = &self.store {
            line.push_str(&format!(
                "; store: {} report(s) loaded, {} warm hit(s), {} snapshot(s) published",
                store.reports_loaded(),
                snap.counter("store.hits"),
                store.flushes(),
            ));
        }
        line
    }
}

/// A cell answered by an error value.
fn error_result(e: EvalError, backend: &'static str) -> CellResult {
    CellResult {
        outcome: Err(e),
        backend,
        degraded: false,
    }
}

/// Unwraps the per-index result slots; an unfilled slot (unreachable)
/// fails soft as a backend error rather than panicking.
fn finish_results(results: Vec<Option<CellResult>>) -> Vec<CellResult> {
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                error_result(
                    EvalError::Backend {
                        backend: "serve".to_string(),
                        message: "internal: cell left unanswered".to_string(),
                    },
                    "sim",
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::v1::WireCell;
    use std::thread;

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            threads: 1,
            run: RunConfig {
                warmup: 1_000,
                instructions: 2_000,
                ..RunConfig::quick()
            },
            ..ServiceConfig::default()
        }
    }

    fn service(config: ServiceConfig) -> Arc<EvalService> {
        Arc::new(EvalService::new(config, Telemetry::new()))
    }

    fn request(
        backend: WireBackend,
        deadline_ms: Option<u64>,
        cells: Vec<WireCell>,
    ) -> EvaluateRequest {
        EvaluateRequest {
            backend,
            deadline_ms,
            cells,
        }
    }

    /// Runs a closure with dispatch workers alive, closing the queue (and
    /// joining the workers) afterwards.
    fn with_workers<T>(svc: &Arc<EvalService>, f: impl FnOnce() -> T) -> T {
        let worker = {
            let svc = Arc::clone(svc);
            thread::spawn(move || svc.dispatch_loop())
        };
        let out = f();
        svc.close();
        worker.join().expect("worker exits cleanly");
        out
    }

    /// A cell outside the suite that carries its own analytic profile.
    fn custom(depth: u32) -> WireCell {
        WireCell {
            profile: Some(pipedepth_core::eval::WorkloadProfile {
                alpha: 2.0,
                gamma: 0.4,
                hazard_rate: 0.15,
                kappa: 0.22,
                memory_time_fo4: 12.0,
            }),
            ..WireCell::new("custom", depth)
        }
    }

    /// A `modern-00`@8 cell with an explicit measurement window.
    fn window(warmup: u64, instructions: u64) -> WireCell {
        WireCell {
            warmup: Some(warmup),
            instructions: Some(instructions),
            ..WireCell::new("modern-00", 8)
        }
    }

    #[test]
    fn model_requests_answer_inline() {
        let svc = service(quick_config());
        let req = request(
            WireBackend::Model,
            None,
            vec![
                WireCell::new("specint-00", 10),
                WireCell::new("specint-00", 10),
            ],
        );
        let resp = svc.evaluate(&req).expect("model path never sheds");
        assert_eq!(resp.results.len(), 2);
        for r in &resp.results {
            assert_eq!(r.backend, "model");
            assert!(!r.degraded);
            assert!(r.outcome.as_ref().expect("valid cell").throughput > 0.0);
        }
        assert_eq!(resp.results[0].outcome, resp.results[1].outcome);
        let snap = svc.telemetry().snapshot();
        assert_eq!(snap.counter("serve.dispatches"), 0, "no sim dispatch");
    }

    #[test]
    fn sim_requests_coalesce_and_match_the_backend() {
        let svc = service(quick_config());
        let cells = vec![
            WireCell::new("legacy-00", 8),
            WireCell::new("legacy-00", 8),
            WireCell::new("legacy-00", 12),
        ];
        let resp = with_workers(&svc, || {
            svc.evaluate(&request(WireBackend::Sim, None, cells))
                .expect("admitted")
        });
        assert_eq!(resp.results[0].outcome, resp.results[1].outcome);
        assert_eq!(resp.results[0].backend, "sim");
        let snap = svc.telemetry().snapshot();
        assert_eq!(snap.counter("serve.cells_requested"), 3);
        assert!(
            snap.counter("serve.dispatch_cells") <= 2,
            "duplicates never reach the backend"
        );
        // A repeat of the whole request is pure cache.
        let again = svc
            .evaluate(&request(
                WireBackend::Sim,
                None,
                vec![
                    WireCell::new("legacy-00", 8),
                    WireCell::new("legacy-00", 12),
                ],
            ))
            .expect("cache path never queues");
        assert_eq!(again.results[0].outcome, resp.results[0].outcome);
        let snap = svc.telemetry().snapshot();
        assert!(snap.counter("serve.cache_hits") >= 2);
        // A new power calibration prices the cached report: no dispatch,
        // and the same answer a fresh service simulates.
        let dispatches = snap.counter("serve.dispatches");
        let leaky = WireCell {
            leakage_fraction: Some(0.5),
            ..WireCell::new("legacy-00", 8)
        };
        let repriced = svc
            .evaluate(&request(WireBackend::Sim, None, vec![leaky.clone()]))
            .expect("cache path never queues");
        let snap = svc.telemetry().snapshot();
        assert_eq!(snap.counter("serve.dispatches"), dispatches);
        let fresh = service(quick_config());
        let simulated = with_workers(&fresh, || {
            fresh
                .evaluate(&request(WireBackend::Sim, None, vec![leaky]))
                .expect("admitted")
        });
        assert_eq!(repriced.results[0].outcome, simulated.results[0].outcome);
        assert_ne!(repriced.results[0].outcome, resp.results[0].outcome);
    }

    #[test]
    fn depth_sweeps_route_through_the_sweep_kernel_seam() {
        let svc = service(quick_config());
        let cells = vec![
            WireCell::new("modern-01", 6),
            WireCell::new("modern-01", 10),
            WireCell::new("modern-01", 14),
            WireCell::new("legacy-02", 9), // a loner: no sweep mates
        ];
        let resp = with_workers(&svc, || {
            svc.evaluate(&request(WireBackend::Sim, None, cells))
                .expect("admitted")
        });
        for r in &resp.results {
            assert_eq!(r.backend, "sim");
            assert!(r.outcome.is_ok());
        }
        // One dispatch; the runner groups the three depth mates into one
        // replay pass and runs the loner as a one-lane group.
        let snap = svc.telemetry().snapshot();
        assert_eq!(snap.counter("serve.dispatches"), 1);
        assert_eq!(snap.counter("runner.sweep_kernel.groups"), 2);
        assert_eq!(snap.counter("runner.sweep_kernel.cells"), 4);
        // Grouping changes routing, not results: a fresh service answers
        // one of the depths alone, as a one-lane group, identically.
        let reference = service(quick_config());
        let again = with_workers(&reference, || {
            reference
                .evaluate(&request(
                    WireBackend::Sim,
                    None,
                    vec![WireCell::new("modern-01", 10)],
                ))
                .expect("admitted")
        });
        assert_eq!(again.results[0].outcome, resp.results[1].outcome);
    }

    #[test]
    fn zero_deadline_degrades_auto_to_the_model() {
        let svc = service(quick_config());
        let resp = svc
            .evaluate(&request(
                WireBackend::Auto,
                Some(0),
                vec![WireCell::new("fp-00", 9), window(0, 0), custom(8)],
            ))
            .expect("degraded requests do not queue");
        let r = &resp.results[0];
        assert_eq!(r.backend, "model");
        assert!(r.degraded, "zero budget rules simulation out");
        assert!(r.outcome.is_ok());
        // A cell no simulation can run is refused, not degraded.
        for r in &resp.results[1..] {
            let err = r.outcome.as_ref().expect_err("invalid cell");
            assert_eq!(err.code(), "invalid_cell");
            assert_eq!((r.backend, r.degraded), ("sim", false));
        }
        assert_eq!(svc.telemetry().snapshot().counter("serve.degraded"), 1);
        // The same cell with `sim` misses its deadline instead.
        let resp = svc
            .evaluate(&request(
                WireBackend::Sim,
                Some(0),
                vec![WireCell::new("fp-00", 9)],
            ))
            .expect("admitted");
        let err = resp.results[0].outcome.as_ref().expect_err("deadline");
        assert_eq!(err.code(), "deadline_exceeded");
        // Drain the queued cell so the test leaves nothing running.
        with_workers(&svc, || {});
    }

    #[test]
    fn invalid_cells_fail_as_values_next_to_valid_ones() {
        let svc = service(quick_config());
        let (resp, after) = with_workers(&svc, || {
            let resp = svc
                .evaluate(&request(
                    WireBackend::Sim,
                    None,
                    vec![
                        WireCell::new("no-such-workload", 8),
                        WireCell::new("modern-00", 8),
                        // Nothing to measure, a window that wraps, and one
                        // too long to allocate.
                        window(0, 0),
                        window(u64::MAX, 5),
                        window(0, 10_000_000_000_000),
                        // Model-evaluable, but no workload to simulate.
                        custom(8),
                    ],
                ))
                .expect("admitted");
            // The dispatch worker is still alive to answer the next request.
            let after = svc
                .evaluate(&request(
                    WireBackend::Sim,
                    None,
                    vec![WireCell::new("modern-00", 9)],
                ))
                .expect("admitted");
            (resp, after)
        });
        for i in [0, 2, 3, 4, 5] {
            let err = resp.results[i].outcome.as_ref().expect_err("invalid cell");
            assert_eq!(err.code(), "invalid_cell", "cell {i}");
        }
        assert!(resp.results[1].outcome.is_ok(), "neighbour unaffected");
        assert!(after.results[0].outcome.is_ok(), "worker still serving");
        // Invalid cells are answered before admission: only the two valid
        // cells took a dispatch.
        let snap = svc.telemetry().snapshot();
        assert_eq!(snap.counter("serve.dispatch_cells"), 2);
        assert_eq!(snap.counter("serve.enqueued"), 2);
    }

    #[test]
    fn unknown_workload_with_explicit_profile_is_model_evaluable() {
        let svc = service(quick_config());
        let resp = svc
            .evaluate(&request(WireBackend::Model, None, vec![custom(11)]))
            .expect("model path");
        assert!(resp.results[0].outcome.is_ok());
    }

    #[test]
    fn shed_when_the_queue_is_full() {
        let svc = service(ServiceConfig {
            queue_cap: 0,
            ..quick_config()
        });
        let shed = svc
            .evaluate(&request(
                WireBackend::Sim,
                None,
                vec![WireCell::new("legacy-01", 8)],
            ))
            .expect_err("zero-capacity queue sheds everything");
        assert!(matches!(shed, Shed::Overloaded { retry_after_s: 1 }));
        assert_eq!(svc.telemetry().snapshot().counter("serve.shed"), 1);
    }

    #[test]
    fn backend_override_pins_requests() {
        let svc = service(ServiceConfig {
            backend: Some(WireBackend::Model),
            ..quick_config()
        });
        let resp = svc
            .evaluate(&request(
                WireBackend::Sim,
                None,
                vec![WireCell::new("specint-01", 10)],
            ))
            .expect("model path");
        assert_eq!(resp.results[0].backend, "model", "--backend wins");
    }

    #[test]
    fn optimum_matches_a_manual_argmax() {
        let svc = service(quick_config());
        let opt = svc.optimum("specint-00", 3).expect("known workload");
        assert_eq!(opt.m, 3);
        assert!(OPTIMUM_DEPTHS.contains(&opt.optimum_depth));
        assert!(
            opt.perf_only_depth > opt.optimum_depth,
            "power-aware optimum is shallower than the raw-performance one"
        );
        // Cross-check against a direct model sweep.
        let w = suite()
            .into_iter()
            .find(|w| w.name == "specint-00")
            .expect("suite workload");
        let profile = fitted_profile(&w);
        let model = AnalyticModel::paper();
        let best = OPTIMUM_DEPTHS
            .map(|d| {
                let out = model
                    .evaluate(&cell_for(&w, profile, d, &quick_config().run))
                    .expect("valid");
                (out.metric_gated[2], d)
            })
            .fold((f64::MIN, 0), |acc, x| if x.0 > acc.0 { x } else { acc });
        assert_eq!(opt.optimum_depth, best.1);
        assert!(svc.optimum("nope", 3).is_err());
        assert!(svc.optimum("specint-00", 9).is_err());
    }

    #[test]
    fn stats_line_reflects_counters() {
        let svc = service(quick_config());
        let _ = svc.evaluate(&request(
            WireBackend::Model,
            None,
            vec![WireCell::new("fp-01", 7)],
        ));
        let line = svc.stats_line();
        assert!(line.contains("1 requests"), "{line}");
        assert!(line.contains("1 cells"), "{line}");
    }

    /// A fresh scratch directory per test (std-only; no tempdir crate).
    fn scratch(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "pipedepth-serve-svc-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn store_restart_answers_from_disk_without_dispatch() {
        let dir = scratch("warm");
        let mut config = quick_config();
        config.store = Some(dir.clone());
        let cells = vec![
            WireCell::new("legacy-00", 8),
            WireCell::new("legacy-00", 12),
            WireCell::new("specint-00", 10),
        ];

        // First server: simulate, then drain (final snapshot + sync).
        let svc = service(config.clone());
        let first = with_workers(&svc, || {
            svc.evaluate(&request(WireBackend::Sim, None, cells.clone()))
                .expect("admitted")
        });
        svc.finish_store();
        assert!(
            svc.stats_line().contains("snapshot(s) published"),
            "stats line reports the store"
        );

        // Restarted server: every cell answers from the warm tier, with
        // no dispatch worker running at all.
        let warm = service(config.clone());
        let resp = warm
            .evaluate(&request(WireBackend::Sim, None, cells))
            .expect("pure warm-cache answers need no queue");
        for (a, b) in resp.results.iter().zip(&first.results) {
            assert_eq!(a.outcome, b.outcome, "warm answers are bit-identical");
            assert_eq!(a.backend, "sim");
        }
        let snap = warm.telemetry().snapshot();
        assert_eq!(snap.counter("serve.dispatches"), 0, "nothing re-simulated");
        assert_eq!(snap.counter("store.reports_loaded"), 3);
        assert_eq!(snap.counter("serve.cache_hits"), 3);
        warm.finish_store();
        let snap = warm.telemetry().snapshot();
        assert_eq!(
            snap.counter("store.hits"),
            3,
            "all three from the warm tier"
        );
        assert_eq!(snap.counter("store.invalid"), 0);

        // A restart that answers one new cell republishes: its snapshot
        // keeps the three loaded reports it never requested.
        let grown = service(config.clone());
        with_workers(&grown, || {
            grown
                .evaluate(&request(
                    WireBackend::Sim,
                    None,
                    vec![WireCell::new("fp-01", 9)],
                ))
                .expect("admitted")
        });
        grown.finish_store();
        let snap = grown.telemetry().snapshot();
        assert_eq!(snap.counter("serve.dispatches"), 1);
        assert_eq!(snap.counter("store.records_flushed"), 4);
        let fourth = service(config);
        assert_eq!(
            fourth
                .telemetry()
                .snapshot()
                .counter("store.reports_loaded"),
            4,
            "every report ever simulated survives the restarts"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repro_warmed_store_answers_figure_cells_without_dispatch() {
        // A store written the way `repro --store` writes it: the runner
        // sweeps a figure's cells, then publishes through the same gate.
        let dir = scratch("repro");
        let mut config = quick_config();
        config.store = Some(dir.clone());
        let workload = suite()
            .into_iter()
            .find(|w| w.name == "specint-00")
            .expect("suite workload");
        let depths = vec![6, 10, 14];
        let sweep = RunConfig {
            depths: depths.clone(),
            ..config.run.clone()
        };
        let runner = Runner::serial();
        runner.sweep_workload(&workload, &sweep);
        let store = RunStore::open(&dir, &config.run, &Telemetry::disabled());
        store.flush_reports_if_simulated(&runner);
        assert_eq!(store.finish().records_flushed, 3);

        let cells: Vec<WireCell> = depths
            .iter()
            .map(|&d| WireCell::new("specint-00", d))
            .collect();
        let cold = service(quick_config());
        let reference = with_workers(&cold, || {
            cold.evaluate(&request(WireBackend::Sim, None, cells.clone()))
                .expect("admitted")
        });
        // No dispatch worker and a zero budget: a cell that is not cached
        // fails `deadline_exceeded` instead of being simulated.
        let warm = service(config);
        let resp = warm
            .evaluate(&request(WireBackend::Sim, Some(0), cells))
            .expect("admitted");
        for (a, b) in resp.results.iter().zip(&reference.results) {
            assert_eq!(a.outcome, b.outcome, "bit-identical to simulation");
            assert_eq!(a.backend, "sim");
        }
        let snap = warm.telemetry().snapshot();
        assert_eq!(snap.counter("serve.dispatches"), 0);
        assert_eq!(snap.counter("store.reports_loaded"), 3);
        assert_eq!(snap.counter("serve.cache_hits"), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
