//! The persistent evaluation store behind `--store`: warm-starts a run
//! or a server from the snapshot a previous one published.
//!
//! [`RunStore`] is the workspace's one owner of `pipedepth-store`
//! namespaces — `repro --store` and `pipedepth-serve --store` both go
//! through it, so a directory one of them warmed warms the other:
//!
//! * `sim_reports` — every finished simulation cell, as a
//!   ([`CellSpec`], [`SimReport`]) record. Loaded records become the
//!   *warm tier* of the runner's
//!   [`TieredCache`](pipedepth_core::eval::TieredCache): memory misses
//!   probe the decoded image and promote hits, so previously computed
//!   cells skip simulation entirely. This is the only namespace `repro`
//!   and the server read and write: they persist answers, not the
//!   intermediates that produced them. A report is kept rather than
//!   any outcome derived from it because every power calibration and
//!   `BIPS^m/W` variant is priced from the same report.
//! * `annotations` — the depth-invariant annotate-once columns, as an
//!   ([`AnnotationKey`], [`AnnotatedTrace`]) record. `repro` neither
//!   loads nor publishes it; [`RunStore::load_annotations`] and
//!   [`RunStore::flush_annotations`] remain for perfbench's traced
//!   repro pass, which still seeds and publishes annotations.
//!
//! Keys follow the store's invalidation discipline: each namespace is
//! versioned by its record codec ([`REPORTS_SCHEMA`],
//! [`ANNOTATIONS_SCHEMA`]), by the crate version, and by the run-config
//! digest ([`crate::manifest::config_digest`]) — a snapshot from a
//! different code version or run configuration degrades to a cold start,
//! never to a wrong answer. Decoded specs are full structs, so even a
//! hash collision inside a valid snapshot resolves by `PartialEq`
//! exactly as in the in-memory cache.
//!
//! A snapshot holds every cell loaded at startup plus every cell
//! simulated since ([`TieredCache::entries`](pipedepth_core::eval::TieredCache::entries)),
//! so under one config digest the published set only grows.
//! [`RunStore::flush_reports_if_simulated`] publishes only when the
//! runner has simulated cells since the last publish, and builds the
//! snapshot only then: a fully warm run exports and publishes nothing.
//!
//! Publishing is write-behind: `flush_*` snapshots the entries on the
//! calling thread (no locks held — the cache's `entries()` drops its
//! shard guards before returning) and hands encoding plus the atomic
//! temp-file-and-rename publish to the store's [`Flusher`] worker, so
//! the hot loop never blocks on I/O. Every method after loading takes
//! `&self`, so a shared (`Arc`'d) server publishes and
//! [`sync`](RunStore::sync)s without extra locking. [`RunStore::finish`]
//! drains the worker and returns the deterministic [`StoreStats`] the
//! manifest records.

use crate::manifest::config_digest;
use crate::runner::{CacheStats, CellSpec, Runner, SimCache};
use crate::sweep::RunConfig;
use pipedepth_sim::{AnnotatedTrace, AnnotationKey, SimReport};
use pipedepth_store::{
    load_records, publish_records, Blob, ByteReader, ByteWriter, DecodeError, Flusher, LoadOutcome,
    NamespaceSpec,
};
use pipedepth_telemetry::{Stopwatch, Telemetry, DEFAULT_TIME_BUCKETS_US};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Record-codec version of the `sim_reports` namespace. Bump whenever the
/// [`CellSpec`] or [`SimReport`] field lists change shape.
pub const REPORTS_SCHEMA: u32 = 1;

/// Record-codec version of the `annotations` namespace. Bump whenever the
/// [`AnnotationKey`] or [`AnnotatedTrace`] field lists change shape.
pub const ANNOTATIONS_SCHEMA: u32 = 1;

/// Code-version key stamped into every snapshot header; snapshots from a
/// different build degrade to a cold start.
const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

// A cell spec persists as its full field list (model and machine through
// their own codecs), so a decoded spec compares equal to the original
// and reproduces the same `CellSpec::key`.
impl Blob for CellSpec {
    fn encode(&self, w: &mut ByteWriter) {
        self.model.encode(w);
        w.put_u64(self.trace_seed);
        self.sim.encode(w);
        w.put_u64(self.warmup).put_u64(self.instructions);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CellSpec {
            model: Blob::decode(r)?,
            trace_seed: r.take_u64()?,
            sim: Blob::decode(r)?,
            warmup: r.take_u64()?,
            instructions: r.take_u64()?,
        })
    }
}

fn report_record(spec: &CellSpec, report: &SimReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    spec.encode(&mut w);
    report.encode(&mut w);
    w.into_bytes()
}

fn decode_report_record(bytes: &[u8]) -> Result<(CellSpec, SimReport), DecodeError> {
    let mut r = ByteReader::new(bytes);
    let spec = CellSpec::decode(&mut r)?;
    let report = SimReport::decode(&mut r)?;
    r.finish()?;
    Ok((spec, report))
}

fn annotation_record(key: &AnnotationKey, notes: &AnnotatedTrace) -> Vec<u8> {
    let mut w = ByteWriter::new();
    key.encode(&mut w);
    notes.encode(&mut w);
    w.into_bytes()
}

fn decode_annotation_record(bytes: &[u8]) -> Result<(AnnotationKey, AnnotatedTrace), DecodeError> {
    let mut r = ByteReader::new(bytes);
    let key = AnnotationKey::decode(&mut r)?;
    let notes = AnnotatedTrace::decode(&mut r)?;
    r.finish()?;
    Ok((key, notes))
}

/// Deterministic end-of-run counters of one [`RunStore`], recorded in the
/// manifest's `store` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Cells served from the loaded snapshot instead of simulation
    /// (warm-tier hits).
    pub hits: u64,
    /// Warm-tier probes nothing could serve.
    pub misses: u64,
    /// Report records decoded from a valid snapshot at startup.
    pub reports_loaded: u64,
    /// Namespaces rejected at startup (corruption or version skew; a
    /// simply missing file does not count).
    pub invalid: u64,
    /// Snapshots published.
    pub flushes: u64,
    /// Records across all published snapshots.
    pub records_flushed: u64,
}

/// The persistent store of one run: loads snapshots at startup, publishes
/// them write-behind while the run progresses.
pub struct RunStore {
    dir: PathBuf,
    digest: u64,
    telemetry: Telemetry,
    flusher: Flusher,
    // Flush-side counters live behind `Arc`s because they are incremented
    // on the flusher thread; readers see final values after a drain.
    flushes: Arc<AtomicU64>,
    records_flushed: Arc<AtomicU64>,
    reports_loaded: u64,
    invalid: u64,
    // Warm-tier probe counters handed over by `record_warm`.
    warm_hits: AtomicU64,
    warm_misses: AtomicU64,
    // The runner's simulated-cell count at the last report publish
    // (advanced by `flush_reports_if_simulated`). Republishing when
    // nothing was simulated costs an export and a full re-encode for
    // zero new durability, so a fully warm run publishes nothing.
    simulated_published: AtomicU64,
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("dir", &self.dir)
            .field("digest", &self.digest)
            .field("reports_loaded", &self.reports_loaded)
            .field("invalid", &self.invalid)
            .finish_non_exhaustive()
    }
}

impl RunStore {
    /// Opens the store rooted at `dir` for a run of `config`. Registers
    /// every `store.*` counter immediately, so cold and warm runs emit
    /// the same metric-name set.
    pub fn open(dir: &Path, config: &RunConfig, telemetry: &Telemetry) -> Self {
        for name in [
            "store.hits",
            "store.misses",
            "store.reports_loaded",
            "store.invalid",
            "store.flushes",
            "store.records_flushed",
        ] {
            telemetry.counter(name).add(0);
        }
        RunStore {
            dir: dir.to_path_buf(),
            digest: config_digest(config),
            telemetry: telemetry.clone(),
            flusher: Flusher::new(),
            flushes: Arc::new(AtomicU64::new(0)),
            records_flushed: Arc::new(AtomicU64::new(0)),
            reports_loaded: 0,
            invalid: 0,
            warm_hits: AtomicU64::new(0),
            warm_misses: AtomicU64::new(0),
            simulated_published: AtomicU64::new(0),
        }
    }

    fn reports_spec(&self) -> NamespaceSpec<'_> {
        NamespaceSpec {
            name: "sim_reports",
            schema_version: REPORTS_SCHEMA,
            code_version: CODE_VERSION,
            config_digest: self.digest,
        }
    }

    fn annotations_spec(&self) -> NamespaceSpec<'_> {
        NamespaceSpec {
            name: "annotations",
            schema_version: ANNOTATIONS_SCHEMA,
            code_version: CODE_VERSION,
            config_digest: self.digest,
        }
    }

    /// Counts one rejected namespace (anything but a plainly missing
    /// file): corruption or version skew, degraded to a cold start.
    fn count_invalid(&mut self, reason: &pipedepth_store::InvalidReason) {
        if !reason.is_missing() {
            self.invalid += 1;
            self.telemetry.counter("store.invalid").inc();
        }
    }

    /// Loads the `sim_reports` snapshot into a warm-tier image. A missing
    /// file, a rejected header or checksum, or any undecodable record
    /// yields an empty image — a cold start, never a partial or wrong one.
    pub fn load_reports(&mut self) -> SimCache {
        let start = Stopwatch::start();
        let warm = SimCache::new();
        match load_records(&self.dir, &self.reports_spec()) {
            LoadOutcome::Warm(records) => {
                match records
                    .iter()
                    .map(|r| decode_report_record(r))
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(entries) => {
                        self.reports_loaded = entries.len() as u64;
                        self.telemetry
                            .counter("store.reports_loaded")
                            .add(self.reports_loaded);
                        for (spec, report) in entries {
                            warm.insert(spec.key(), spec, Arc::new(report));
                        }
                    }
                    // A record that passed every checksum but fails the
                    // codec is version skew the header keys missed.
                    Err(_) => {
                        self.invalid += 1;
                        self.telemetry.counter("store.invalid").inc();
                    }
                }
            }
            LoadOutcome::Cold(reason) => self.count_invalid(&reason),
        }
        self.telemetry
            .histogram("store.load_us", &DEFAULT_TIME_BUCKETS_US)
            .record(start.elapsed_us());
        warm
    }

    /// Loads the `annotations` snapshot; same degradation rules as
    /// [`load_reports`](Self::load_reports). `repro` does not call it;
    /// perfbench's traced repro pass does, to seed its runner.
    pub fn load_annotations(&mut self) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
        let start = Stopwatch::start();
        let mut seeds = Vec::new();
        match load_records(&self.dir, &self.annotations_spec()) {
            LoadOutcome::Warm(records) => {
                match records
                    .iter()
                    .map(|r| decode_annotation_record(r))
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(entries) => {
                        seeds = entries
                            .into_iter()
                            .map(|(key, notes)| (key, Arc::new(notes)))
                            .collect();
                    }
                    Err(_) => {
                        self.invalid += 1;
                        self.telemetry.counter("store.invalid").inc();
                    }
                }
            }
            LoadOutcome::Cold(reason) => self.count_invalid(&reason),
        }
        self.telemetry
            .histogram("store.load_us", &DEFAULT_TIME_BUCKETS_US)
            .record(start.elapsed_us());
        seeds
    }

    /// Publishes a snapshot of finished cells, write-behind. The entries
    /// were already snapshotted by the caller; encoding and the atomic
    /// publish happen on the flusher thread.
    pub fn flush_reports(&self, entries: Vec<(CellSpec, Arc<SimReport>)>) {
        let dir = self.dir.clone();
        let digest = self.digest;
        let telemetry = self.telemetry.clone();
        let flushes = Arc::clone(&self.flushes);
        let records_flushed = Arc::clone(&self.records_flushed);
        self.flusher.submit(move || {
            let start = Stopwatch::start();
            let records: Vec<Vec<u8>> = entries
                .iter()
                .map(|(spec, report)| report_record(spec, report))
                .collect();
            let spec = NamespaceSpec {
                name: "sim_reports",
                schema_version: REPORTS_SCHEMA,
                code_version: CODE_VERSION,
                config_digest: digest,
            };
            if publish_records(&dir, &spec, &records).is_ok() {
                flushes.fetch_add(1, Ordering::Relaxed);
                records_flushed.fetch_add(records.len() as u64, Ordering::Relaxed);
                telemetry.counter("store.flushes").inc();
                telemetry
                    .counter("store.records_flushed")
                    .add(records.len() as u64);
            }
            telemetry
                .histogram("store.flush_us", &DEFAULT_TIME_BUCKETS_US)
                .record(start.elapsed_us());
        });
    }

    /// [`flush_reports`](Self::flush_reports) of `runner`'s finished
    /// cells, gated on new work: exports and publishes only when the
    /// runner has simulated cells since the last publish through this
    /// gate (its memory-tier `misses` counter counts them). The per-phase
    /// republish discipline then costs nothing on phases that simulated
    /// nothing, and a fully warm run never builds a snapshot at all.
    /// Callers racing through the gate publish at most once per count.
    pub fn flush_reports_if_simulated(&self, runner: &Runner) {
        let simulated = runner.cache_stats().map_or(0, |stats| stats.misses);
        if self
            .simulated_published
            .fetch_max(simulated, Ordering::Relaxed)
            < simulated
        {
            self.flush_reports(runner.export_reports());
        }
    }

    /// Publishes a snapshot of resident annotations, write-behind.
    /// `repro` does not call it; perfbench's traced repro pass does.
    pub fn flush_annotations(&self, entries: Vec<(AnnotationKey, Arc<AnnotatedTrace>)>) {
        let dir = self.dir.clone();
        let digest = self.digest;
        let telemetry = self.telemetry.clone();
        let flushes = Arc::clone(&self.flushes);
        let records_flushed = Arc::clone(&self.records_flushed);
        self.flusher.submit(move || {
            let start = Stopwatch::start();
            let records: Vec<Vec<u8>> = entries
                .iter()
                .map(|(key, notes)| annotation_record(key, notes))
                .collect();
            let spec = NamespaceSpec {
                name: "annotations",
                schema_version: ANNOTATIONS_SCHEMA,
                code_version: CODE_VERSION,
                config_digest: digest,
            };
            if publish_records(&dir, &spec, &records).is_ok() {
                flushes.fetch_add(1, Ordering::Relaxed);
                records_flushed.fetch_add(records.len() as u64, Ordering::Relaxed);
                telemetry.counter("store.flushes").inc();
                telemetry
                    .counter("store.records_flushed")
                    .add(records.len() as u64);
            }
            telemetry
                .histogram("store.flush_us", &DEFAULT_TIME_BUCKETS_US)
                .record(start.elapsed_us());
        });
    }

    /// Records the warm-tier probe counters of the finished run (from
    /// [`Runner::warm_report_stats`](crate::runner::Runner::warm_report_stats)).
    /// Call once, at the end: the counts also go to telemetry.
    pub fn record_warm(&self, stats: Option<CacheStats>) {
        let stats = stats.unwrap_or_default();
        self.warm_hits.store(stats.hits, Ordering::Relaxed);
        self.warm_misses.store(stats.misses, Ordering::Relaxed);
        self.telemetry.counter("store.hits").add(stats.hits);
        self.telemetry.counter("store.misses").add(stats.misses);
    }

    /// Report records decoded from a valid snapshot by
    /// [`load_reports`](Self::load_reports).
    pub fn reports_loaded(&self) -> u64 {
        self.reports_loaded
    }

    /// Snapshots published so far (final only after [`sync`](Self::sync)
    /// or [`finish`](Self::finish)).
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Waits until every snapshot submitted so far is durably published.
    /// Needs only `&self`, so a shared owner can force durability at
    /// drain time; the store keeps accepting flushes afterwards.
    pub fn sync(&self) {
        self.flusher.sync();
    }

    /// Drains every pending flush and returns the run's store counters.
    /// Call *before* snapshotting telemetry, so the manifest sees the
    /// final flush metrics.
    pub fn finish(mut self) -> StoreStats {
        self.flusher.shutdown();
        StoreStats {
            hits: self.warm_hits.load(Ordering::Relaxed),
            misses: self.warm_misses.load(Ordering::Relaxed),
            reports_loaded: self.reports_loaded,
            invalid: self.invalid,
            flushes: self.flushes(),
            records_flushed: self.records_flushed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::WorkloadCurve;
    use pipedepth_sim::{annotate, SimConfig};
    use pipedepth_telemetry::Telemetry;
    use pipedepth_trace::{TraceGenerator, TraceRequest, WorkloadModel};
    use pipedepth_workloads::{representatives, Workload};
    use std::sync::atomic::AtomicU32;

    /// A fresh scratch directory per test (std-only; no tempdir crate).
    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "pipedepth-store-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn tiny() -> RunConfig {
        RunConfig {
            warmup: 1_000,
            instructions: 2_000,
            depths: vec![4, 8, 12],
            ..RunConfig::default()
        }
    }

    #[test]
    fn cell_specs_round_trip_with_keys() {
        let spec = CellSpec::new(&representatives()[0], SimConfig::paper(14), 500, 1_500);
        let decoded = CellSpec::from_record(&spec.to_record()).expect("decodes");
        assert_eq!(decoded, spec);
        assert_eq!(decoded.key(), spec.key());
    }

    #[test]
    fn warm_run_reuses_every_cell_and_annotation() {
        let dir = scratch("warm");
        let cfg = tiny();
        let telemetry = Telemetry::disabled();
        let ws = representatives();

        // Cold run: simulate, then snapshot.
        let cold = Runner::serial();
        let curves = cold.sweep_all(&ws, &cfg);
        let mut store = RunStore::open(&dir, &cfg, &telemetry);
        assert!(store.load_reports().is_empty(), "first run starts cold");
        store.flush_reports(cold.export_reports());
        store.flush_annotations(cold.export_annotations());
        let stats = store.finish();
        assert_eq!(stats.flushes, 2);
        assert_eq!(stats.invalid, 0);
        let cells = (ws.len() * cfg.depths.len()) as u64;
        assert_eq!(stats.records_flushed, cells + ws.len() as u64);

        // Warm run: every cell comes from the store, bit-identically.
        let mut store = RunStore::open(&dir, &cfg, &telemetry);
        let warm_image = store.load_reports();
        let seeds = store.load_annotations();
        assert_eq!(warm_image.len() as u64, cells);
        assert_eq!(seeds.len(), ws.len());
        let warm = Runner::serial().with_warm_reports(warm_image);
        assert_eq!(warm.seed_annotations(seeds), ws.len() as u64);
        let again = warm.sweep_all(&ws, &cfg);
        assert_eq!(curves, again, "warm results must be bit-identical");
        let probes = warm.warm_report_stats().expect("warm tier attached");
        assert_eq!(probes.hits, cells, "every cell served from disk");
        assert_eq!(probes.misses, 0);
        assert_eq!(warm.annotation_stats().misses, 0, "annotations seeded");
        store.record_warm(warm.warm_report_stats());
        let stats = store.finish();
        assert_eq!(stats.hits, cells);
        assert_eq!(stats.reports_loaded, cells);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One run shaped like `repro --store`: load, sweep `ws`, publish
    /// through the gate `repro` uses, drain. Returns the curves, the cells the
    /// run simulated and its store counters.
    fn store_run(
        dir: &Path,
        cfg: &RunConfig,
        ws: &[Workload],
    ) -> (Vec<WorkloadCurve>, u64, StoreStats) {
        let mut store = RunStore::open(dir, cfg, &Telemetry::disabled());
        let runner = Runner::serial().with_warm_reports(store.load_reports());
        let curves = runner.sweep_all(ws, cfg);
        store.flush_reports_if_simulated(&runner);
        store.record_warm(runner.warm_report_stats());
        let simulated = runner.cache_stats().expect("always Some").misses;
        (curves, simulated, store.finish())
    }

    #[test]
    fn disjoint_runs_accumulate_into_one_snapshot() {
        let dir = scratch("union");
        let cfg = tiny();
        let ws = representatives();
        let (first, second) = ws.split_at(ws.len() / 2);
        let cells = |w: &[Workload]| (w.len() * cfg.depths.len()) as u64;

        let (a, simulated, stats) = store_run(&dir, &cfg, first);
        assert_eq!((simulated, stats.flushes), (cells(first), 1));
        // The second run loads the first run's cells and requests none of
        // them; its snapshot must keep them all the same.
        let (b, simulated, stats) = store_run(&dir, &cfg, second);
        assert_eq!((simulated, stats.flushes), (cells(second), 1));
        assert_eq!(stats.records_flushed, cells(&ws));

        let (union, simulated, stats) = store_run(&dir, &cfg, &ws);
        assert_eq!(simulated, 0, "the union is served entirely from disk");
        assert_eq!(stats.hits, cells(&ws));
        assert_eq!(stats.flushes, 0, "nothing new, nothing published");
        assert_eq!(union, [a, b].concat(), "warm results are bit-identical");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_degrades_to_cold_start() {
        let dir = scratch("skew");
        let cfg = tiny();
        let telemetry = Telemetry::disabled();
        let runner = Runner::serial();
        runner.sweep_all(&representatives(), &cfg);
        let store = RunStore::open(&dir, &cfg, &telemetry);
        store.flush_reports(runner.export_reports());
        store.finish();

        // A different run configuration must not read the snapshot.
        let other = RunConfig {
            instructions: cfg.instructions + 1,
            ..cfg.clone()
        };
        let mut store = RunStore::open(&dir, &other, &telemetry);
        assert!(store.load_reports().is_empty());
        let stats = store.finish();
        assert_eq!(stats.reports_loaded, 0);
        assert_eq!(stats.invalid, 1, "digest skew is a counted rejection");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_annotation_is_a_counted_cold_start() {
        let dir = scratch("range");
        let cfg = tiny();
        let telemetry = Telemetry::disabled();
        let ws = representatives();
        let cold = Runner::serial();
        let curves = cold.sweep_all(&ws, &cfg);

        // A snapshot whose checksums all hold but whose first record
        // carries a class byte no operation class has: only the record
        // codec can catch it.
        let exported = cold.export_annotations();
        let mut records: Vec<Vec<u8>> = exported
            .iter()
            .map(|(key, notes)| annotation_record(key, notes))
            .collect();
        // The class column follows the key and its own length prefix.
        records[0][exported[0].0.to_record().len() + 4] = 200;
        let store = RunStore::open(&dir, &cfg, &telemetry);
        publish_records(&dir, &store.annotations_spec(), &records).expect("publish");
        store.finish();

        let mut store = RunStore::open(&dir, &cfg, &telemetry);
        let seeds = store.load_annotations();
        assert!(seeds.is_empty(), "the whole namespace degrades to cold");
        let rerun = Runner::serial();
        assert_eq!(rerun.seed_annotations(seeds), 0);
        assert_eq!(rerun.sweep_all(&ws, &cfg), curves, "results unchanged");
        assert_eq!(rerun.annotation_stats().misses, ws.len() as u64);
        let stats = store.finish();
        assert_eq!(
            stats.invalid, 1,
            "a bad column value is a counted rejection"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_store_is_a_quiet_cold_start() {
        let dir = scratch("missing");
        let mut store = RunStore::open(&dir, &tiny(), &Telemetry::disabled());
        assert!(store.load_reports().is_empty());
        assert!(store.load_annotations().is_empty());
        let stats = store.finish();
        assert_eq!(stats.invalid, 0, "a missing file is not a rejection");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn annotation_records_round_trip_through_the_store() {
        let dir = scratch("notes");
        let cfg = tiny();
        let telemetry = Telemetry::disabled();
        let sim = SimConfig::paper(8);
        let model = WorkloadModel::spec_int_like();
        let trace = TraceGenerator::new(model, 7).take_vec(3_000);
        let notes = annotate(&trace, sim.cache, sim.predictor).expect("valid config");
        let key = AnnotationKey {
            trace_key: TraceRequest {
                model,
                seed: 7,
                len: 3_000,
            }
            .key(),
            len: 3_000,
            cache: sim.cache,
            predictor: sim.predictor,
        };
        let store = RunStore::open(&dir, &cfg, &telemetry);
        store.flush_annotations(vec![(key, Arc::new(notes.clone()))]);
        store.finish();

        let mut store = RunStore::open(&dir, &cfg, &telemetry);
        let seeds = store.load_annotations();
        store.finish();
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].0, key);
        assert_eq!(*seeds[0].1, notes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
