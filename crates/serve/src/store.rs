//! The persistent outcome store behind `--store`: warm restarts for the
//! evaluation service.
//!
//! [`OutcomeStore`](crate::store::OutcomeStore) owns one
//! `pipedepth-store` namespace, `outcomes`, holding every simulation
//! outcome the service has published as a
//! ([`CellSpec`](pipedepth_core::eval::CellSpec),
//! [`EvalOutcome`](pipedepth_core::eval::EvalOutcome)) record. At
//! startup the decoded image
//! becomes the *warm tier* of the service's simulation
//! [`TieredCache`](pipedepth_core::eval::TieredCache): a restarted
//! server answers previously computed cells from disk, promoting them
//! back into memory, instead of re-simulating.
//!
//! The snapshot is keyed by the record codec version
//! ([`OUTCOMES_SCHEMA`](crate::store::OUTCOMES_SCHEMA)), the crate
//! version, and the digest of the service's template
//! [`RunConfig`](pipedepth_experiments::sweep::RunConfig) — a snapshot
//! from a different build
//! or service configuration degrades to a cold start, never to a wrong
//! answer. Records carry the full spec, so a warm hit still resolves by
//! `PartialEq` exactly as an in-memory hit does.
//!
//! Publishing is write-behind and periodic: the dispatch loop snapshots
//! the simulation cache — every outcome loaded at startup plus every one
//! computed since, so a restart never drops what an earlier server
//! published — every [`crate::service`]-chosen insert threshold and
//! hands encoding plus the atomic temp-file-and-rename publish to the
//! store's [`Flusher`](pipedepth_store::Flusher) worker. At graceful
//! shutdown the server takes one final snapshot and
//! [`OutcomeStore::sync`](crate::store::OutcomeStore::sync)s the
//! backlog to disk before
//! printing its stats line, so a drained server is always restartable
//! from its last answered state.

use pipedepth_core::eval::{CacheStats, CellSpec, EvalOutcome, ShardedCache};
use pipedepth_experiments::manifest::config_digest;
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_store::{
    load_records, publish_records, Blob, ByteReader, ByteWriter, DecodeError, Flusher, LoadOutcome,
    NamespaceSpec,
};
use pipedepth_telemetry::{Stopwatch, Telemetry, DEFAULT_TIME_BUCKETS_US};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Record-codec version of the `outcomes` namespace. Bump whenever the
/// [`CellSpec`] or [`EvalOutcome`] field lists change shape.
pub const OUTCOMES_SCHEMA: u32 = 1;

/// Code-version key stamped into every snapshot header; snapshots from a
/// different build degrade to a cold start.
const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

fn outcome_record(spec: &CellSpec, outcome: &EvalOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    spec.encode(&mut w);
    outcome.encode(&mut w);
    w.into_bytes()
}

fn decode_outcome_record(bytes: &[u8]) -> Result<(CellSpec, EvalOutcome), DecodeError> {
    let mut r = ByteReader::new(bytes);
    let spec = CellSpec::decode(&mut r)?;
    let outcome = EvalOutcome::decode(&mut r)?;
    r.finish()?;
    Ok((spec, outcome))
}

/// The service's persistent outcome store: loads a snapshot at startup,
/// publishes snapshots write-behind while the server runs.
pub struct OutcomeStore {
    dir: PathBuf,
    digest: u64,
    telemetry: Telemetry,
    flusher: Flusher,
    loaded: u64,
    invalid: u64,
    // Flush-side counters live behind `Arc`s because they are incremented
    // on the flusher thread; readers see them after a `sync`.
    flushes: Arc<AtomicU64>,
    records_flushed: Arc<AtomicU64>,
}

impl std::fmt::Debug for OutcomeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutcomeStore")
            .field("dir", &self.dir)
            .field("digest", &self.digest)
            .field("loaded", &self.loaded)
            .field("invalid", &self.invalid)
            .finish_non_exhaustive()
    }
}

impl OutcomeStore {
    /// Opens the store rooted at `dir` for a service templated on `run`.
    /// Registers every `store.*` metric the service emits immediately, so
    /// cold and warm servers expose the same `/metrics` name set.
    pub fn open(dir: &Path, run: &RunConfig, telemetry: &Telemetry) -> Self {
        for name in [
            "store.hits",
            "store.misses",
            "store.outcomes_loaded",
            "store.invalid",
            "store.flushes",
            "store.records_flushed",
        ] {
            telemetry.counter(name).add(0);
        }
        OutcomeStore {
            dir: dir.to_path_buf(),
            digest: config_digest(run),
            telemetry: telemetry.clone(),
            flusher: Flusher::new(),
            loaded: 0,
            invalid: 0,
            flushes: Arc::new(AtomicU64::new(0)),
            records_flushed: Arc::new(AtomicU64::new(0)),
        }
    }

    fn spec(&self) -> NamespaceSpec<'_> {
        NamespaceSpec {
            name: "outcomes",
            schema_version: OUTCOMES_SCHEMA,
            code_version: CODE_VERSION,
            config_digest: self.digest,
        }
    }

    /// Loads the `outcomes` snapshot into a warm-tier image. A missing
    /// file, a rejected header or checksum, or any undecodable record
    /// yields an empty image — a cold start, never a partial or wrong
    /// one.
    pub fn load(&mut self) -> ShardedCache<CellSpec, EvalOutcome> {
        let start = Stopwatch::start();
        let warm = ShardedCache::new();
        match load_records(&self.dir, &self.spec()) {
            LoadOutcome::Warm(records) => {
                match records
                    .iter()
                    .map(|r| decode_outcome_record(r))
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(entries) => {
                        self.loaded = entries.len() as u64;
                        self.telemetry
                            .counter("store.outcomes_loaded")
                            .add(self.loaded);
                        for (spec, outcome) in entries {
                            warm.insert(spec.key(), spec, Arc::new(outcome));
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
            LoadOutcome::Cold(reason) => {
                if !reason.is_missing() {
                    self.invalid += 1;
                    self.telemetry.counter("store.invalid").inc();
                }
            }
        }
        self.telemetry
            .histogram("store.load_us", &DEFAULT_TIME_BUCKETS_US)
            .record(start.elapsed_us());
        warm
    }

    /// Outcome records decoded from a valid snapshot at startup.
    pub fn loaded(&self) -> u64 {
        self.loaded
    }

    /// Namespaces rejected at startup (corruption or version skew; a
    /// simply missing file does not count).
    pub fn invalid(&self) -> u64 {
        self.invalid
    }

    /// Snapshots published so far (reliable only after [`sync`](Self::sync)).
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Publishes a snapshot of answered cells, write-behind. The entries
    /// were already snapshotted by the caller (the cache's `entries()`
    /// drops its shard guards before returning); encoding and the atomic
    /// publish happen on the flusher thread.
    pub fn flush(&self, entries: Vec<(CellSpec, Arc<EvalOutcome>)>) {
        let dir = self.dir.clone();
        let digest = self.digest;
        let telemetry = self.telemetry.clone();
        let flushes = Arc::clone(&self.flushes);
        let records_flushed = Arc::clone(&self.records_flushed);
        self.flusher.submit(move || {
            let start = Stopwatch::start();
            let records: Vec<Vec<u8>> = entries
                .iter()
                .map(|(spec, outcome)| outcome_record(spec, outcome))
                .collect();
            let spec = NamespaceSpec {
                name: "outcomes",
                schema_version: OUTCOMES_SCHEMA,
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

    /// Records the warm-tier probe counters of the server's lifetime
    /// (from the tiered cache, at drain time).
    pub fn record_warm(&self, stats: CacheStats) {
        self.telemetry.counter("store.hits").add(stats.hits);
        self.telemetry.counter("store.misses").add(stats.misses);
    }

    /// Waits until every snapshot submitted so far is durably published.
    /// Needs only `&self`, so the `Arc`'d service can force durability at
    /// drain time without exclusive access; the store keeps accepting
    /// flushes afterwards.
    pub fn sync(&self) {
        self.flusher.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_core::eval::WorkloadProfile;
    use std::sync::atomic::AtomicU32;

    /// A fresh scratch directory per test (std-only; no tempdir crate).
    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "pipedepth-serve-store-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn cell(depth: u32) -> CellSpec {
        CellSpec {
            workload: "unit".to_string(),
            profile: WorkloadProfile {
                alpha: 0.5,
                gamma: 1.1,
                hazard_rate: 0.02,
                kappa: 3.0,
                memory_time_fo4: 500.0,
            },
            depth,
            warmup: 100,
            instructions: 400,
            leakage_fraction: 0.3,
            ref_depth: 14.0,
            latch_growth: 1.1,
        }
    }

    fn outcome(depth: u32) -> EvalOutcome {
        EvalOutcome {
            depth,
            cpi: 1.4,
            frequency: 0.05,
            time_per_instruction_fo4: 28.0,
            throughput: 1.0 / 28.0,
            power_gated: 30.0,
            power_ungated: 55.0,
            metric_gated: [0.05, 0.002_5, 0.000_125],
            metric_ungated: [0.027, 0.000_75, 0.000_02],
            profile: cell(depth).profile,
        }
    }

    #[test]
    fn outcomes_round_trip_through_the_store() {
        let dir = scratch("roundtrip");
        let run = RunConfig::quick();
        let telemetry = Telemetry::disabled();
        let store = OutcomeStore::open(&dir, &run, &telemetry);
        let entries: Vec<_> = (2..10).map(|d| (cell(d), Arc::new(outcome(d)))).collect();
        store.flush(entries.clone());
        store.sync();
        assert_eq!(store.flushes(), 1);

        let mut store = OutcomeStore::open(&dir, &run, &telemetry);
        let warm = store.load();
        assert_eq!(store.loaded(), entries.len() as u64);
        assert_eq!(store.invalid(), 0);
        for (spec, out) in &entries {
            let hit = warm.get(spec.key(), spec).expect("warm hit");
            assert_eq!(*hit, **out);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_skew_and_corruption_degrade_to_cold_start() {
        let dir = scratch("skew");
        let run = RunConfig::quick();
        let telemetry = Telemetry::disabled();
        let store = OutcomeStore::open(&dir, &run, &telemetry);
        store.flush(vec![(cell(8), Arc::new(outcome(8)))]);
        store.sync();

        // A different template config must not read the snapshot.
        let other = RunConfig {
            instructions: run.instructions + 1,
            ..run.clone()
        };
        let mut skewed = OutcomeStore::open(&dir, &other, &telemetry);
        assert!(skewed.load().is_empty());
        assert_eq!(skewed.loaded(), 0);
        assert_eq!(skewed.invalid(), 1, "digest skew is a counted rejection");

        // A bit-flipped payload fails its checksum: cold, counted, no panic.
        let file = dir.join("outcomes.pds");
        let mut bytes = std::fs::read(&file).expect("snapshot exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&file, &bytes).expect("rewrite");
        let mut corrupt = OutcomeStore::open(&dir, &run, &telemetry);
        assert!(corrupt.load().is_empty());
        assert_eq!(corrupt.invalid(), 1, "corruption is a counted rejection");

        // A missing store is a quiet cold start.
        let missing = scratch("missing");
        let mut fresh = OutcomeStore::open(&missing, &run, &telemetry);
        assert!(fresh.load().is_empty());
        assert_eq!(fresh.invalid(), 0, "a missing file is not a rejection");

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&missing);
    }
}
