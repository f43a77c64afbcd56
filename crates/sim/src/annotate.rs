//! The annotate pass: depth-invariant event classification, run once per
//! workload trace.
//!
//! The sweep at the heart of the paper evaluates the *same* instruction
//! stream at every pipeline depth. Within that stream, three families of
//! events do not depend on depth at all — they are functions of the trace
//! and of the cache/predictor configuration only:
//!
//! * **instruction fetch**: the once-per-line fetch filter and the
//!   L1i/L2/memory class of each counted fetch (cache *state* evolves in
//!   trace order, independent of stage timing);
//! * **data access**: the L1d/L2/memory class of every memory operand
//!   (same argument — accesses happen in trace order on the in-order
//!   machine, and the prefetcher reacts only to access results);
//! * **branch outcome**: the gshare predictor trains on the architectural
//!   taken/not-taken stream, which timing cannot alter.
//!
//! [`annotate()`] replays exactly the engine's cache and predictor model over
//! a trace once and records those outcomes — together with the decoded
//! per-instruction fields the timing kernel needs (class, flat register
//! slots, serialize/memory flags) — into a struct-of-arrays
//! [`AnnotatedTrace`]. The per-depth *timing* replay
//! ([`crate::replay::replay_sweep`]) then runs over the annotation with no
//! cache arrays, no predictor table and no instruction decoding in its
//! inner loop. Everything that is **not** provably depth-invariant (port
//! contention, miss *penalties in cycles*, queue floors, hazard
//! attribution) deliberately stays in the per-depth kernel.
//!
//! [`annotate_stream`] consumes the stream as it is produced, so a caller
//! never has to hold the instructions themselves. [`AnnotationStore`] is
//! the workspace's one per-stream cache: one annotation per distinct
//! `(stream, cache config, predictor config)`, shared by `Arc`, with
//! `trace.annotate.*` telemetry counters. On a miss it feeds a seeded
//! [`TraceGenerator`](pipedepth_trace::TraceGenerator) straight into the
//! pass; on a hit it generates nothing.

use crate::cache::Hierarchy;
use crate::config::{CacheConfig, ConfigError, PredictorConfig};
use crate::predictor::Gshare;
use crate::stage::reg_slot;
use pipedepth_telemetry::{Counter, Telemetry};
use pipedepth_trace::isa::{Instruction, OpClass};
use pipedepth_trace::{Fnv64, TraceGenerator, TraceRequest};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel register slot: "no destination / source absent".
pub(crate) const NO_REG: u8 = u8::MAX;
/// Flag bit: the instruction is a serialising operation.
pub(crate) const FLAG_SERIAL: u8 = 1;
/// Flag bit: the instruction carries a memory operand (`mem.is_some()`).
pub(crate) const FLAG_MEM: u8 = 2;

/// The depth-invariant annotation of one instruction stream, in
/// struct-of-arrays layout: one compact column per field, indexed by
/// instruction position, so the replay kernel streams each column linearly.
///
/// Encodings (one byte each):
/// * `classes[i]` — the [`OpClass`] discriminant;
/// * `flags[i]` — serialise/memory flag bits;
/// * `dst[i]`, `src[i]` — flat register slots (GPRs then FPRs), `0xFF`
///   when absent;
/// * `fetch[i]` — `0` = no counted instruction-cache access (same code
///   line as the previous instruction, or no L1i configured), else the
///   access level + 1 (`1` = L1i hit, `2` = L2, `3` = memory);
/// * `data[i]` — `0` = no memory operand, else the access level + 1
///   (`1` = L1d hit, `2` = L2, `3` = memory);
/// * `branch[i]` — `0` = not a branch, `1` = predicted correctly,
///   `2` = mispredicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotatedTrace {
    pub(crate) classes: Vec<u8>,
    pub(crate) flags: Vec<u8>,
    pub(crate) dst: Vec<u8>,
    pub(crate) src: Vec<[u8; 2]>,
    pub(crate) fetch: Vec<u8>,
    pub(crate) data: Vec<u8>,
    pub(crate) branch: Vec<u8>,
}

impl AnnotatedTrace {
    /// Number of annotated instructions.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True for the annotation of an empty stream.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Approximate resident size in bytes (for capacity accounting).
    pub fn bytes(&self) -> usize {
        // Seven one-byte columns, of which `src` holds two bytes.
        self.len() * 8
    }
}

/// Runs the engine's cache and predictor model over `trace` once and
/// returns the depth-invariant annotation: [`annotate_stream`] over a
/// materialised stream.
///
/// # Errors
///
/// Returns the first [`ConfigError`] found validating the cache or
/// predictor configuration.
pub fn annotate(
    trace: &[Instruction],
    cache: CacheConfig,
    predictor: PredictorConfig,
) -> Result<AnnotatedTrace, ConfigError> {
    annotate_stream(trace.iter().copied(), cache, predictor)
}

/// Runs the engine's cache and predictor model over a stream once, as it
/// is produced, and returns the depth-invariant annotation. The columns
/// are sized from the iterator's size hint (its upper bound when it has
/// one, as `Take` does over an endless generator).
///
/// The pass mirrors the stage engine's event order exactly: per
/// instruction, the fetch filter first, then the data access, then the
/// branch observation — so the cache and predictor state evolve exactly as
/// they do inside [`crate::Engine`] at any depth.
///
/// # Errors
///
/// Returns the first [`ConfigError`] found validating the cache or
/// predictor configuration, before any instruction is read.
pub fn annotate_stream(
    trace: impl IntoIterator<Item = Instruction>,
    cache: CacheConfig,
    predictor: PredictorConfig,
) -> Result<AnnotatedTrace, ConfigError> {
    let mut caches = Hierarchy::try_new(cache)?;
    let mut bp = Gshare::try_new(predictor)?;
    let has_l1i = cache.l1i_bytes > 0;
    let line_bytes = cache.line_bytes;
    let mut last_fetch_line = u64::MAX;

    let trace = trace.into_iter();
    let (lower, upper) = trace.size_hint();
    let n = upper.unwrap_or(lower);
    let mut out = AnnotatedTrace {
        classes: Vec::with_capacity(n),
        flags: Vec::with_capacity(n),
        dst: Vec::with_capacity(n),
        src: Vec::with_capacity(n),
        fetch: Vec::with_capacity(n),
        data: Vec::with_capacity(n),
        branch: Vec::with_capacity(n),
    };
    let slot = |reg: Option<pipedepth_trace::isa::Reg>| reg.map_or(NO_REG, |r| reg_slot(r) as u8);

    for instr in trace {
        out.classes.push(instr.class as u8);
        let mut flags = 0u8;
        if instr.serial {
            flags |= FLAG_SERIAL;
        }
        if instr.mem.is_some() {
            flags |= FLAG_MEM;
        }
        out.flags.push(flags);
        out.dst.push(slot(instr.dst));
        out.src.push([slot(instr.src[0]), slot(instr.src[1])]);

        // Fetch: one counted access per new code line, exactly the front
        // end's filter. With no L1i the engine's fetch is a free hit with
        // no counters touched, so it annotates as "no counted fetch".
        let line = instr.pc / line_bytes;
        let fetch = if line != last_fetch_line {
            last_fetch_line = line;
            if has_l1i {
                caches.fetch(instr.pc) as u8 + 1
            } else {
                0
            }
        } else {
            0
        };
        out.fetch.push(fetch);

        // Data access: every memory operand touches the hierarchy (stores
        // included — they update cache state through the write buffer).
        let data = match instr.mem {
            Some(mem) => caches.access(mem.addr) as u8 + 1,
            None => 0,
        };
        out.data.push(data);

        // Branch outcome: the predictor trains on the architectural
        // outcome stream.
        let branch = if instr.class == OpClass::Branch {
            if bp.observe(instr.pc, instr.is_taken_branch()) {
                1
            } else {
                2
            }
        } else {
            0
        };
        out.branch.push(branch);
    }
    Ok(out)
}

/// Content fingerprint of the annotation-relevant configuration: every
/// cache and predictor field. Two configurations with equal fingerprints
/// (and equal field values — collisions are resolved by comparison in the
/// store) produce identical annotations for the same stream.
pub fn annotation_fingerprint(cache: &CacheConfig, predictor: &PredictorConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(cache.l1_bytes)
        .write_u32(cache.l1_ways)
        .write_u64(cache.l1i_bytes)
        .write_u32(cache.l1i_ways)
        .write_u64(cache.l2_bytes)
        .write_u32(cache.l2_ways)
        .write_u64(cache.line_bytes)
        .write_f64(cache.l2_latency_fo4)
        .write_f64(cache.memory_latency_fo4)
        .write_bool(cache.prefetch)
        .write_u32(predictor.table_bits)
        .write_u32(predictor.history_bits);
    h.finish()
}

/// Counters describing an annotation store's service history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnnotateStats {
    /// Requests served from an already-resident annotation.
    pub hits: u64,
    /// Requests that ran a fresh annotation pass.
    pub misses: u64,
    /// Total instructions annotated since creation.
    pub instructions_annotated: u64,
}

impl AnnotateStats {
    /// Total requests served.
    pub fn requested(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served without annotating (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requested() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requested() as f64
        }
    }
}

/// Full identity of one resident annotation (collision resolution for the
/// store's hash buckets, and the persisted record key of the annotation
/// namespace in an on-disk store).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotationKey {
    /// The stream's content key ([`TraceRequest::key`]).
    pub trace_key: u64,
    /// Stream length (a second identity check alongside the key).
    pub len: usize,
    /// Cache configuration the annotation was computed under.
    pub cache: CacheConfig,
    /// Predictor configuration the annotation was computed under.
    pub predictor: PredictorConfig,
}

impl AnnotationKey {
    /// The key's bucket hash inside an [`AnnotationStore`].
    fn hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.trace_key)
            .write_u64(self.len as u64)
            .write_u64(annotation_fingerprint(&self.cache, &self.predictor));
        h.finish()
    }
}

type Bucket = Vec<(AnnotationKey, Arc<AnnotatedTrace>)>;

/// Content-addressed store of annotations: one generate-and-annotate pass
/// per distinct `(stream, cache config, predictor config)`, shared by
/// `Arc` thereafter. A stream needed under a second configuration is
/// generated again, which is safe because the generator is deterministic.
///
/// Generation and annotation happen under the store lock so concurrent
/// requests never duplicate a pass, and the intended discipline is to
/// request annotations serially before fanning out workers — which also
/// keeps the `trace.annotate.*` and `trace.generators_created` counters
/// deterministic for any thread count.
#[derive(Debug, Default)]
pub struct AnnotationStore {
    buckets: Mutex<BTreeMap<u64, Bucket>>,
    hits: AtomicU64,
    misses: AtomicU64,
    instructions: AtomicU64,
    hit_counter: Counter,
    miss_counter: Counter,
    annotated_counter: Counter,
    /// Handle passed to the generators a miss creates, so generation
    /// reports the ordinary `trace.*` counters.
    telemetry: Telemetry,
}

impl AnnotationStore {
    /// An empty store.
    pub fn new() -> Self {
        AnnotationStore::default()
    }

    /// Connects the store's counters to a telemetry registry:
    /// `trace.annotate.hits`, `trace.annotate.misses` and
    /// `trace.annotate.instructions_annotated` mirror [`AnnotateStats`],
    /// and the generators a miss creates report
    /// `trace.generators_created` and `trace.instructions_generated`.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.hit_counter = telemetry.counter("trace.annotate.hits");
        self.miss_counter = telemetry.counter("trace.annotate.misses");
        self.annotated_counter = telemetry.counter("trace.annotate.instructions_annotated");
        self.telemetry = telemetry.clone();
    }

    /// The annotation of the stream `request` names, under `(cache,
    /// predictor)`. The first request generates the stream straight into
    /// the annotate pass; every later one shares the same `Arc` and
    /// generates nothing.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found validating the cache or
    /// predictor configuration.
    pub fn get_or_annotate(
        &self,
        request: TraceRequest,
        cache: CacheConfig,
        predictor: PredictorConfig,
    ) -> Result<Arc<AnnotatedTrace>, ConfigError> {
        let len = request.len as usize;
        let key = AnnotationKey {
            trace_key: request.key(),
            len,
            cache,
            predictor,
        };
        let hash = key.hash();
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = buckets.entry(hash).or_default();
        if let Some((_, notes)) = bucket.iter().find(|(k, _)| k == &key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_counter.inc();
            return Ok(Arc::clone(notes));
        }
        // Generation and annotation happen under the lock: concurrent
        // requests for the same annotation must never duplicate the work.
        let stream =
            TraceGenerator::with_telemetry(request.model, request.seed, &self.telemetry).take(len);
        let notes = Arc::new(annotate_stream(stream, cache, predictor)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.instructions.fetch_add(request.len, Ordering::Relaxed);
        self.miss_counter.inc();
        self.annotated_counter.add(request.len);
        bucket.push((key, Arc::clone(&notes)));
        Ok(notes)
    }

    /// A point-in-time snapshot of every resident annotation, in
    /// deterministic bucket-hash order — the export path for a
    /// persistent store. Does not touch the service counters.
    pub fn export(&self) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
        let buckets = self
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        buckets
            .values()
            .flat_map(|bucket| bucket.iter().map(|(key, notes)| (*key, Arc::clone(notes))))
            .collect()
    }

    /// Installs an annotation computed by a previous run (a warm-store
    /// load). Counter-neutral: seeding is not a service request, so the
    /// hit/miss statistics stay exactly what this process's own requests
    /// produce. Returns whether the annotation was actually installed
    /// (false when an equal key was already resident).
    pub fn seed(&self, key: AnnotationKey, notes: Arc<AnnotatedTrace>) -> bool {
        let hash = key.hash();
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = buckets.entry(hash).or_default();
        if bucket.iter().any(|(k, _)| k == &key) {
            return false;
        }
        bucket.push((key, notes));
        true
    }

    /// Number of distinct annotations resident.
    pub fn len(&self) -> usize {
        self.buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// True when nothing has been annotated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current service counters.
    pub fn stats(&self) -> AnnotateStats {
        AnnotateStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            instructions_annotated: self.instructions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use pipedepth_trace::{TraceGenerator, WorkloadModel};

    fn sample_trace(n: usize) -> Vec<Instruction> {
        TraceGenerator::new(WorkloadModel::spec_int_like(), 42).take_vec(n)
    }

    fn sample_request(len: u64) -> TraceRequest {
        TraceRequest {
            model: WorkloadModel::spec_int_like(),
            seed: 42,
            len,
        }
    }

    #[test]
    fn annotation_is_deterministic_and_sized() {
        let trace = sample_trace(2_000);
        let cfg = SimConfig::paper(8);
        let a = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        let b = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        assert_eq!(a, b);
        assert_eq!(a.len(), 2_000);
        assert!(!a.is_empty());
        assert_eq!(a.bytes(), 16_000);
    }

    #[test]
    fn annotation_is_depth_independent_inputs_only() {
        // The annotation takes no depth at all — but the same cache and
        // predictor configs at different prefetch settings must differ.
        let trace = sample_trace(2_000);
        let cfg = SimConfig::paper(8);
        let mut no_prefetch = cfg.cache;
        no_prefetch.prefetch = false;
        let a = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        let b = annotate(&trace, no_prefetch, cfg.predictor).expect("valid config");
        assert_ne!(a, b, "prefetch changes the miss classes");
        assert_ne!(
            annotation_fingerprint(&cfg.cache, &cfg.predictor),
            annotation_fingerprint(&no_prefetch, &cfg.predictor)
        );
    }

    #[test]
    fn branch_outcomes_match_a_fresh_predictor() {
        let trace = sample_trace(3_000);
        let cfg = SimConfig::paper(8);
        let notes = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        let mut bp = Gshare::try_new(cfg.predictor).expect("valid config");
        for (instr, &b) in trace.iter().zip(&notes.branch) {
            if instr.class == OpClass::Branch {
                let hit = bp.observe(instr.pc, instr.is_taken_branch());
                assert_eq!(b, if hit { 1 } else { 2 });
            } else {
                assert_eq!(b, 0);
            }
        }
    }

    #[test]
    fn disabled_icache_annotates_no_fetches() {
        let trace = sample_trace(1_000);
        let cfg = SimConfig::paper(8);
        let mut cache = cfg.cache;
        cache.l1i_bytes = 0;
        let notes = annotate(&trace, cache, cfg.predictor).expect("valid config");
        assert!(notes.fetch.iter().all(|&f| f == 0));
    }

    #[test]
    fn store_annotates_once_and_shares() {
        let cfg = SimConfig::paper(8);
        let store = AnnotationStore::new();
        let a = store
            .get_or_annotate(sample_request(1_500), cfg.cache, cfg.predictor)
            .expect("valid config");
        let b = store
            .get_or_annotate(sample_request(1_500), cfg.cache, cfg.predictor)
            .expect("valid config");
        assert!(Arc::ptr_eq(&a, &b));
        // The store's pass equals `annotate` over the materialised stream.
        let trace = sample_trace(1_500);
        assert_eq!(
            *a,
            annotate(&trace, cfg.cache, cfg.predictor).expect("valid config")
        );
        assert_eq!(store.len(), 1);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.instructions_annotated, 1_500);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // A different cache config is a different annotation.
        let mut other = cfg.cache;
        other.prefetch = false;
        store
            .get_or_annotate(sample_request(1_500), other, cfg.predictor)
            .expect("valid config");
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn store_telemetry_mirrors_stats() {
        let telemetry = Telemetry::new();
        let mut store = AnnotationStore::new();
        store.attach_telemetry(&telemetry);
        let cfg = SimConfig::paper(8);
        store
            .get_or_annotate(sample_request(600), cfg.cache, cfg.predictor)
            .expect("valid config");
        store
            .get_or_annotate(sample_request(600), cfg.cache, cfg.predictor)
            .expect("valid config");
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("trace.annotate.hits"), 1);
        assert_eq!(snap.counter("trace.annotate.misses"), 1);
        assert_eq!(snap.counter("trace.annotate.instructions_annotated"), 600);
        // The miss generated the stream once; the hit created no generator.
        assert_eq!(snap.counter("trace.generators_created"), 1);
        assert_eq!(snap.counter("trace.instructions_generated"), 600);
    }
}
