//! The metrics registry and its recording handles.
//!
//! A [`Telemetry`] handle is a cheap clone of an `Arc`'d registry. Metric
//! handles ([`Counter`], [`Gauge`], [`Histogram`]) are resolved once by
//! name — paying one registry lock — and record lock-free afterwards via
//! relaxed atomics.

use crate::{HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot, DEFAULT_TIME_BUCKETS_US};
use std::collections::btree_map::Entry as MapEntry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The metric store: names to live metric cells, sorted so snapshots come
/// out in deterministic name order.
#[derive(Debug, Default)]
struct Registry {
    metrics: Mutex<BTreeMap<String, Entry>>,
}

#[derive(Debug, Clone)]
enum Entry {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// Handle to the metrics registry (or a no-op stand-in).
///
/// Cloning is cheap and every clone records into the same registry.
/// [`Telemetry::disabled`] (also the `Default`) has no registry at all:
/// recording through it is a single branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A fresh, empty, recording registry.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// A no-op handle: every recording call through it does nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) the monotonic counter `name`.
    ///
    /// If `name` is already registered as a different metric kind, the
    /// returned handle is disconnected and records nowhere.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(reg) = &self.inner else {
            return Counter(None);
        };
        let mut map = reg.metrics.lock().expect("telemetry registry lock");
        match map.entry(name.to_string()) {
            MapEntry::Occupied(e) => match e.get() {
                Entry::Counter(c) => Counter(Some(Arc::clone(c))),
                _ => Counter(None),
            },
            MapEntry::Vacant(v) => {
                let cell = Arc::new(AtomicU64::new(0));
                v.insert(Entry::Counter(Arc::clone(&cell)));
                Counter(Some(cell))
            }
        }
    }

    /// Resolves (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(reg) = &self.inner else {
            return Gauge(None);
        };
        let mut map = reg.metrics.lock().expect("telemetry registry lock");
        match map.entry(name.to_string()) {
            MapEntry::Occupied(e) => match e.get() {
                Entry::Gauge(g) => Gauge(Some(Arc::clone(g))),
                _ => Gauge(None),
            },
            MapEntry::Vacant(v) => {
                let cell = Arc::new(AtomicU64::new(0.0f64.to_bits()));
                v.insert(Entry::Gauge(Arc::clone(&cell)));
                Gauge(Some(cell))
            }
        }
    }

    /// Resolves (registering on first use) the fixed-bucket histogram
    /// `name`. The bounds are upper bucket edges, ascending; an implicit
    /// `+inf` bucket catches everything above the last bound. The bounds
    /// of the *first* registration win.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let Some(reg) = &self.inner else {
            return Histogram(None);
        };
        let mut map = reg.metrics.lock().expect("telemetry registry lock");
        match map.entry(name.to_string()) {
            MapEntry::Occupied(e) => match e.get() {
                Entry::Histogram(h) => Histogram(Some(Arc::clone(h))),
                _ => Histogram(None),
            },
            MapEntry::Vacant(v) => {
                let core = Arc::new(HistogramCore::new(bounds));
                v.insert(Entry::Histogram(Arc::clone(&core)));
                Histogram(Some(core))
            }
        }
    }

    /// Starts a scoped timer that records its elapsed time, in
    /// microseconds, into the histogram `name` when dropped. By convention
    /// span names end in `_us`.
    pub fn span(&self, name: &str) -> Span {
        if !self.is_enabled() {
            return Span { live: None };
        }
        Span {
            live: Some((
                self.histogram(name, &DEFAULT_TIME_BUCKETS_US),
                Instant::now(),
            )),
        }
    }

    /// Copies every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let Some(reg) = &self.inner else {
            return Snapshot::default();
        };
        let map = reg.metrics.lock().expect("telemetry registry lock");
        let metrics = map
            .iter()
            .map(|(name, entry)| MetricSnapshot {
                name: name.clone(),
                value: match entry {
                    Entry::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Entry::Gauge(g) => {
                        MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                    }
                    Entry::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        Snapshot { metrics }
    }
}

/// A monotonic counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Relaxed atomic add: commutative, so totals are
    /// deterministic for any thread interleaving.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disconnected handle).
    pub fn value(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-write-wins gauge handle (stores an `f64`).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disconnected handle).
    pub fn value(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistogramCore {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last catches values above every
    /// bound.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// `f64` bit patterns updated by CAS.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramCore {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    fn record(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| v > b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v < f64::from_bits(bits)).then(|| v.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: (count > 0).then(|| f64::from_bits(self.min_bits.load(Ordering::Relaxed))),
            max: (count > 0).then(|| f64::from_bits(self.max_bits.load(Ordering::Relaxed))),
        }
    }
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: f64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }
}

/// A scoped timer: created by [`Telemetry::span`], records its elapsed
/// microseconds into the named histogram when dropped.
#[derive(Debug)]
pub struct Span {
    live: Option<(Histogram, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((histogram, start)) = self.live.take() {
            histogram.record(start.elapsed().as_secs_f64() * 1e6);
        }
    }
}
