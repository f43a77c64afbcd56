//! Lightweight metrics for the `pipedepth` simulation stack.
//!
//! The crate provides a [`Telemetry`] handle fronting a small metrics
//! registry — monotonic [`Counter`]s, [`Gauge`]s, fixed-bucket
//! [`Histogram`]s — plus span-style scoped timers ([`Span`]). The hot
//! layers of the workspace (the timing engine, the trace generator, the
//! cell runner) accept a handle and record into it; the `repro` driver
//! snapshots the registry into `results/manifest.json`.
//!
//! Telemetry switches off at run time: [`Telemetry::disabled`] returns a
//! handle with no registry behind it, and every recording call through it
//! is a single predictable branch. Layers flush *aggregate* counts once
//! per simulation run, so even an enabled handle costs a handful of
//! atomic adds per cell, not per instruction.
//!
//! Counters aggregate with relaxed atomic adds, which are commutative, so
//! counter snapshots are **deterministic for any thread count**. Timing
//! metrics (histograms, gauges) are wall-clock-dependent; by convention
//! their names end in `_us` so consumers (the golden-manifest test) can
//! mask them.
//!
//! Metric names form a workspace-wide contract: every name emitted in
//! non-test code must be declared in the top-level
//! `telemetry.registry.toml` with its instrument kind and owning crate.
//! The `telemetry-contract` rule in `pipedepth-analysis` fails the lint
//! gate on drift in either direction; regenerate a registry draft with
//! `cargo run -p pipedepth-analysis -- metrics`.
//!
//! # Examples
//!
//! ```
//! use pipedepth_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! telemetry.counter("sim.instructions").add(1_000);
//! {
//!     let _span = telemetry.span("phase.sweep_us");
//!     // ... timed work ...
//! }
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counter("sim.instructions"), 1_000);
//! ```

pub mod json;

mod capture;
pub use capture::{Counter, Gauge, Histogram, Span, Telemetry};

/// A wall-clock stopwatch for phase and cell timing.
///
/// This is the workspace's only sanctioned clock outside the `repro`
/// driver: the determinism lint (`pipedepth-analysis`) forbids
/// `std::time::Instant` in every other crate, so all wall-time
/// measurements are routed through here and named `*_us` where they land
/// in metrics — which lets artifact comparisons mask them uniformly.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Microseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_us(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e6
    }
}

/// Default bucket upper bounds, in microseconds, for span/timing
/// histograms (an implicit `+inf` bucket follows the last bound).
pub const DEFAULT_TIME_BUCKETS_US: [f64; 12] = [
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    1_000_000.0,
];

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter(u64),
    /// A last-write-wins gauge.
    Gauge(f64),
    /// A fixed-bucket histogram.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The metric kind as a stable lowercase tag.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    /// Renders the value as a single-line JSON object.
    pub fn to_json(&self) -> String {
        match self {
            MetricValue::Counter(v) => format!("{{\"type\": \"counter\", \"value\": {v}}}"),
            MetricValue::Gauge(v) => {
                format!("{{\"type\": \"gauge\", \"value\": {}}}", json::number(*v))
            }
            MetricValue::Histogram(h) => h.to_json(),
        }
    }
}

/// A histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds; a final `+inf` bucket is implicit.
    pub bounds: Vec<f64>,
    /// Observation counts per bucket (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (`None` when empty).
    pub min: Option<f64>,
    /// Largest observed value (`None` when empty).
    pub max: Option<f64>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) from the bucket counts:
    /// the upper bound of the bucket holding the target observation,
    /// clamped to the observed extremes. Observations landing in the
    /// implicit overflow bucket estimate as the largest observed value.
    /// `None` when the histogram is empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // The rank of the target observation, 1-based: q = 0 maps to the
        // first observation, q = 1 to the last.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let estimate = match self.bounds.get(i) {
                    Some(&bound) => bound,
                    // Overflow bucket: all we know is "above the last
                    // bound"; the observed max is the tightest estimate.
                    None => self.max?,
                };
                let lo = self.min.unwrap_or(estimate);
                let hi = self.max.unwrap_or(estimate);
                return Some(estimate.clamp(lo, hi));
            }
        }
        self.max
    }

    /// Renders the histogram as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let bounds: Vec<String> = self.bounds.iter().map(|&b| json::number(b)).collect();
        let buckets: Vec<String> = self.buckets.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"bounds\": [{}], \"buckets\": [{}]}}",
            self.count,
            json::number(self.sum),
            self.min.map_or_else(|| "null".to_string(), json::number),
            self.max.map_or_else(|| "null".to_string(), json::number),
            bounds.join(", "),
            buckets.join(", "),
        )
    }
}

/// One named metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered metric name, e.g. `sim.instructions`.
    pub name: String,
    /// The metric's value.
    pub value: MetricValue,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The metrics, in ascending name order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// A counter's value (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A gauge's value, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's state, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_value_kinds() {
        assert_eq!(MetricValue::Counter(1).kind(), "counter");
        assert_eq!(MetricValue::Gauge(0.5).kind(), "gauge");
    }

    #[test]
    fn counter_json_shape() {
        assert_eq!(
            MetricValue::Counter(7).to_json(),
            "{\"type\": \"counter\", \"value\": 7}"
        );
    }

    #[test]
    fn empty_histogram_snapshot_json_uses_null() {
        let h = HistogramSnapshot {
            bounds: vec![1.0],
            buckets: vec![0, 0],
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        };
        assert_eq!(h.mean(), 0.0);
        assert!(h.to_json().contains("\"min\": null"));
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
    }

    #[test]
    fn quantiles_estimate_from_bucket_bounds() {
        // 10 observations: 4 in (..=10], 4 in (10..=100], 2 overflow.
        let h = HistogramSnapshot {
            bounds: vec![10.0, 100.0],
            buckets: vec![4, 4, 2],
            count: 10,
            sum: 500.0,
            min: Some(2.0),
            max: Some(400.0),
        };
        assert_eq!(h.quantile(0.0), Some(10.0), "q=0 lands in the first bucket");
        assert_eq!(h.quantile(0.4), Some(10.0));
        assert_eq!(h.quantile(0.5), Some(100.0));
        assert_eq!(h.quantile(0.8), Some(100.0));
        assert_eq!(h.quantile(0.99), Some(400.0), "overflow estimates as max");
        assert_eq!(h.quantile(1.0), Some(400.0));
        assert_eq!(h.quantile(1.5), None, "out-of-range q");
        assert_eq!(h.quantile(-0.1), None);
    }

    #[test]
    fn quantile_is_clamped_to_observed_extremes() {
        // All observations in one bucket whose bound (1000) far exceeds
        // anything observed: the estimate must not exceed the max.
        let h = HistogramSnapshot {
            bounds: vec![1000.0],
            buckets: vec![5, 0],
            count: 5,
            sum: 15.0,
            min: Some(1.0),
            max: Some(5.0),
        };
        assert_eq!(h.quantile(0.5), Some(5.0));
    }

    #[test]
    fn snapshot_lookups() {
        let snap = Snapshot {
            metrics: vec![
                MetricSnapshot {
                    name: "a".into(),
                    value: MetricValue::Counter(3),
                },
                MetricSnapshot {
                    name: "b".into(),
                    value: MetricValue::Gauge(0.25),
                },
            ],
        };
        assert_eq!(snap.counter("a"), 3);
        assert_eq!(snap.counter("b"), 0, "gauge is not a counter");
        assert_eq!(snap.gauge("b"), Some(0.25));
        assert!(snap.histogram("a").is_none());
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
    }
}
