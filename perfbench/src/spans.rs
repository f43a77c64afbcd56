//! Per-layer time and counts of one traced run.

use std::collections::BTreeMap;
use std::time::Instant;

/// Busy time per layer, plus named counts, accumulated over a traced run.
///
/// Layer times are disjoint: each timed call is charged to exactly one
/// layer, so [`Spans::total_us`] is the traced time the layers cover.
/// Details (one figure spec inside `experiments.figures`) are kept apart
/// and never added to the total.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    layers: BTreeMap<&'static str, f64>,
    details: BTreeMap<String, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_us(layer, micros(start));
        out
    }

    /// Charges `us` microseconds to `layer`.
    pub fn add_us(&mut self, layer: &'static str, us: f64) {
        *self.layers.entry(layer).or_default() += us;
    }

    /// Records `us` microseconds under a detail name (not part of the total).
    pub fn add_detail_us(&mut self, name: &str, us: f64) {
        *self.details.entry(name.to_string()).or_default() += us;
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Time charged to `layer` so far, in microseconds.
    pub fn us(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0)
    }

    /// Time recorded under the detail `name`, in microseconds.
    pub fn detail_us(&self, name: &str) -> f64 {
        self.details.get(name).copied().unwrap_or(0.0)
    }

    /// The count `name` so far.
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Time charged to all layers together, in microseconds.
    pub fn total_us(&self) -> f64 {
        self.layers.values().sum()
    }
}

/// Microseconds elapsed since `start`.
pub fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}
