//! Order statistics and the result line every run ends with.

use pipedepth_telemetry::json::number;
use std::fmt::Write as _;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `xs` (the mean of the two middle values for an even count);
/// 0 for no values.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Splits a `duration_s`-second load into `n` equal back-to-back windows
/// and returns the latencies of the operations that completed in each.
/// `ops` holds `(completion time since the load started, latency)`.
pub fn windows(ops: &[(f64, f64)], duration_s: f64, n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n.max(1)];
    let span = duration_s / out.len() as f64;
    for &(done, latency) in ops {
        let i = ((done / span) as usize).min(out.len() - 1);
        out[i].push(latency);
    }
    out
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, in tenths of a percent.
const TAIL_PERMILLE: [u64; 4] = [999, 990, 950, 900];

/// A reported tail: the highest of p99.9, p99, p95 and p90 that still has
/// [`TAIL_MIN_BEYOND`] samples beyond it, or the median when none has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (50 when no tail percentile qualified).
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The reported tail of `xs`; `None` for no values.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len() as u64;
    if n == 0 {
        return None;
    }
    let at = |permille: u64| {
        // Nearest rank, in integers so p99 of 1000 samples is rank 990.
        let rank = (permille * n).div_ceil(1000).clamp(1, n);
        Tail {
            percentile: permille as f64 / 10.0,
            value: s[(rank - 1) as usize],
            beyond: (n - rank) as usize,
        }
    };
    Some(
        TAIL_PERMILLE
            .iter()
            .map(|&p| at(p))
            .find(|t| t.beyond >= TAIL_MIN_BEYOND)
            .unwrap_or_else(|| at(500)),
    )
}

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// `num / den`, or 0 when `den` is not positive, so a metric over an empty
/// layer stays a finite number.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric as `{"value": v, "unit": u}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_serve::json::{parse, Json};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_group_operations_by_completion_time() {
        let ops = [(0.1, 1.0), (0.9, 2.0), (1.5, 3.0), (2.9, 4.0), (3.05, 5.0)];
        let got = windows(&ops, 3.0, 3);
        // A completion just past the end (the last exchange finishing)
        // belongs to the last window.
        assert_eq!(got, vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]]);
        assert_eq!(windows(&ops, 3.0, 0).len(), 1);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("samples");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // One sample fewer and p99 has only nine beyond it: fall to p95.
        let t = tail(&xs[..999]).expect("samples");
        assert_eq!((t.percentile, t.beyond), (95.0, 49));
        // p99.9 needs 10 000 samples.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&big).expect("samples");
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_for_few_samples() {
        let t = tail(&[5.0, 1.0, 3.0]).expect("samples");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 3.0, 1));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&xs).expect("samples");
        assert_eq!(t.percentile, 50.0, "p90 of 99 has only 9 beyond");
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn result_line_round_trips_through_a_json_parser() {
        let metrics = [
            Metric {
                name: "latency_p50_ms",
                value: 1.203_4,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 0.812_7,
                unit: "s",
            },
        ];
        let line = result_line(true, 1000, 0, &metrics);
        let doc = parse(&line).expect("the result line is JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1000));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let got = doc.get("metrics").expect("metrics object");
        for m in &metrics {
            let entry = got.get(m.name).expect("metric present");
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(m.value));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        }
        match got {
            Json::Object(fields) => assert_eq!(fields.len(), metrics.len()),
            other => panic!("metrics must be an object, got {other:?}"),
        }
    }

    #[test]
    fn ratio_guards_empty_denominators() {
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
