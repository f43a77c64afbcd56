//! Unit tests for the metrics registry: counter determinism across thread
//! interleavings, histogram bucketing, snapshot ordering, and the no-op
//! handle contract.

use pipedepth_telemetry::{MetricValue, Telemetry};

#[test]
fn counters_accumulate() {
    let t = Telemetry::new();
    let c = t.counter("a.count");
    c.inc();
    c.add(9);
    assert_eq!(c.value(), 10);
    assert_eq!(t.snapshot().counter("a.count"), 10);
}

#[test]
fn counter_totals_are_deterministic_across_threads() {
    // The same additions distributed over different worker counts must
    // produce identical totals — the property the golden-manifest test
    // relies on.
    let total_with_workers = |workers: usize| -> u64 {
        let t = Telemetry::new();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let c = t.counter("work.items");
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        if i % workers as u64 == w as u64 {
                            c.add(i);
                        }
                    }
                });
            }
        });
        t.snapshot().counter("work.items")
    };
    let serial = total_with_workers(1);
    assert_eq!(serial, (0..1000).sum::<u64>());
    assert_eq!(serial, total_with_workers(4));
    assert_eq!(serial, total_with_workers(7));
}

#[test]
fn gauge_is_last_write_wins() {
    let t = Telemetry::new();
    let g = t.gauge("util");
    g.set(0.5);
    g.set(0.75);
    assert_eq!(g.value(), 0.75);
    assert_eq!(t.snapshot().gauge("util"), Some(0.75));
}

#[test]
fn histogram_buckets_deterministically() {
    let t = Telemetry::new();
    let h = t.histogram("lat", &[1.0, 10.0, 100.0]);
    for v in [0.5, 1.0, 5.0, 10.0, 99.0, 100.0, 1000.0] {
        h.record(v);
    }
    let snap = t.snapshot();
    let hs = snap.histogram("lat").expect("registered");
    // Upper bounds are inclusive: 1.0 lands in the first bucket.
    assert_eq!(hs.bounds, vec![1.0, 10.0, 100.0]);
    assert_eq!(hs.buckets, vec![2, 2, 2, 1]);
    assert_eq!(hs.count, 7);
    assert_eq!(hs.min, Some(0.5));
    assert_eq!(hs.max, Some(1000.0));
    assert!((hs.sum - 1215.5).abs() < 1e-9);
    assert!((hs.mean() - 1215.5 / 7.0).abs() < 1e-9);
}

#[test]
fn histogram_bounds_are_sorted_and_deduped() {
    let t = Telemetry::new();
    t.histogram("h", &[10.0, 1.0, 10.0, f64::NAN]).record(5.0);
    let snap = t.snapshot();
    let hs = snap.histogram("h").expect("registered");
    assert_eq!(hs.bounds, vec![1.0, 10.0]);
    assert_eq!(hs.buckets, vec![0, 1, 0]);
}

#[test]
fn snapshot_is_sorted_by_name() {
    let t = Telemetry::new();
    t.counter("z.last").inc();
    t.counter("a.first").inc();
    t.gauge("m.middle").set(1.0);
    let snap = t.snapshot();
    let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, ["a.first", "m.middle", "z.last"]);
}

#[test]
fn snapshots_are_repeatable() {
    let t = Telemetry::new();
    t.counter("c").add(3);
    t.histogram("h", &[1.0]).record(0.5);
    assert_eq!(t.snapshot(), t.snapshot());
}

#[test]
fn clones_share_the_registry() {
    let t = Telemetry::new();
    let u = t.clone();
    u.counter("shared").add(2);
    t.counter("shared").add(3);
    assert_eq!(t.snapshot().counter("shared"), 5);
}

#[test]
fn kind_mismatch_yields_disconnected_handles() {
    let t = Telemetry::new();
    t.counter("name").add(4);
    // Re-registering the same name as a different kind must not clobber
    // the existing metric.
    t.gauge("name").set(9.0);
    t.histogram("name", &[1.0]).record(1.0);
    let snap = t.snapshot();
    assert_eq!(snap.counter("name"), 4);
    assert_eq!(snap.len(), 1);
}

#[test]
fn span_records_into_a_histogram() {
    let t = Telemetry::new();
    {
        let _span = t.span("phase.work_us");
    }
    let snap = t.snapshot();
    let hs = snap.histogram("phase.work_us").expect("span registered");
    assert_eq!(hs.count, 1);
    assert!(hs.min.expect("one sample") >= 0.0);
}

#[test]
fn disabled_handle_records_nothing() {
    let t = Telemetry::disabled();
    assert!(!t.is_enabled());
    t.counter("c").add(5);
    t.gauge("g").set(1.0);
    t.histogram("h", &[1.0]).record(1.0);
    drop(t.span("s_us"));
    assert!(t.snapshot().is_empty());
    assert_eq!(t.counter("c").value(), 0);
}

#[test]
fn default_is_disabled() {
    assert!(!Telemetry::default().is_enabled());
}

#[test]
fn json_rendering_is_stable() {
    let t = Telemetry::new();
    t.counter("c").add(2);
    let snap = t.snapshot();
    let MetricValue::Counter(v) = snap.get("c").expect("present") else {
        panic!("counter expected");
    };
    assert_eq!(*v, 2);
    assert_eq!(
        snap.get("c").expect("present").to_json(),
        "{\"type\": \"counter\", \"value\": 2}"
    );
}
