//! The traced decomposition measures the same program: the layer-by-layer
//! composition of a sweep reproduces the runner bit for bit, and the
//! in-process serve pass answers exactly what the HTTP server sends.

use perfbench::load::{exchange, post, sweep_request, Script};
use perfbench::repro_layers::compose_sweep;
use perfbench::serve_layers::{service_config, ServePass};
use perfbench::spans::Spans;
use pipedepth_experiments::runner::{Runner, SimCache};
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_serve::Server;
use pipedepth_telemetry::Telemetry;
use pipedepth_workloads::representatives;
use std::sync::Arc;
use std::thread;

fn tiny() -> RunConfig {
    RunConfig {
        warmup: 2_000,
        instructions: 4_000,
        depths: vec![4, 8, 12],
        ..RunConfig::default()
    }
}

#[test]
fn composed_sweep_matches_the_runner_bit_for_bit() {
    let (ws, cfg) = (representatives(), tiny());
    let mut spans = Spans::default();
    let composed = compose_sweep(&ws, &cfg, &Telemetry::disabled(), &mut spans);

    let runner = Runner::serial();
    let curves = runner.sweep_all(&ws, &cfg);
    let reports = runner.export_reports();
    assert_eq!(reports.len(), composed.reports.len());
    for (spec, report) in &composed.reports {
        let (_, theirs) = reports
            .iter()
            .find(|(s, _)| s == spec)
            .expect("the runner swept the same cells");
        assert_eq!(**theirs, **report, "depth {}", spec.sim.depth);
    }
    let annotations = runner.export_annotations();
    assert_eq!(annotations.len(), composed.annotations.len());
    for (key, notes) in &composed.annotations {
        let (_, theirs) = annotations
            .iter()
            .find(|(k, _)| k == key)
            .expect("the runner keyed the same annotation");
        assert_eq!(**theirs, **notes);
    }

    // Handed to a fresh runner as a warm tier, the composition yields the
    // same curves the runner computed itself.
    let image = SimCache::new();
    for (spec, report) in &composed.reports {
        image.insert(spec.key(), *spec, Arc::clone(report));
    }
    let warm = Runner::serial().with_warm_reports(image);
    warm.seed_annotations(composed.annotations.clone());
    assert_eq!(warm.sweep_all(&ws, &cfg), curves);

    assert_eq!(spans.get("trace.arena.streams"), ws.len() as f64);
    assert_eq!(
        spans.get("sim.replay.lanes"),
        (ws.len() * cfg.depths.len()) as f64
    );
    assert!(spans.us("sim.replay") > 0.0 && spans.us("sim.annotate") > 0.0);
}

#[test]
fn traced_serve_pass_returns_the_bodies_the_server_sends() {
    let server = Server::bind("127.0.0.1:0", service_config(), Telemetry::new()).expect("bind");
    let addr = server.local_addr().expect("bound address");
    let handle = thread::spawn(move || server.run());

    let hot = Script::new(9);
    let requests: Vec<Vec<u8>> = (0..2)
        .map(|i| sweep_request(9, i))
        .chain(hot.prewarm())
        .chain((0..24).map(|i| hot.request(i)))
        .collect();
    let pass = ServePass::new().expect("in-process service");
    let mut spans = Spans::default();
    for raw in &requests {
        let http = exchange(addr, raw).expect("server answers");
        let (status, body) = pass.handle(raw, &mut spans).expect("pass answers");
        assert_eq!((http.status, status), (200, 200));
        assert_eq!(http.body, body);
    }
    assert_eq!(spans.get("serve.requests"), requests.len() as f64);
    assert!(spans.us("serve.dispatch") > 0.0, "sweeps dispatch");
    assert!(spans.us("serve.http.parse") > 0.0);

    let reply = exchange(addr, &post("/v1/shutdown", "")).expect("shutdown");
    assert_eq!(reply.status, 200);
    handle.join().expect("server drains");
}
