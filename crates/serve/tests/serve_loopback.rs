//! Loopback integration tests: a real server on an ephemeral port, real
//! sockets, concurrent clients.
//!
//! These pin the service-level guarantees the unit tests cannot:
//! coalescing observed end to end through `/metrics`, deterministic
//! response bodies under concurrency, deadline degradation over the wire,
//! backpressure as a real 429, a bounded pool of reused connection
//! handlers, and a graceful shutdown that drains in-flight work and yields
//! the final stats line.

use pipedepth_experiments::sweep::RunConfig;
use pipedepth_serve::json::{parse, Json};
use pipedepth_serve::server::MAX_HANDLERS;
use pipedepth_serve::service::ServiceConfig;
use pipedepth_serve::Server;
use pipedepth_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Every test takes this shared, except the one that counts the process's
/// threads, which takes it alone: no other test's threads start while it
/// counts.
static THREADS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    THREADS.read().unwrap_or_else(PoisonError::into_inner)
}

fn alone() -> RwLockWriteGuard<'static, ()> {
    THREADS.write().unwrap_or_else(PoisonError::into_inner)
}

/// A fast-simulating service configuration for tests.
fn quick() -> ServiceConfig {
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

/// Binds an ephemeral-port server and runs it on a background thread.
fn start(config: ServiceConfig) -> (SocketAddr, thread::JoinHandle<String>) {
    let server = Server::bind("127.0.0.1:0", config, Telemetry::new()).expect("bind :0");
    let addr = server.local_addr().expect("bound address");
    (addr, thread::spawn(move || server.run()))
}

/// Shuts the server down and returns its final stats line.
fn stop(addr: SocketAddr, handle: thread::JoinHandle<String>) -> String {
    let (status, _, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200, "shutdown acknowledged");
    handle.join().expect("server thread exits")
}

/// One HTTP exchange: returns (status, raw headers, body).
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    split_response(&response)
}

/// Splits a raw response into (status, raw headers, body).
fn split_response(response: &str) -> (u16, String, String) {
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

/// A counter's value out of the `/metrics` JSON body.
fn metric_counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, _, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    parse(&body)
        .expect("metrics are valid JSON")
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn concurrent_identical_requests_coalesce_and_agree() {
    let _threads = shared();
    let (addr, handle) = start(quick());
    let body = r#"{"schema_version": 1, "backend": "sim", "cells": [
        {"workload": "legacy-00", "depth": 8},
        {"workload": "legacy-00", "depth": 10},
        {"workload": "legacy-00", "depth": 12}
    ]}"#;
    let clients = 6;
    let responses: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let (status, _, body) = request(addr, "POST", "/v1/evaluate", body);
                    assert_eq!(status, 200);
                    body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    // Determinism over the wire: every client saw the same bytes.
    for r in &responses[1..] {
        assert_eq!(r, &responses[0], "responses must be byte-identical");
    }
    let doc = parse(&responses[0]).expect("valid JSON");
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert_eq!(results.len(), 3);
    for r in results {
        assert_eq!(r.get("backend").and_then(Json::as_str), Some("sim"));
        assert_eq!(r.get("degraded").and_then(Json::as_bool), Some(false));
        let throughput = r
            .get("outcome")
            .and_then(|o| o.get("throughput"))
            .and_then(Json::as_f64)
            .expect("outcome present");
        assert!(throughput > 0.0);
    }
    // Coalescing observed end to end: 6 clients × 3 cells = 18 requested,
    // but the backend saw each distinct cell at most once per flight.
    let requested = metric_counter(addr, "serve.cells_requested");
    let dispatched = metric_counter(addr, "serve.dispatch_cells");
    assert_eq!(requested, (clients * 3) as u64);
    assert!(
        dispatched <= 3,
        "only 3 distinct cells exist, backend saw {dispatched}"
    );
    assert!(
        dispatched < requested,
        "coalescing must shrink the dispatch"
    );
    let stats = stop(addr, handle);
    assert!(stats.contains("coalesced"), "stats line: {stats}");
}

#[test]
fn zero_deadline_degrades_auto_over_the_wire() {
    let _threads = shared();
    let (addr, handle) = start(quick());
    let body = r#"{"backend": "auto", "deadline_ms": 0, "cells": [
        {"workload": "fp-00", "depth": 9}
    ]}"#;
    let (status, _, response) = request(addr, "POST", "/v1/evaluate", body);
    assert_eq!(status, 200);
    let doc = parse(&response).expect("valid JSON");
    let result = &doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results")[0];
    assert_eq!(result.get("backend").and_then(Json::as_str), Some("model"));
    assert_eq!(
        result.get("degraded").and_then(Json::as_bool),
        Some(true),
        "a zero budget must degrade auto to the analytic model"
    );
    assert!(
        result.get("outcome").is_some(),
        "degraded is still answered"
    );
    // The same request on `sim` misses its deadline instead of degrading.
    let body = r#"{"backend": "sim", "deadline_ms": 0, "cells": [
        {"workload": "fp-00", "depth": 17}
    ]}"#;
    let (status, _, response) = request(addr, "POST", "/v1/evaluate", body);
    assert_eq!(status, 200);
    let doc = parse(&response).expect("valid JSON");
    let result = &doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results")[0];
    assert_eq!(
        result
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    // Shutdown drains the cell that missed its deadline — run() must not
    // hang on it.
    let stats = stop(addr, handle);
    assert!(stats.contains("requests"), "stats line: {stats}");
}

#[test]
fn full_queue_sheds_with_retry_after() {
    let _threads = shared();
    let (addr, handle) = start(ServiceConfig {
        queue_cap: 0,
        ..quick()
    });
    let body = r#"{"backend": "sim", "cells": [{"workload": "modern-00", "depth": 8}]}"#;
    let (status, head, response) = request(addr, "POST", "/v1/evaluate", body);
    assert_eq!(status, 429);
    assert!(head.contains("Retry-After: 1"), "headers: {head}");
    let doc = parse(&response).expect("valid JSON");
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("overloaded")
    );
    // The model path does not queue, so it still answers under overload.
    let body = r#"{"backend": "model", "cells": [{"workload": "modern-00", "depth": 8}]}"#;
    let (status, _, _) = request(addr, "POST", "/v1/evaluate", body);
    assert_eq!(status, 200, "analytic requests bypass admission control");
    stop(addr, handle);
}

#[test]
fn health_metrics_optimum_and_errors() {
    let _threads = shared();
    let (addr, handle) = start(quick());
    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"status\": \"ok\"}"));
    let (status, _, body) = request(addr, "GET", "/v1/optimum?workload=specint-00&m=3", "");
    assert_eq!(status, 200);
    let doc = parse(&body).expect("valid JSON");
    let optimum = doc
        .get("optimum_depth")
        .and_then(Json::as_u64)
        .expect("depth");
    let perf = doc
        .get("perf_only_depth")
        .and_then(Json::as_u64)
        .expect("perf depth");
    assert!(
        optimum >= 2 && optimum < perf,
        "optimum {optimum}, perf {perf}"
    );
    // Error surface: bad routes, methods, bodies and versions.
    let (status, _, _) = request(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(addr, "GET", "/v1/evaluate", "");
    assert_eq!(status, 405);
    let (status, _, _) = request(addr, "GET", "/v1/optimum", "");
    assert_eq!(status, 400, "missing workload parameter");
    let (status, _, body) = request(addr, "POST", "/v1/evaluate", "{not json");
    assert_eq!(status, 400);
    assert!(body.contains("invalid_request"), "{body}");
    let (status, _, body) = request(
        addr,
        "POST",
        "/v1/evaluate",
        r#"{"schema_version": 7, "cells": [{"workload": "w", "depth": 4}]}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("unsupported_version"), "{body}");
    stop(addr, handle);
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let _threads = shared();
    let (addr, handle) = start(quick());
    // A request that takes real simulation time…
    let client = thread::spawn(move || {
        let body = r#"{"backend": "sim", "cells": [
            {"workload": "specint-02", "depth": 14},
            {"workload": "specint-02", "depth": 18}
        ]}"#;
        request(addr, "POST", "/v1/evaluate", body)
    });
    // …known to be in flight (its `serve.requests` tick is visible) when
    // shutdown arrives: the drain must still answer it with real outcomes.
    for _ in 0..400 {
        if metric_counter(addr, "serve.requests") >= 1 {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(5));
    }
    let stats = stop(addr, handle);
    let (status, _, body) = client.join().expect("client thread");
    assert_eq!(status, 200, "in-flight request answered during drain");
    let doc = parse(&body).expect("valid JSON");
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert_eq!(results.len(), 2);
    for r in results {
        assert!(r.get("outcome").is_some(), "drained, not dropped: {body}");
    }
    assert!(stats.starts_with("serve: "), "stats line: {stats}");
}

#[test]
fn sequential_requests_reuse_one_handler() {
    let _threads = shared();
    let (addr, handle) = start(quick());
    for _ in 0..200 {
        let (status, _, _) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    }
    // A handler frees its slot before it closes the connection, so a
    // client that reconnects on EOF always finds a handler free.
    assert_eq!(metric_counter(addr, "serve.http.handlers_started"), 1);
    assert_eq!(metric_counter(addr, "serve.http.rejected"), 0);
    stop(addr, handle);
}

/// A `GET` that reads the head and exactly `Content-Length` body bytes,
/// then hangs up without waiting for EOF. Returns the status.
fn get_to_content_length(addr: SocketAddr, target: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let raw = format!("GET {target} HTTP/1.1\r\nHost: loopback\r\n\r\n");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "EOF before the whole response");
        response.extend_from_slice(&chunk[..n]);
        let text = std::str::from_utf8(&response).expect("UTF-8 response");
        if let Some((head, body)) = text.split_once("\r\n\r\n") {
            let length: usize = head
                .lines()
                .find_map(|line| line.strip_prefix("Content-Length: "))
                .and_then(|value| value.parse().ok())
                .expect("Content-Length");
            if body.len() >= length {
                return split_response(text).0;
            }
        }
    }
}

#[test]
fn clients_that_reconnect_on_content_length_reuse_the_pool() {
    let _threads = shared();
    let (addr, handle) = start(quick());
    for _ in 0..200 {
        assert_eq!(get_to_content_length(addr, "/healthz"), 200);
    }
    // A handler frees its slot only once its write has returned, so a
    // client that reconnects as soon as it has read the response finds
    // every handler busy whenever each one is descheduled between its
    // write and its release; that starts a handler now and then (at most
    // 5 in runs beside four CPU-bound processes on two vCPUs), never one
    // per request.
    let started = metric_counter(addr, "serve.http.handlers_started");
    assert!(
        started <= 20,
        "{started} handlers for 200 sequential requests"
    );
    assert_eq!(metric_counter(addr, "serve.http.rejected"), 0);
    stop(addr, handle);
}

/// A `model` request of `cells` cells: the service answers it inline,
/// about 630 response bytes per cell.
fn model_request(cells: usize) -> String {
    let cells: Vec<String> = (0..cells)
        .map(|i| format!(r#"{{"workload":"legacy-00","depth":{}}}"#, 2 + i % 28))
        .collect();
    let body = format!(
        r#"{{"schema_version":1,"backend":"model","cells":[{}]}}"#,
        cells.join(",")
    );
    format!(
        "POST /v1/evaluate HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Sends a 14,000-cell `model` request (a 9 MB answer, more than
/// loopback's socket buffers hold) and waits until the answer starts, so
/// the handler is blocked in its write. The client never reads.
fn stall(addr: SocketAddr) -> TcpStream {
    let mut client = TcpStream::connect(addr).expect("connect");
    client
        .write_all(model_request(14_000).as_bytes())
        .expect("send");
    client.peek(&mut [0u8; 1]).expect("response starts");
    client
}

#[test]
fn clients_that_never_read_block_no_one() {
    let _threads = shared();
    let (addr, handle) = start(quick());
    // Two clients ask for about 9 MB each and never read it, so each
    // handler blocks in its write.
    let stalled = [stall(addr), stall(addr)];
    // A handler blocked in its write still counts as serving, so the
    // claims of the two stalled connections kept a thread accepting.
    let mut probe = TcpStream::connect(addr).expect("connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: loopback\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    probe
        .read_to_string(&mut response)
        .expect("a free handler answers while two are blocked");
    assert_eq!(split_response(&response).0, 200, "{response}");
    let (status, _, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200, "shutdown acknowledged");
    // The blocked writes end when their clients hang up, or at the write
    // deadline; then the pool drains.
    drop(stalled);
    let stats = handle.join().expect("server thread exits");
    assert!(stats.starts_with("serve: "), "stats line: {stats}");
}

#[test]
fn clients_that_never_read_are_dropped_at_the_write_deadline() {
    let _threads = shared();
    let (addr, handle) = start(quick());
    let stalled = [stall(addr), stall(addr)];
    // The shutdown's answer and the server's return are awaited on
    // channels, so a server that never returns fails the test instead of
    // hanging it.
    let budget = Duration::from_secs(15);
    let started = Instant::now();
    let (answered, shutdown) = mpsc::channel();
    let requester = thread::spawn(move || {
        let _ = answered.send(request(addr, "POST", "/v1/shutdown", "").0);
    });
    let (joined, server) = mpsc::channel();
    let joiner = thread::spawn(move || {
        let _ = joined.send(handle.join());
    });
    let status = shutdown.recv_timeout(budget);
    let returned = server.recv_timeout(budget.saturating_sub(started.elapsed()));
    // Both clients still hold their sockets: each handler must have given
    // up on its write at the deadline and freed its slot.
    drop(stalled);
    assert_eq!(status, Ok(200), "shutdown answered within {budget:?}");
    let stats = returned
        .expect("the server returns while its clients hold their sockets")
        .expect("server thread exits");
    assert!(stats.starts_with("serve: "), "stats line: {stats}");
    requester.join().expect("shutdown client");
    joiner.join().expect("server joiner");
}

#[test]
fn idle_clients_below_the_cap_block_no_one() {
    let _threads = shared();
    let (addr, handle) = start(quick());
    let idle: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // One thread is always accepting, so the idle clients delay no one.
    assert_eq!(request(addr, "GET", "/healthz", "").0, 200);
    let started = metric_counter(addr, "serve.http.handlers_started");
    assert!(started <= 9, "{started} handlers for 8 idle clients");
    for mut client in idle {
        client.shutdown(Shutdown::Write).expect("hang up");
        let mut response = String::new();
        client.read_to_string(&mut response).expect("read");
        assert_eq!(split_response(&response).0, 400, "{response}");
    }
    let stats = stop(addr, handle);
    assert!(stats.starts_with("serve: "), "stats line: {stats}");
}

/// Threads of this process.
#[cfg(target_os = "linux")]
fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn idle_connections_beyond_the_cap_get_503() {
    let _threads = alone();
    let (addr, handle) = start(quick());
    // One exchange: the server thread, its dispatcher and a first handler
    // are up.
    assert_eq!(request(addr, "GET", "/healthz", "").0, 200);
    #[cfg(target_os = "linux")]
    let before = task_count();
    // Idle clients that send nothing take every handler…
    let idle: Vec<TcpStream> = (0..MAX_HANDLERS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // …so the accepting handler answers the next ones itself, unread.
    let extra = 4;
    for _ in 0..extra {
        let mut client = TcpStream::connect(addr).expect("connect");
        let mut response = String::new();
        client.read_to_string(&mut response).expect("read");
        let (status, head, body) = split_response(&response);
        assert_eq!(status, 503, "{response}");
        assert!(head.contains("Retry-After: 1"), "headers: {head}");
        let doc = parse(&body).expect("valid JSON");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
    }
    #[cfg(target_os = "linux")]
    {
        let grown = task_count().saturating_sub(before);
        assert!(
            grown <= MAX_HANDLERS + 1,
            "{grown} new threads for {} connections",
            MAX_HANDLERS + extra
        );
    }
    // The idle clients hang up. Each handler answers its client's EOF and
    // frees its slot before it closes the connection.
    for mut client in idle {
        client.shutdown(Shutdown::Write).expect("hang up");
        let mut rest = Vec::new();
        client.read_to_end(&mut rest).expect("read");
    }
    assert_eq!(request(addr, "GET", "/healthz", "").0, 200);
    assert_eq!(
        metric_counter(addr, "serve.http.handlers_started"),
        MAX_HANDLERS as u64
    );
    assert_eq!(metric_counter(addr, "serve.http.rejected"), extra as u64);
    let stats = stop(addr, handle);
    assert!(stats.starts_with("serve: "), "stats line: {stats}");
}
