//! The HTTP server: socket lifecycle, routing, graceful shutdown.
//!
//! [`Server::bind`] opens the listener and builds the [`EvalService`];
//! [`Server::run`] blocks serving requests until `POST /v1/shutdown`,
//! then drains in the only safe order: stop accepting, join in-flight
//! connection handlers (so every admitted request gets its response),
//! close the batch queue (dispatch workers finish what was queued and
//! exit), join the workers, and return a final stats line for the
//! operator.
//!
//! Connections are thread-per-request with `Connection: close` — the
//! service's concurrency ceiling is the batch queue, not the socket
//! layer, so a simple threading model is plenty.

use crate::batch::Shed;
use crate::http::{read_request, respond, Request};
use crate::service::{EvalService, ServiceConfig};
use crate::wire::v1::{encode_error, DecodeError, EvaluateRequest};
use pipedepth_telemetry::{json::number, MetricValue, Telemetry};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How long a connection may idle before its handler gives up on it.
/// Bounds how long shutdown can wait on a silent client.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A bound evaluation server. Dropping it without [`Server::run`] simply
/// closes the socket.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<EvalService>,
    workers: usize,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:8080`, or port 0 for an ephemeral
    /// port) and builds the service behind it.
    ///
    /// # Errors
    ///
    /// Propagates the socket `bind` failure.
    pub fn bind(addr: &str, config: ServiceConfig, telemetry: Telemetry) -> io::Result<Server> {
        let workers = config.workers.max(1);
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(EvalService::new(config, telemetry)),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The service behind the server (tests reach its telemetry here).
    pub fn service(&self) -> &Arc<EvalService> {
        &self.service
    }

    /// Serves until a `POST /v1/shutdown` arrives, drains, and returns
    /// the final stats line.
    pub fn run(self) -> String {
        let addr = self.local_addr().ok();
        let shutdown = Arc::new(AtomicBool::new(false));
        let dispatchers: Vec<thread::JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let service = Arc::clone(&self.service);
                thread::spawn(move || service.dispatch_loop())
            })
            .collect();
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                // The waking connection (or a late client) — drop it
                // unanswered and stop accepting.
                break;
            }
            let Ok(stream) = stream else { continue };
            let service = Arc::clone(&self.service);
            let shutdown = Arc::clone(&shutdown);
            connections.push(thread::spawn(move || {
                handle_connection(stream, &service, &shutdown, addr);
            }));
            connections.retain(|handle| !handle.is_finished());
        }
        // Drain: every accepted connection answers before the queue closes,
        // so no admitted request is dropped.
        for handle in connections {
            let _ = handle.join();
        }
        self.service.close();
        for handle in dispatchers {
            let _ = handle.join();
        }
        // With the dispatchers joined no new reports can appear, so the
        // store's final snapshot is complete; sync it to disk before
        // reporting, so a drained server is restartable from this state.
        self.service.finish_store();
        self.service.stats_line()
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(
    mut stream: TcpStream,
    service: &EvalService,
    shutdown: &AtomicBool,
    addr: Option<SocketAddr>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(e) => {
            respond(
                &mut stream,
                e.status,
                "application/json",
                &[],
                &encode_error("bad_request", &e.message),
            );
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/evaluate") => evaluate(&mut stream, service, &request),
        ("GET", "/v1/optimum") => optimum(&mut stream, service, &request),
        ("GET", "/healthz") => respond(
            &mut stream,
            200,
            "application/json",
            &[],
            "{\"status\": \"ok\"}",
        ),
        ("GET", "/metrics") => {
            let body = render_metrics(service.telemetry());
            respond(&mut stream, 200, "application/json", &[], &body);
        }
        ("POST", "/v1/shutdown") => {
            respond(
                &mut stream,
                200,
                "application/json",
                &[],
                "{\"status\": \"shutting down\"}",
            );
            shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it notices the flag.
            if let Some(addr) = addr {
                let _ = TcpStream::connect(addr);
            }
        }
        (_, "/v1/evaluate" | "/v1/optimum" | "/v1/shutdown" | "/healthz" | "/metrics") => respond(
            &mut stream,
            405,
            "application/json",
            &[],
            &encode_error("method_not_allowed", "wrong method for this path"),
        ),
        (_, path) => respond(
            &mut stream,
            404,
            "application/json",
            &[],
            &encode_error("not_found", &format!("no route for {path}")),
        ),
    }
}

/// `POST /v1/evaluate`: decode, evaluate, encode — or shed.
fn evaluate(stream: &mut TcpStream, service: &EvalService, request: &Request) {
    let parsed = match EvaluateRequest::decode(&request.body) {
        Ok(parsed) => parsed,
        Err(e) => {
            let code = match e {
                DecodeError::Version { .. } => "unsupported_version",
                _ => "invalid_request",
            };
            respond(
                stream,
                400,
                "application/json",
                &[],
                &encode_error(code, &e.to_string()),
            );
            return;
        }
    };
    match service.evaluate(&parsed) {
        Ok(response) => respond(stream, 200, "application/json", &[], &response.encode()),
        Err(Shed::Overloaded { retry_after_s }) => respond(
            stream,
            429,
            "application/json",
            &[("Retry-After", retry_after_s.to_string())],
            &encode_error("overloaded", "evaluation queue is full; retry later"),
        ),
        Err(Shed::Closing) => respond(
            stream,
            503,
            "application/json",
            &[],
            &encode_error("shutting_down", "server is draining"),
        ),
    }
}

/// `GET /v1/optimum?workload=...&m=...`.
fn optimum(stream: &mut TcpStream, service: &EvalService, request: &Request) {
    let Some(workload) = request.param("workload") else {
        respond(
            stream,
            400,
            "application/json",
            &[],
            &encode_error("invalid_request", "missing required parameter \"workload\""),
        );
        return;
    };
    let m = match request.param("m").map(str::parse::<u32>) {
        None => 3,
        Some(Ok(m)) => m,
        Some(Err(_)) => {
            respond(
                stream,
                400,
                "application/json",
                &[],
                &encode_error("invalid_request", "parameter \"m\" must be an integer"),
            );
            return;
        }
    };
    match service.optimum(workload, m) {
        Ok(response) => respond(stream, 200, "application/json", &[], &response.encode()),
        Err(e) => respond(
            stream,
            400,
            "application/json",
            &[],
            &encode_error(e.code(), &e.to_string()),
        ),
    }
}

/// Renders the full telemetry snapshot as one JSON object, with p50/p99
/// estimates spliced into each histogram. Sorted by metric name, so the
/// body is deterministic for a given history.
fn render_metrics(telemetry: &Telemetry) -> String {
    let snapshot = telemetry.snapshot();
    let mut out = String::from("{");
    for (i, metric) in snapshot.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let rendered = match &metric.value {
            MetricValue::Histogram(h) => {
                let mut j = h.to_json();
                if let (Some(p50), Some(p99)) = (h.quantile(0.5), h.quantile(0.99)) {
                    j.pop();
                    j.push_str(&format!(
                        ", \"p50\": {}, \"p99\": {}}}",
                        number(p50),
                        number(p99)
                    ));
                }
                j
            }
            other => other.to_json(),
        };
        out.push('"');
        out.push_str(&pipedepth_telemetry::json::escape(&metric.name));
        out.push_str("\": ");
        out.push_str(&rendered);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_as_json_with_quantiles() {
        let telemetry = Telemetry::new();
        telemetry.counter("serve.requests").add(3);
        telemetry
            .histogram("serve.request_us", &[10.0, 100.0])
            .record(7.0);
        let body = render_metrics(&telemetry);
        let doc = crate::json::parse(&body).expect("valid JSON");
        #[cfg(feature = "telemetry")]
        {
            use crate::json::Json;
            assert_eq!(
                doc.get("serve.requests")
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_u64),
                Some(3)
            );
            let hist = doc.get("serve.request_us").expect("histogram present");
            assert_eq!(hist.get("p50").and_then(Json::as_f64), Some(7.0));
            assert_eq!(hist.get("p99").and_then(Json::as_f64), Some(7.0));
        }
        #[cfg(not(feature = "telemetry"))]
        assert_eq!(doc, crate::json::Json::Object(Vec::new()));
    }
}
