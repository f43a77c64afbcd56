//! The HTTP server: socket lifecycle, routing, graceful shutdown.
//!
//! [`Server::bind`] opens the listener and builds the [`EvalService`];
//! [`Server::run`] blocks serving requests until `POST /v1/shutdown`,
//! then drains in the only safe order: stop accepting, let the connection
//! handlers finish the connections they hold (so every admitted request
//! gets its response), close the batch queue (dispatch workers finish
//! what was queued and exit), join the workers, and return a final stats
//! line for the operator.
//!
//! Every response carries `Connection: close`, and connections are served
//! by a pool of handler threads that each accept from the shared listener
//! themselves, so nothing stands between `accept` and the thread that
//! serves. At most [`MAX_HANDLERS`](crate::server::MAX_HANDLERS)
//! connections are in service at once; a handler that takes one beyond
//! that answers it 503. A connection stays in service until its response
//! is written, and a handler that takes the last free thread's place
//! starts one more, so one thread is always accepting, even while slow
//! readers hold handlers in their writes. Handlers are reused, so a
//! request costs no thread spawn; the cap only keeps idle or slow clients
//! from holding unbounded threads. The service's ceiling on work is still
//! the batch queue.

use crate::batch::Shed;
use crate::http::{read_request, respond, Request};
use crate::service::{EvalService, ServiceConfig};
use crate::wire::v1::{encode_error, DecodeError, EvaluateRequest};
use pipedepth_telemetry::{json::number, Counter, MetricValue, Telemetry};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, Scope};

/// Most connections in service at once. A connection that arrives while
/// all of them are taken is answered 503 by the handler that accepts it.
pub const MAX_HANDLERS: usize = 64;

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
        let dispatchers: Vec<thread::JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let service = Arc::clone(&self.service);
                thread::spawn(move || service.dispatch_loop())
            })
            .collect();
        // The calling thread is the first handler. The scope joins every
        // handler, so each finishes the connection it holds before the
        // queue closes: no admitted request is dropped.
        let pool = self.pool();
        thread::scope(|scope| pool.handle(scope));
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

    fn pool(&self) -> Pool<'_> {
        let telemetry = self.service.telemetry();
        Pool {
            listener: &self.listener,
            service: &self.service,
            addr: self.local_addr().ok(),
            shutdown: AtomicBool::new(false),
            threads: AtomicUsize::new(1),
            serving: AtomicUsize::new(0),
            started: telemetry.counter("serve.http.handlers_started"),
            rejected: telemetry.counter("serve.http.rejected"),
        }
    }
}

/// What every handler thread shares.
#[derive(Debug)]
struct Pool<'a> {
    listener: &'a TcpListener,
    service: &'a EvalService,
    /// The listener's address, which a stopping handler connects to in
    /// order to wake the next one blocked in `accept`.
    addr: Option<SocketAddr>,
    /// Set by `POST /v1/shutdown`; each handler stops on its next wake.
    shutdown: AtomicBool,
    /// Live handler threads, the one that called [`Server::run`] included.
    threads: AtomicUsize,
    /// Connections in service, at most [`MAX_HANDLERS`].
    serving: AtomicUsize,
    started: Counter,
    rejected: Counter,
}

impl<'a> Pool<'a> {
    /// A handler thread's body: accept, serve, repeat until shutdown.
    fn handle<'s>(&'s self, scope: &'s Scope<'s, 'a>) {
        while !self.shutdown.load(Ordering::SeqCst) {
            let accepted = self.listener.accept();
            if self.shutdown.load(Ordering::SeqCst) {
                // The waking connection (or a late client) — drop it
                // unanswered.
                break;
            }
            let Ok((stream, _)) = accepted else { continue };
            if self.claim(scope) {
                self.serve(stream, |stream| handle_connection(stream, self));
            } else {
                self.rejected.inc();
                refuse(stream);
            }
        }
        // Wake the next handler blocked in `accept`, so it sees the flag
        // too and wakes the one after it.
        if let Some(addr) = self.addr {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Takes a serving slot for a connection just accepted; `false` when
    /// all [`MAX_HANDLERS`] are taken. A claim that leaves no thread free
    /// to accept starts one more handler, so at most `MAX_HANDLERS + 1`
    /// threads exist.
    fn claim<'s>(&'s self, scope: &'s Scope<'s, 'a>) -> bool {
        let serving = self.serving.fetch_add(1, Ordering::SeqCst) + 1;
        if serving > MAX_HANDLERS {
            self.serving.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        let grew = self
            .threads
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |threads| {
                (serving >= threads && threads <= MAX_HANDLERS).then_some(threads + 1)
            });
        if grew.is_ok() {
            self.started.inc();
            scope.spawn(move || self.handle(scope));
        }
        true
    }

    /// Serves one connection in the slot its claim took, and frees the
    /// slot once the response is written but before the connection
    /// closes, so a client that reconnects on EOF finds a handler free. A
    /// handler blocked writing to a slow reader keeps its slot, so the
    /// claims of later connections see it busy and keep a thread
    /// accepting. A panic while serving also frees the slot and drops the
    /// connection; the thread stays in the pool.
    fn serve(&self, mut stream: TcpStream, handle: impl FnOnce(&mut TcpStream)) {
        let _ = panic::catch_unwind(AssertUnwindSafe(|| handle(&mut stream)));
        self.serving.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers a connection beyond [`MAX_HANDLERS`] from the handler that
/// accepted it, without reading its request. An idle client reads the
/// 503; one that has already sent its request may see a reset instead,
/// because the close discards its unread bytes.
fn refuse(mut stream: TcpStream) {
    respond(
        &mut stream,
        503,
        "application/json",
        &[("Retry-After", "1".to_string())],
        &encode_error(
            "overloaded",
            "every connection handler is busy; retry later",
        ),
    );
}

/// Serves one connection: parse, route, respond. The caller closes it.
fn handle_connection(stream: &mut TcpStream, pool: &Pool<'_>) {
    let service = pool.service;
    let request = match read_request(stream) {
        Ok(request) => request,
        Err(e) => {
            respond(
                stream,
                e.status,
                "application/json",
                &[],
                &encode_error("bad_request", &e.message),
            );
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/evaluate") => evaluate(stream, service, &request),
        ("GET", "/v1/optimum") => optimum(stream, service, &request),
        ("GET", "/healthz") => {
            respond(stream, 200, "application/json", &[], "{\"status\": \"ok\"}")
        }
        ("GET", "/metrics") => {
            let body = render_metrics(service.telemetry());
            respond(stream, 200, "application/json", &[], &body);
        }
        ("POST", "/v1/shutdown") => {
            respond(
                stream,
                200,
                "application/json",
                &[],
                "{\"status\": \"shutting down\"}",
            );
            // Every handler stops once it next wakes; this one wakes the
            // first when it returns to its loop.
            pool.shutdown.store(true, Ordering::SeqCst);
        }
        (_, "/v1/evaluate" | "/v1/optimum" | "/v1/shutdown" | "/healthz" | "/metrics") => respond(
            stream,
            405,
            "application/json",
            &[],
            &encode_error("method_not_allowed", "wrong method for this path"),
        ),
        (_, path) => respond(
            stream,
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
    use crate::json::Json;
    use std::io::{Read, Write};

    /// Sends `raw` on a fresh connection and reads until the server
    /// closes it.
    fn exchange(addr: SocketAddr, raw: &str) -> String {
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        let _ = client.read_to_string(&mut response);
        response
    }

    #[test]
    fn a_panicking_connection_frees_its_slot() {
        let config = ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, Telemetry::new()).expect("bind :0");
        let addr = server.local_addr().expect("bound address");
        let pool = server.pool();
        let (serving, health) = thread::scope(|scope| {
            let client = TcpStream::connect(addr).expect("connect");
            let (stream, _) = server.listener.accept().expect("accept");
            // The claim takes the only thread's place, so it starts the
            // handler that answers below.
            assert!(pool.claim(scope));
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.serve(stream, |_| panic!("deliberate handler panic"))
            }));
            let serving = pool.serving.load(Ordering::SeqCst);
            drop(client);
            // Shut down before any assertion, so a failure cannot leave
            // the started handler blocked in `accept`.
            let health = exchange(addr, "GET /healthz HTTP/1.1\r\n\r\n");
            exchange(addr, "POST /v1/shutdown HTTP/1.1\r\n\r\n");
            (serving, health)
        });
        assert_eq!(serving, 0, "the panicking connection's slot is free");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert_eq!(pool.serving.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn metrics_render_as_json_with_quantiles() {
        let telemetry = Telemetry::new();
        telemetry.counter("serve.requests").add(3);
        telemetry
            .histogram("serve.request_us", &[10.0, 100.0])
            .record(7.0);
        let body = render_metrics(&telemetry);
        let doc = crate::json::parse(&body).expect("valid JSON");
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
}
