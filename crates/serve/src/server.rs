//! The HTTP server: socket lifecycle, routing, graceful shutdown.
//!
//! [`Server::bind`] opens the listener and builds the [`EvalService`];
//! [`Server::run`] blocks serving requests until `POST /v1/shutdown`,
//! then drains in the only safe order: stop accepting, let the connection
//! handlers serve every connection they were handed (so every admitted
//! request gets its response), close the batch queue (dispatch workers
//! finish what was queued and exit), join the workers, and return a final
//! stats line for the operator.
//!
//! Every response carries `Connection: close`, and connections are served
//! by a pool of at most [`MAX_HANDLERS`](crate::server::MAX_HANDLERS)
//! handler threads. The accept loop hands each stream to an idle handler,
//! starts a new handler only when no idle one is free to take it, and
//! answers 503 itself beyond the cap. Handlers are reused, so a request
//! costs no thread spawn; the cap only keeps idle or slow clients from
//! holding unbounded threads. The service's ceiling on work is still the
//! batch queue.

use crate::batch::Shed;
use crate::http::{read_request, respond, Request};
use crate::service::{EvalService, ServiceConfig};
use crate::wire::v1::{encode_error, DecodeError, EvaluateRequest};
use pipedepth_telemetry::{json::number, MetricValue, Telemetry};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Most connection handler threads alive at once. A connection that finds
/// all of them busy is answered 503 by the accept loop.
pub const MAX_HANDLERS: usize = 64;

/// How long a handler waits on any one read from its client. Bounds how
/// long an idle client holds a handler, and how long shutdown can wait on
/// a silent one.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

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
        let shared = Arc::new(Shared {
            service: Arc::clone(&self.service),
            handoff: Handoff::default(),
            shutdown: AtomicBool::new(false),
            addr: self.local_addr().ok(),
        });
        let telemetry = self.service.telemetry();
        let started = telemetry.counter("serve.http.handlers_started");
        let rejected = telemetry.counter("serve.http.rejected");
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                // The waking connection (or a late client) — drop it
                // unanswered and stop accepting.
                break;
            }
            let Ok(stream) = stream else { continue };
            let Err(stream) = shared.handoff.offer(stream) else {
                continue;
            };
            if handlers.len() >= MAX_HANDLERS {
                // Handlers run until the hand-off closes, so one that has
                // finished panicked; it frees its slot.
                handlers.retain(|handle| !handle.is_finished());
            }
            if handlers.len() < MAX_HANDLERS {
                started.inc();
                let shared = Arc::clone(&shared);
                handlers.push(thread::spawn(move || shared.serve(stream)));
            } else {
                rejected.inc();
                refuse(stream);
            }
        }
        // Drain: handlers serve every stream they were handed, then exit,
        // so no admitted request is dropped before the queue closes.
        shared.handoff.close();
        for handle in handlers {
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

/// What the accept loop shares with every handler thread.
#[derive(Debug)]
struct Shared {
    service: Arc<EvalService>,
    handoff: Handoff,
    /// Set by `POST /v1/shutdown`; the accept loop stops on its next wake.
    shutdown: AtomicBool,
    /// The listener's address, which the shutdown handler connects to in
    /// order to wake the accept loop.
    addr: Option<SocketAddr>,
}

impl Shared {
    /// A handler thread's body: serves `first`, then each stream the
    /// hand-off gives it, until the hand-off closes.
    fn serve(&self, first: TcpStream) {
        let mut next = Some(first);
        while let Some(mut stream) = next {
            handle_connection(&mut stream, self);
            next = self.handoff.next(stream);
        }
    }
}

/// The accept loop's hand-off to idle handler threads. Each queued stream
/// is spoken for by a handler that counted itself idle, so no stream waits
/// behind a busy one.
#[derive(Debug, Default)]
struct Handoff {
    state: Mutex<HandoffState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct HandoffState {
    /// Accepted streams no handler has taken yet.
    queued: VecDeque<TcpStream>,
    /// Handlers that finished a connection and have not taken another.
    idle: usize,
    /// Set once the accept loop has stopped; handlers exit when `queued`
    /// is empty.
    closed: bool,
}

impl Handoff {
    /// Queues `stream` for an idle handler, or hands it back when every
    /// idle handler already has a stream queued for it.
    fn offer(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.lock();
        if state.idle <= state.queued.len() {
            return Err(stream);
        }
        state.queued.push_back(stream);
        self.ready.notify_one();
        Ok(())
    }

    /// Counts the calling handler idle, closes the connection it has just
    /// served, then waits for its next stream; `None` once the hand-off is
    /// closed and empty. Counting itself idle before the close means a
    /// client that reconnects on seeing EOF always finds this handler free.
    fn next(&self, served: TcpStream) -> Option<TcpStream> {
        self.lock().idle += 1;
        drop(served);
        let mut state = self.lock();
        loop {
            if let Some(stream) = state.queued.pop_front() {
                state.idle -= 1;
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops the hand-off: handlers serve what is queued, then exit.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, HandoffState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Answers a connection beyond [`MAX_HANDLERS`] from the accept loop,
/// without reading its request. An idle client reads the 503; one that
/// has already sent its request may see a reset instead, because the
/// close discards its unread bytes.
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
fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let service = &*shared.service;
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
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
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it notices the flag.
            if let Some(addr) = shared.addr {
                let _ = TcpStream::connect(addr);
            }
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
