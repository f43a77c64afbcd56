//! The traced serve pass: answers scripted requests in process the way a
//! `pipedepth-serve` connection handler does, calling each layer's public
//! function and timing it.
//!
//! | layer | timed call |
//! |---|---|
//! | `serve.http.parse` | `http::read_request` on a real loopback socket |
//! | `serve.wire.decode` | `EvaluateRequest::decode` |
//! | `serve.service` | `EvalService::evaluate` / `optimum`, minus dispatch |
//! | `serve.dispatch` | the dispatch worker's CPU time during the call |
//! | `serve.wire.encode` | `EvaluateResponse::encode` / `OptimumResponse::encode` |
//! | `serve.http.respond` | `http::respond` |
//!
//! The service runs its one dispatch worker on a thread of this pass, so
//! the worker's on-CPU time across an `evaluate` call — the client waits
//! alone — is the dispatch share (`SimBackend::evaluate_sweep` /
//! `evaluate_batch` on the request's missed cells); the rest of the call
//! is cache probe, admission and queue wait.

use crate::host::{current_tid, thread_cpu_us};
use crate::load::parse_response;
use crate::spans::{micros, Spans};
use pipedepth_serve::batch::Shed;
use pipedepth_serve::http::{read_request, respond, Request};
use pipedepth_serve::service::{EvalService, ServiceConfig};
use pipedepth_serve::wire::v1::{encode_error, EvaluateRequest};
use pipedepth_telemetry::Telemetry;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// The service configuration every serve workload measures: what
/// `pipedepth-serve --threads 1 --workers 1` runs (quick template, cache
/// on, no store).
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        threads: 1,
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// An in-process service with its dispatch worker, plus a loopback
/// listener so the HTTP layer reads from and writes to real sockets.
#[derive(Debug)]
pub struct ServePass {
    service: Arc<EvalService>,
    dispatcher: Option<thread::JoinHandle<()>>,
    dispatcher_tid: u32,
    listener: TcpListener,
}

impl ServePass {
    /// A fresh service, as a freshly started server holds it.
    ///
    /// # Errors
    ///
    /// Socket failures, or no per-thread CPU accounting on this host.
    pub fn new() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let service = Arc::new(EvalService::new(service_config(), Telemetry::new()));
        let (tx, rx) = mpsc::channel();
        let worker = Arc::clone(&service);
        let dispatcher = thread::spawn(move || {
            let _ = tx.send(current_tid());
            worker.dispatch_loop();
        });
        let mut pass = ServePass {
            service,
            dispatcher: Some(dispatcher),
            dispatcher_tid: 0,
            listener,
        };
        pass.dispatcher_tid = rx
            .recv()
            .ok()
            .flatten()
            .filter(|&tid| thread_cpu_us(tid).is_some())
            .ok_or_else(|| io::Error::other("no per-thread CPU accounting for the dispatcher"))?;
        Ok(pass)
    }

    /// Answers one raw request and returns the status and body the client
    /// receives. Connection set-up, routing and the client side are not
    /// charged to any layer: they are the residual.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn handle(&self, raw: &[u8], spans: &mut Spans) -> io::Result<(u16, String)> {
        let mut client = TcpStream::connect(self.listener.local_addr()?)?;
        client.set_nodelay(true)?;
        client.write_all(raw)?;
        let (mut conn, _) = self.listener.accept()?;
        let parsed = spans.time("serve.http.parse", || read_request(&mut conn));
        let (status, body) = match parsed {
            Ok(request) => self.route(&request, spans),
            Err(e) => (e.status, encode_error("bad_request", &e.message)),
        };
        spans.time("serve.http.respond", || {
            respond(&mut conn, status, "application/json", &[], &body)
        });
        drop(conn);
        spans.count("serve.requests", 1.0);
        let mut bytes = Vec::new();
        client.read_to_end(&mut bytes)?;
        parse_response(&bytes)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))
    }

    fn route(&self, request: &Request, spans: &mut Spans) -> (u16, String) {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/evaluate") => {
                let decoded = spans.time("serve.wire.decode", || {
                    EvaluateRequest::decode(&request.body)
                });
                let parsed = match decoded {
                    Ok(parsed) => parsed,
                    Err(e) => return (400, encode_error("invalid_request", &e.to_string())),
                };
                let cpu_before = thread_cpu_us(self.dispatcher_tid);
                let start = Instant::now();
                let answer = self.service.evaluate(&parsed);
                let wall = micros(start);
                let dispatch = match (cpu_before, thread_cpu_us(self.dispatcher_tid)) {
                    (Some(before), Some(after)) => (after - before).clamp(0.0, wall),
                    _ => 0.0,
                };
                spans.add_us("serve.dispatch", dispatch);
                spans.add_us("serve.service", wall - dispatch);
                match answer {
                    Ok(response) => (200, spans.time("serve.wire.encode", || response.encode())),
                    Err(Shed::Closing) => (503, encode_error("shutting_down", "draining")),
                    Err(Shed::Overloaded { .. }) => {
                        (429, encode_error("overloaded", "evaluation queue is full"))
                    }
                }
            }
            ("GET", "/v1/optimum") => {
                let workload = request.param("workload").unwrap_or_default();
                let m = request.param("m").and_then(|m| m.parse().ok()).unwrap_or(3);
                match spans.time("serve.service", || self.service.optimum(workload, m)) {
                    Ok(response) => (200, spans.time("serve.wire.encode", || response.encode())),
                    Err(e) => (400, encode_error(e.code(), &e.to_string())),
                }
            }
            (_, path) => (
                404,
                encode_error("not_found", &format!("no route for {path}")),
            ),
        }
    }

    /// The service's telemetry counter `name` so far.
    pub fn counter(&self, name: &str) -> u64 {
        self.service.telemetry().snapshot().counter(name)
    }
}

impl Drop for ServePass {
    fn drop(&mut self) {
        self.service.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
    }
}
