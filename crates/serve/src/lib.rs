//! `pipedepth-serve`: a batched, backpressured evaluation service over
//! the `pipedepth` [`Evaluator`](pipedepth_core::eval::Evaluator) layer.
//!
//! The workspace's experiment drivers answer depth-evaluation questions
//! in-process. This crate puts the same evaluation layer behind a small
//! HTTP/1.1 JSON API — built entirely on `std::net`, no new dependencies
//! — so sweeps, notebooks and other tools can share one warm simulator
//! and one result cache:
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `POST /v1/evaluate` | Evaluate a batch of `(workload, depth)` cells on `sim`, `model`, or `auto` |
//! | `GET /v1/optimum?workload=…&m=…` | The analytic optimum depth for `BIPS^m/W` |
//! | `GET /healthz` | Liveness |
//! | `GET /metrics` | Full telemetry snapshot (`serve.*`, `runner.*`, `sim.*`) as JSON |
//! | `POST /v1/shutdown` | Graceful drain: in-flight requests finish, queue empties, stats line prints |
//!
//! The interesting parts live in the layers:
//!
//! * [`wire`] — versioned request/response types with a hand-rolled,
//!   unknown-field-tolerant JSON codec ([`json`]);
//! * [`batch`] — single-flight coalescing of identical cells, bounded
//!   admission (429 + `Retry-After` on overload), batch dispatch;
//! * [`service`] — backend selection, answers from the embedded runner's
//!   report cache (the one cache of simulation results, persisted under
//!   `--store` through the same store `repro --store` writes, so either
//!   program warms the other), and deadline handling: `auto` requests
//!   degrade to the closed-form model when the budget rules simulation
//!   out;
//! * [`http`] + [`server`] — a minimal bounded HTTP/1.1 front end with
//!   ordered graceful shutdown.
//!
//! # Examples
//!
//! ```no_run
//! use pipedepth_serve::server::Server;
//! use pipedepth_serve::service::ServiceConfig;
//! use pipedepth_telemetry::Telemetry;
//!
//! let server = Server::bind("127.0.0.1:0", ServiceConfig::default(), Telemetry::new())?;
//! println!("listening on {}", server.local_addr()?);
//! let stats = server.run(); // blocks until POST /v1/shutdown
//! println!("{stats}");
//! # Ok::<(), std::io::Error>(())
//! ```

/// Request coalescing, batching and admission control.
pub mod batch;
/// The bounded `std::net` HTTP/1.1 layer.
pub mod http;
/// The hand-rolled JSON reader behind the wire codec.
pub mod json;
/// Socket lifecycle, routing and graceful shutdown.
pub mod server;
/// Backends, caching, deadlines and dispatch.
pub mod service;
/// Versioned wire request/response types.
pub mod wire;

/// The HTTP server (see [`server`]).
pub use server::Server;
/// The HTTP-free service core and its configuration (see [`service`]).
pub use service::{EvalService, ServiceConfig};
