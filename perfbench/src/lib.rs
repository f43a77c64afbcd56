//! The benchmark of the `repro` and `pipedepth-serve` programs.
//!
//! End-to-end numbers come from untraced runs of the real binaries
//! ([`programs`], [`load`]). Per-layer numbers come from a separate traced
//! run in which this crate calls each layer's public functions itself and
//! times the calls ([`repro_layers`], [`serve_layers`]); nothing inside the
//! program is instrumented. [`stats`] holds the order statistics and the
//! result line every run ends with.
//!
//! Which end-to-end metric each layer should move, and on which workload.
//! The sweep path of `pipedepth-serve` has no registered workload; its
//! layers are still measured by every traced run's serve probe.
//!
//! | layer | should move |
//! |---|---|
//! | `trace.arena` | `wall_s` on repro-cold |
//! | `sim.annotate` | `wall_s` on repro-cold |
//! | `sim.replay` | `wall_s` on repro-cold |
//! | `experiments.extract` | `wall_s` on repro-cold |
//! | `experiments.runner` | `wall_s` on repro-warm and repro-cold |
//! | `experiments.figures` | `wall_s` on repro-warm (`ablation`, `issue_policy`: on repro-cold) |
//! | `store.load` | `wall_s` on repro-warm |
//! | `store.publish` | `wall_s` on repro-cold |
//! | `serve.http`, `serve.wire` | `latency_p50_ms` on serve-hot |
//! | `serve.service` | `req_per_s` and `latency_p50_ms` on serve-hot |
//! | `serve.dispatch` | none registered (a sweep request's latency) |

pub mod host;
pub mod load;
pub mod programs;
pub mod repro_layers;
pub mod serve_layers;
pub mod spans;
pub mod stats;
