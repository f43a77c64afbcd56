//! Synthetic instruction-trace substrate for the `pipedepth` workspace.
//!
//! The paper drives its proprietary cycle-accurate simulator with 55 IBM
//! zSeries trace tapes. Those tapes are unavailable, so this crate provides
//! the substitute: deterministic, statistically controlled synthetic traces
//! over a z-like instruction set.
//!
//! * [`isa`] — the instruction abstraction: RR vs RX operation classes,
//!   register operands, memory references, branch outcomes;
//! * [`model`] — statistical workload models (instruction mix, dependency
//!   distances, branch predictability, memory locality) with presets for
//!   the paper's four workload classes;
//! * [`generator`] — the seeded trace generator: same seed, same trace,
//!   replayable against every pipeline depth of a sweep — and
//!   [`TraceRequest`], the `(model, seed, length)` content address of one
//!   stream;
//! * [`arena`] — a store of materialised `Arc<[Instruction]>` streams,
//!   kept for the benchmark's traced pass (the simulator generates each
//!   stream straight into its annotation instead);
//! * [`hash`] — structural FNV-1a hashing over field bit patterns, the
//!   content-addressing primitive used by the annotation store and the
//!   sim cache;
//! * [`stats`] — aggregate trace statistics for validation and reporting.
//!
//! # Why this substitution preserves the paper's behaviour
//!
//! The optimum-pipeline-depth problem is driven by aggregate workload
//! statistics — hazards per instruction, the pipeline fraction each hazard
//! stalls, exploitable ILP — not by program semantics. The generator gives
//! direct, independent control over exactly those statistics.
//!
//! # Examples
//!
//! ```
//! use pipedepth_trace::{TraceGenerator, WorkloadModel, TraceStats};
//!
//! let mut gen = TraceGenerator::new(WorkloadModel::legacy_like(), 7);
//! let trace = gen.take_vec(10_000);
//! let stats = TraceStats::of(&trace);
//! assert!(stats.class_fraction(pipedepth_trace::isa::OpClass::Branch) > 0.1);
//! ```

pub mod arena;
pub mod blob;
pub mod generator;
pub mod hash;
pub mod isa;
pub mod model;
pub mod stats;

pub use arena::TraceArena;
pub use generator::{TraceGenerator, TraceRequest};
pub use hash::Fnv64;
pub use isa::{BranchInfo, Instruction, MemRef, OpClass, Reg};
pub use model::{fingerprint_memo_hits, BranchModel, InstructionMix, MemoryModel, WorkloadModel};
pub use stats::TraceStats;
