//! Explicit stage units of the pipeline engine.
//!
//! The timing engine used to be a single monolithic `step_timing` body in
//! which fetch, hazard detection, issue and execute were fused. This module
//! splits that body into four units, each owning the architectural state of
//! its pipeline segment:
//!
//! * [`FrontEnd`] — instruction fetch, the decode port, the branch
//!   predictor and redirect bookkeeping;
//! * [`HazardUnit`] — the register scoreboard and the stall classification
//!   that feeds the theory's `γ`/`N_H` accounting;
//! * [`IssueStage`] — the issue port, the decode→issue decoupling window
//!   ([`IssueRing`]) and superscalar (`α`) accounting;
//! * [`ExecCore`] — the cache and retire ports, the unpipelined FP unit's
//!   busy time, and in-order retirement.
//!
//! The engine is reduced to a thin per-instruction orchestrator over these
//! units. The decomposition is *timing-neutral*: every port acquisition,
//! cache access and hazard record happens in exactly the order the fused
//! body performed them, so a `SimReport` is bit-identical before and after
//! the split (pinned by the `exact_timing` and differential suites).

mod exec_core;
mod front_end;
mod hazard_unit;
mod issue_stage;

/// The execution/retire unit and its memory-segment hand-off.
pub use exec_core::{ExecCore, MemorySegment};
/// The fetch/decode unit and its hand-off record.
pub use front_end::{FetchDecode, FrontEnd};
/// The register scoreboard and stall-attribution unit.
pub use hazard_unit::HazardUnit;
/// The issue queue, its ring buffer, and the issue-grant record.
pub use issue_stage::{IssueRing, IssueStage, Issued};

pub(crate) use hazard_unit::{reg_slot, StallInputs, WriterKind, REG_SLOTS};

use crate::cache::AccessResult;
use crate::config::{SimConfig, StagePlan};
use pipedepth_trace::isa::OpClass;

/// A resource granting at most `width` acquisitions per cycle, in order.
///
/// Ports model the machine's per-cycle bandwidth limits: the decode, issue
/// and retire ports are as wide as the machine, the cache port as wide as
/// the configured load-port count. Grants never go backwards — the machine
/// is in order.
#[derive(Debug, Clone)]
pub struct Port {
    width: u32,
    cycle: u64,
    used: u32,
}

impl Port {
    /// A port of the given per-cycle width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u32) -> Self {
        assert!(width >= 1, "port width must be at least 1");
        Port {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// Grants a slot at the earliest cycle ≥ `at` consistent with previous
    /// grants (grants never go backwards: the machine is in order).
    pub fn acquire(&mut self, at: u64) -> u64 {
        if at > self.cycle {
            self.cycle = at;
            self.used = 1;
        } else if self.used < self.width {
            self.used += 1;
        } else {
            self.cycle += 1;
            self.used = 1;
        }
        self.cycle
    }

    /// Marks the current cycle exhausted, so the next grant opens a new
    /// cycle (used by serialising instructions).
    pub fn close_cycle(&mut self) {
        self.used = self.width;
    }
}

/// Per-configuration latency tables, computed once at engine construction
/// so the per-instruction path never re-derives a stage latency, converts
/// an FO4 penalty, or walks the unit list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tables {
    /// Stage latencies of the plan, widened once.
    pub(crate) decode: u64,
    pub(crate) agen: u64,
    pub(crate) cache: u64,
    pub(crate) execute: u64,
    pub(crate) complete: u64,
    /// Extra E-unit cycles per operation class (`class as usize` index).
    pub(crate) exec_extra: [u64; OpClass::ALL.len()],
    /// Miss penalty in cycles per access result (`result as usize` index):
    /// `fo4_to_cycles(penalty_fo4(..))` with the float math paid up front.
    pub(crate) miss_penalty: [u64; 3],
    /// Hazard-stall cap: two full pipeline drains.
    pub(crate) hazard_cap: u64,
    /// Effective decode→issue decoupling capacity.
    pub(crate) queue_capacity: usize,
    /// Instruction-cache line size, for the once-per-line fetch filter.
    pub(crate) line_bytes: u64,
}

impl Tables {
    pub(crate) fn new(config: &SimConfig, plan: &StagePlan) -> Tables {
        let mut exec_extra = [0u64; OpClass::ALL.len()];
        for class in OpClass::ALL {
            // Extra E-unit cycles beyond the pipelined pass for multi-cycle
            // (floating-point) operations. Following the paper's model —
            // "floating point instructions execute individually and take
            // multiple cycles to complete" — the iteration count is fixed in
            // *cycles*, so FP latency shrinks in absolute time as the clock
            // speeds up with depth. Combined with the serialisation of the
            // FP unit this yields low α and deep optimum depths for FP
            // workloads, as the paper reports.
            let extra_passes = class.base_exec_cycles().saturating_sub(1) as u64;
            exec_extra[class as usize] = extra_passes * 2;
        }
        let mut miss_penalty = [0u64; 3];
        for result in [AccessResult::L1, AccessResult::L2, AccessResult::Memory] {
            miss_penalty[result as usize] = config.fo4_to_cycles(config.cache.penalty_fo4(result));
        }
        Tables {
            decode: plan.decode as u64,
            agen: plan.agen as u64,
            cache: plan.cache as u64,
            execute: plan.execute as u64,
            complete: plan.complete as u64,
            exec_extra,
            miss_penalty,
            hazard_cap: 2 * config.depth as u64,
            queue_capacity: if config.features.scaled_queues {
                crate::engine::Engine::queue_capacity(config.depth)
            } else {
                16
            },
            line_bytes: config.cache.line_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_respects_width() {
        let mut p = Port::new(2);
        assert_eq!(p.acquire(5), 5);
        assert_eq!(p.acquire(5), 5);
        assert_eq!(p.acquire(5), 6);
        assert_eq!(p.acquire(5), 6, "in-order port never goes back");
        assert_eq!(p.acquire(10), 10);
    }

    #[test]
    fn closed_cycle_forces_a_fresh_grant() {
        let mut p = Port::new(4);
        assert_eq!(p.acquire(3), 3);
        p.close_cycle();
        assert_eq!(p.acquire(3), 4, "closed cycle admits no more grants");
    }
}
