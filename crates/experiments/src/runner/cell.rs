//! The unit of simulation work: one (workload, depth, machine) cell.
//!
//! A cell pins everything that influences a [`SimReport`]: the statistical
//! workload model, the trace seed, the full simulator configuration and the
//! warmup/measurement windows. Power configurations are deliberately *not*
//! part of a cell — every BIPS^m/W variant is cheap post-processing of the
//! same report, which is what lets different figures share simulations.

use pipedepth_sim::{Engine, SimConfig, SimReport};
use pipedepth_trace::{Fnv64, TraceGenerator, WorkloadModel};
use pipedepth_workloads::Workload;

/// One simulation cell: the complete, content-addressed description of a
/// single simulator run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Statistical model the trace is drawn from.
    pub model: WorkloadModel,
    /// Seed of the deterministic trace stream.
    pub trace_seed: u64,
    /// Full machine configuration (depth, caches, features, …).
    pub sim: SimConfig,
    /// Warmup instructions (statistics discarded).
    pub warmup: u64,
    /// Measured instructions.
    pub instructions: u64,
}

impl CellSpec {
    /// The cell for `workload` on machine `sim` with the given windows.
    pub fn new(workload: &Workload, sim: SimConfig, warmup: u64, instructions: u64) -> Self {
        CellSpec {
            model: workload.model,
            trace_seed: workload.trace_seed,
            sim,
            warmup,
            instructions,
        }
    }

    /// Content hash of the cell: structural FNV-1a over the bit patterns
    /// of every field, via the model and machine fingerprints — no
    /// intermediate `String` rendering, no allocation. Collisions are
    /// resolved by full [`PartialEq`] comparison in the cache, so the hash
    /// only needs to spread well.
    pub fn key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.model.fingerprint())
            .write_u64(self.trace_seed)
            .write_u64(self.sim.fingerprint())
            .write_u64(self.warmup)
            .write_u64(self.instructions);
        h.finish()
    }

    /// Total trace length the cell consumes: the warmup window plus the
    /// measured window — the runner generates exactly this many
    /// instructions into each distinct stream's annotation.
    pub fn trace_len(&self) -> u64 {
        self.warmup + self.instructions
    }

    /// Runs the cell on the reference stage engine: fresh engine, fresh
    /// streaming trace, warmup, measure. The runner times cells with the
    /// annotate/replay sweep kernel instead; this is what its tests hold
    /// that kernel to.
    pub fn execute(&self) -> SimReport {
        let mut engine = Engine::new(self.sim);
        let mut gen = TraceGenerator::new(self.model, self.trace_seed);
        engine.warm_up(&mut gen, self.warmup);
        engine.run(&mut gen, self.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_workloads::representatives;

    fn cell(depth: u32) -> CellSpec {
        CellSpec::new(&representatives()[0], SimConfig::paper(depth), 500, 1_000)
    }

    #[test]
    fn identical_cells_share_a_key() {
        assert_eq!(cell(8).key(), cell(8).key());
        assert_eq!(cell(8), cell(8));
    }

    #[test]
    fn any_field_change_changes_the_key() {
        let base = cell(8);
        let deeper = cell(9);
        let longer = CellSpec {
            instructions: base.instructions + 1,
            ..base
        };
        let reseeded = CellSpec {
            trace_seed: base.trace_seed + 1,
            ..base
        };
        let rewarmed = CellSpec {
            warmup: base.warmup + 1,
            ..base
        };
        let remodelled = CellSpec::new(&representatives()[1], base.sim, 500, 1_000);
        for other in [deeper, longer, reseeded, rewarmed, remodelled] {
            assert_ne!(base.key(), other.key());
            assert_ne!(base, other);
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let spec = cell(6);
        assert_eq!(spec.execute(), spec.execute());
    }
}
