//! Deterministic synthetic trace generation.
//!
//! A [`TraceGenerator`] turns a [`WorkloadModel`] plus a seed into an
//! endless, reproducible stream of [`Instruction`]s. Determinism matters:
//! every pipeline depth of a sweep must see the *same* instruction stream,
//! exactly as the paper replays one trace tape against many processor
//! models.

use crate::hash::Fnv64;
use crate::isa::{BranchInfo, Instruction, MemRef, OpClass, Reg};
use crate::model::WorkloadModel;
use pipedepth_telemetry::{Counter, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cache-line-sized code step between sequential instructions (z
/// instructions average ~4 bytes; we use 4).
const INSTR_BYTES: u64 = 4;

/// The content address of one stream: the full set of inputs that
/// determine it. A [`TraceGenerator`] seeded from `model` and `seed` yields
/// the stream; `len` is how many instructions of it a consumer reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRequest {
    /// Statistical model the stream is drawn from.
    pub model: WorkloadModel,
    /// Seed of the deterministic stream.
    pub seed: u64,
    /// Stream length in instructions.
    pub len: u64,
}

impl TraceRequest {
    /// Structural content hash (collisions are resolved by `PartialEq`
    /// wherever the key addresses a store).
    pub fn key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.model.fingerprint())
            .write_u64(self.seed)
            .write_u64(self.len);
        h.finish()
    }
}

/// Depth of the recent-writer window used to materialise dependency
/// distances.
const WINDOW: usize = 64;

/// The most recent register writers of one file, in a fixed ring: a push
/// overwrites the oldest of the last [`WINDOW`] writers.
#[derive(Debug, Clone)]
struct Writers {
    regs: [Reg; WINDOW],
    /// Writers pushed so far; the ring holds the last `WINDOW` of them.
    pushed: usize,
}

impl Writers {
    fn new() -> Self {
        Writers {
            regs: [Reg::Gpr(0); WINDOW],
            pushed: 0,
        }
    }

    /// Writers held, at most [`WINDOW`].
    fn len(&self) -> usize {
        self.pushed.min(WINDOW)
    }

    fn push(&mut self, reg: Reg) {
        self.regs[self.pushed % WINDOW] = reg;
        self.pushed += 1;
    }

    /// The `d`-th most recent writer, for `1 <= d <= len()`.
    fn recent(&self, d: usize) -> Reg {
        self.regs[(self.pushed - d) % WINDOW]
    }
}

/// A deterministic, endless instruction stream for one workload.
///
/// # Examples
///
/// ```
/// use pipedepth_trace::{TraceGenerator, WorkloadModel};
///
/// let mut gen = TraceGenerator::new(WorkloadModel::spec_int_like(), 42);
/// let first: Vec<_> = (&mut gen).take(100).collect();
/// let mut again = TraceGenerator::new(WorkloadModel::spec_int_like(), 42);
/// let second: Vec<_> = (&mut again).take(100).collect();
/// assert_eq!(first, second, "same seed ⇒ same trace");
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    model: WorkloadModel,
    rng: StdRng,
    pc: u64,
    /// The most recent GPR/FPR writers, used to realise the
    /// dependency-distance distribution.
    recent_gpr: Writers,
    recent_fpr: Writers,
    next_gpr: u8,
    next_fpr: u8,
    /// Current sequential data pointer.
    data_ptr: u64,
    /// Per-site branch biases, indexed by a hash of the site id.
    site_bias: Vec<f64>,
    /// `ln(1 - 1/mean_dep_distance)`: the denominator of every geometric
    /// dependency-distance draw.
    ln_dep_miss: f64,
    /// Code-block entry points a taken branch may target, and the bytes
    /// between them.
    blocks: u64,
    block_bytes: u64,
    emitted: u64,
    /// Telemetry counter for `trace.instructions_generated` (disconnected
    /// unless built with [`TraceGenerator::with_telemetry`]).
    generated: Counter,
    /// Instructions already flushed into `generated`; deltas flush on
    /// [`TraceGenerator::flush_telemetry`] and on drop, keeping the
    /// per-instruction path free of atomics.
    flushed: u64,
}

impl TraceGenerator {
    /// Creates a generator for `model`, seeded deterministically.
    pub fn new(model: WorkloadModel, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = model.branches.static_sites as usize;
        let site_bias = (0..sites)
            .map(|_| {
                if rng.gen_bool(model.branches.biased_fraction) {
                    // Strongly biased site: taken or not-taken dominant.
                    if rng.gen_bool(0.5) {
                        model.branches.bias
                    } else {
                        1.0 - model.branches.bias
                    }
                } else {
                    0.5
                }
            })
            .collect();
        // Taken branches target one of a bounded set of code-block entry
        // points, so the program forms loops: branch PCs recur, letting a
        // history-based predictor learn them — the property real code has
        // and a uniformly random PC stream lacks. Sequential runs from a
        // block entry average ~1/(branch_frac·taken_rate) instructions, so
        // sizing the block count at sites/12 yields roughly `static_sites`
        // recurring dynamic branch sites.
        let blocks = (model.branches.static_sites as u64 / 12).clamp(2, 4096);
        let block_bytes =
            (model.branches.code_footprint / blocks).max(INSTR_BYTES * 4) & !(INSTR_BYTES - 1);
        TraceGenerator {
            rng,
            pc: 0x1_0000,
            recent_gpr: Writers::new(),
            recent_fpr: Writers::new(),
            next_gpr: 0,
            next_fpr: 0,
            data_ptr: 0x4000_0000,
            site_bias,
            // Geometric with success probability 1/mean, support {1, 2, …}.
            ln_dep_miss: (1.0 - 1.0 / model.mean_dep_distance).ln(),
            blocks,
            block_bytes,
            model,
            emitted: 0,
            generated: Counter::default(),
            flushed: 0,
        }
    }

    /// Creates a generator that reports into a telemetry registry: each
    /// construction bumps `trace.generators_created`, and every emitted
    /// instruction is (batch-)counted into `trace.instructions_generated`.
    /// The stream itself is identical to [`TraceGenerator::new`] with the
    /// same arguments.
    pub fn with_telemetry(model: WorkloadModel, seed: u64, telemetry: &Telemetry) -> Self {
        telemetry.counter("trace.generators_created").inc();
        let mut gen = Self::new(model, seed);
        gen.generated = telemetry.counter("trace.instructions_generated");
        gen
    }

    /// Flushes the not-yet-reported emission count into the telemetry
    /// counter. Called automatically on drop; call it earlier to make a
    /// snapshot current.
    pub fn flush_telemetry(&mut self) {
        self.generated.add(self.emitted - self.flushed);
        self.flushed = self.emitted;
    }

    /// The workload model this generator realises.
    pub fn model(&self) -> &WorkloadModel {
        &self.model
    }

    /// Number of instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Generates the next `n` instructions into a vector.
    pub fn take_vec(&mut self, n: usize) -> Vec<Instruction> {
        (0..n).map(|_| self.next_instruction()).collect()
    }

    fn pick_class(&mut self) -> OpClass {
        let mut roll: f64 = self.rng.gen();
        for (class, frac) in self.model.mix.fractions() {
            if roll < frac {
                return class;
            }
            roll -= frac;
        }
        OpClass::AluRr
    }

    /// Geometric dependency distance with the model's mean, clamped to the
    /// recent-writer window.
    fn dep_distance(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let d = (u.ln() / self.ln_dep_miss).ceil().max(1.0);
        (d as usize).min(WINDOW)
    }

    fn pick_src(&mut self, fp: bool) -> Option<Reg> {
        if !self.rng.gen_bool(self.model.dep_density) {
            return None;
        }
        let d = self.dep_distance();
        let window = if fp {
            &self.recent_fpr
        } else {
            &self.recent_gpr
        };
        let held = window.len();
        if held == 0 {
            return None;
        }
        Some(window.recent(d.min(held)))
    }

    fn alloc_dst(&mut self, fp: bool) -> Reg {
        let reg = if fp {
            let r = Reg::fpr(self.next_fpr);
            self.next_fpr = self.next_fpr.wrapping_add(1);
            r
        } else {
            let r = Reg::gpr(self.next_gpr);
            self.next_gpr = self.next_gpr.wrapping_add(1);
            r
        };
        let window = if fp {
            &mut self.recent_fpr
        } else {
            &mut self.recent_gpr
        };
        window.push(reg);
        reg
    }

    /// The memory model in effect for the current phase.
    fn phase_memory(&self) -> crate::model::MemoryModel {
        match self.model.phases {
            Some(phase) if (self.emitted / phase.period) % 2 == 1 => phase.memory,
            _ => self.model.memory,
        }
    }

    fn next_data_addr(&mut self) -> u64 {
        let mem = self.phase_memory();
        if self.rng.gen_bool(mem.spatial_locality) {
            self.data_ptr = self.data_ptr.wrapping_add(mem.stride);
        } else {
            // Random jump: into the hot subset with the configured
            // probability, else anywhere in the working set.
            let span = if mem.hot_probability > 0.0 && self.rng.gen_bool(mem.hot_probability) {
                mem.hot_set
            } else {
                mem.working_set
            };
            let offset = self.rng.gen_range(0..span);
            self.data_ptr = 0x4000_0000 + (offset & !7);
        }
        // Keep the pointer inside the current phase's working set.
        if self.data_ptr >= 0x4000_0000 + mem.working_set {
            self.data_ptr = 0x4000_0000;
        }
        self.data_ptr
    }

    fn next_branch(&mut self) -> BranchInfo {
        let site = (self.pc >> 2) as usize % self.site_bias.len();
        let taken = self.rng.gen_bool(self.site_bias[site]);
        let target = if taken {
            0x1_0000 + self.rng.gen_range(0..self.blocks) * self.block_bytes
        } else {
            self.pc + INSTR_BYTES
        };
        BranchInfo { taken, target }
    }

    /// Produces the next instruction of the stream.
    pub fn next_instruction(&mut self) -> Instruction {
        let class = self.pick_class();
        let pc = self.pc;
        let mut instr = Instruction::new(pc, class);

        match class {
            OpClass::AluRr => {
                if let Some(s) = self.pick_src(false) {
                    instr = instr.with_src(s);
                }
                if let Some(s) = self.pick_src(false) {
                    instr = instr.with_src(s);
                }
                instr = instr.with_dst(self.alloc_dst(false));
            }
            OpClass::AluRx | OpClass::Load => {
                // Address register dependency plus the memory reference.
                if let Some(s) = self.pick_src(false) {
                    instr = instr.with_src(s);
                }
                let addr = self.next_data_addr();
                instr = instr
                    .with_mem(MemRef { addr, size: 8 })
                    .with_dst(self.alloc_dst(false));
            }
            OpClass::Store => {
                if let Some(s) = self.pick_src(false) {
                    instr = instr.with_src(s);
                }
                if let Some(s) = self.pick_src(false) {
                    instr = instr.with_src(s);
                }
                let addr = self.next_data_addr();
                instr = instr.with_mem(MemRef { addr, size: 8 });
            }
            OpClass::Branch => {
                if let Some(s) = self.pick_src(false) {
                    instr = instr.with_src(s);
                }
                let b = self.next_branch();
                self.pc = b.target;
                instr = instr.with_branch(b);
            }
            OpClass::Fp | OpClass::FpLong => {
                if let Some(s) = self.pick_src(true) {
                    instr = instr.with_src(s);
                }
                if let Some(s) = self.pick_src(true) {
                    instr = instr.with_src(s);
                }
                instr = instr.with_dst(self.alloc_dst(true));
            }
        }

        if self.model.serial_fraction > 0.0
            && !instr.class.is_fp()
            && self.rng.gen_bool(self.model.serial_fraction)
        {
            instr = instr.with_serial();
        }
        if class != OpClass::Branch {
            self.pc += INSTR_BYTES;
        }
        self.emitted += 1;
        instr
    }
}

impl Iterator for TraceGenerator {
    type Item = Instruction;

    /// The stream is endless; `next` always yields.
    fn next(&mut self) -> Option<Instruction> {
        Some(self.next_instruction())
    }
}

impl Drop for TraceGenerator {
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BranchModel, InstructionMix, MemoryModel};
    use std::collections::HashSet;

    fn take(model: WorkloadModel, seed: u64, n: usize) -> Vec<Instruction> {
        TraceGenerator::new(model, seed).take_vec(n)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = take(WorkloadModel::modern_like(), 7, 500);
        let b = take(WorkloadModel::modern_like(), 7, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = take(WorkloadModel::modern_like(), 7, 500);
        let b = take(WorkloadModel::modern_like(), 8, 500);
        assert_ne!(a, b);
    }

    #[test]
    fn mix_fractions_are_realised() {
        let n = 20_000;
        let trace = take(WorkloadModel::spec_int_like(), 1, n);
        let branches = trace.iter().filter(|i| i.class == OpClass::Branch).count();
        let loads = trace.iter().filter(|i| i.class == OpClass::Load).count();
        let want_br = InstructionMix::integer().branch;
        let want_ld = InstructionMix::integer().load;
        assert!(
            (branches as f64 / n as f64 - want_br).abs() < 0.02,
            "branch fraction {}",
            branches as f64 / n as f64
        );
        assert!((loads as f64 / n as f64 - want_ld).abs() < 0.02);
    }

    #[test]
    fn memory_ops_carry_addresses() {
        let trace = take(WorkloadModel::spec_int_like(), 2, 2000);
        for i in &trace {
            assert_eq!(i.mem.is_some(), i.class.is_memory(), "{i:?}");
        }
    }

    #[test]
    fn branches_carry_outcomes_and_targets() {
        let trace = take(WorkloadModel::modern_like(), 3, 2000);
        for i in trace.iter().filter(|i| i.class == OpClass::Branch) {
            let b = i.branch.expect("branch must carry info");
            if !b.taken {
                assert_eq!(b.target, i.pc + 4, "not-taken falls through");
            }
        }
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let model = WorkloadModel::new(
            InstructionMix::integer(),
            4.0,
            0.7,
            BranchModel::predictable(),
            MemoryModel::new(4096, 0.5, 8),
        );
        let trace = take(model, 4, 5000);
        for m in trace.iter().filter_map(|i| i.mem) {
            assert!(m.addr >= 0x4000_0000);
            assert!(m.addr < 0x4000_0000 + 4096 + 8, "addr {:#x}", m.addr);
        }
    }

    #[test]
    fn small_working_set_touches_few_lines() {
        let friendly = WorkloadModel::spec_int_like();
        let mut hostile = WorkloadModel::legacy_like();
        // Compare against a uniform (no hot set) scatter over the large set.
        hostile.memory = MemoryModel::new(16 * 1024 * 1024, 0.93, 8);
        let lines = |model, seed| -> usize {
            take(model, seed, 10_000)
                .iter()
                .filter_map(|i| i.mem)
                .map(|m| m.addr >> 6)
                .collect::<HashSet<_>>()
                .len()
        };
        assert!(lines(friendly, 5) < lines(hostile, 5) / 2);
    }

    #[test]
    fn hot_set_concentrates_jumps() {
        let base = MemoryModel::new(16 * 1024 * 1024, 0.5, 8);
        let hot = base.with_hot_set(16 * 1024, 0.9);
        let model_of = |mem| {
            WorkloadModel::new(
                InstructionMix::integer(),
                4.0,
                0.5,
                BranchModel::predictable(),
                mem,
            )
        };
        let lines = |model, seed| -> usize {
            take(model, seed, 10_000)
                .iter()
                .filter_map(|i| i.mem)
                .map(|m| m.addr >> 6)
                .collect::<HashSet<_>>()
                .len()
        };
        assert!(lines(model_of(hot), 9) < lines(model_of(base), 9) / 2);
    }

    #[test]
    fn fp_workload_uses_fp_registers() {
        let trace = take(WorkloadModel::spec_fp_like(), 6, 5000);
        let fp_dsts = trace
            .iter()
            .filter(|i| i.class.is_fp())
            .filter_map(|i| i.dst)
            .filter(|r| matches!(r, Reg::Fpr(_)))
            .count();
        let fp_count = trace.iter().filter(|i| i.class.is_fp()).count();
        assert!(fp_count > 1000, "fp mix should dominate");
        assert_eq!(fp_dsts, fp_count, "every FP op writes an FPR");
    }

    #[test]
    fn dependencies_reference_recent_writers() {
        // With dep_density = 1.0 and tiny mean distance, consecutive ALU ops
        // must chain.
        let model = WorkloadModel::new(
            InstructionMix::new(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            1.0,
            1.0,
            BranchModel::predictable(),
            MemoryModel::cache_friendly(),
        );
        let trace = take(model, 9, 100);
        for w in trace.windows(2) {
            let prev_dst = w[0].dst.unwrap();
            assert!(
                w[1].srcs().any(|s| s == prev_dst),
                "distance-1 chain broken: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn taken_rate_reflects_bias() {
        // Highly biased predictable model: taken rate far from 0.5 per site
        // but the emergent aggregate is within (0,1).
        let trace = take(WorkloadModel::spec_int_like(), 10, 20_000);
        let (taken, total) = trace
            .iter()
            .filter(|i| i.class == OpClass::Branch)
            .fold((0u32, 0u32), |(t, n), i| {
                (t + u32::from(i.is_taken_branch()), n + 1)
            });
        let rate = taken as f64 / total as f64;
        assert!(rate > 0.1 && rate < 0.9, "degenerate taken rate {rate}");
    }

    #[test]
    fn phases_toggle_memory_behaviour() {
        use crate::model::PhaseModel;
        // Base phase: tiny 4 KiB hot loop. Alternate phase: scattered 8 MiB.
        let model = WorkloadModel::new(
            InstructionMix::integer(),
            4.0,
            0.5,
            BranchModel::predictable(),
            MemoryModel::new(4 * 1024, 0.9, 8),
        )
        .with_phases(PhaseModel::new(
            5_000,
            MemoryModel::new(8 * 1024 * 1024, 0.2, 8),
        ));
        let trace = take(model, 3, 10_000);
        let lines = |range: std::ops::Range<usize>| {
            trace[range]
                .iter()
                .filter_map(|i| i.mem)
                .map(|m| m.addr >> 6)
                .collect::<HashSet<_>>()
                .len()
        };
        let first = lines(0..5_000);
        let second = lines(5_000..10_000);
        assert!(
            second > first * 4,
            "alternate phase must scatter: {first} vs {second}"
        );
    }

    #[test]
    fn phased_generator_stays_deterministic() {
        use crate::model::PhaseModel;
        let model = WorkloadModel::spec_int_like()
            .with_phases(PhaseModel::new(1_000, MemoryModel::cache_hostile()));
        assert_eq!(take(model, 8, 4000), take(model, 8, 4000));
    }

    #[test]
    fn iterator_is_endless() {
        let mut gen = TraceGenerator::new(WorkloadModel::spec_int_like(), 11);
        assert!(gen.nth(10_000).is_some());
        assert_eq!(gen.emitted(), 10_001);
    }

    #[test]
    fn telemetry_counts_generated_instructions() {
        let telemetry = Telemetry::new();
        {
            let mut gen =
                TraceGenerator::with_telemetry(WorkloadModel::spec_int_like(), 1, &telemetry);
            let _ = gen.take_vec(500);
            gen.flush_telemetry();
            assert_eq!(
                telemetry.snapshot().counter("trace.instructions_generated"),
                500
            );
            let _ = gen.take_vec(100);
        } // drop flushes the remainder
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("trace.instructions_generated"), 600);
        assert_eq!(snap.counter("trace.generators_created"), 1);
    }

    #[test]
    fn telemetry_does_not_perturb_the_stream() {
        let telemetry = Telemetry::new();
        let mut counted =
            TraceGenerator::with_telemetry(WorkloadModel::modern_like(), 5, &telemetry);
        let mut plain = TraceGenerator::new(WorkloadModel::modern_like(), 5);
        assert_eq!(counted.take_vec(200), plain.take_vec(200));
    }

    /// FNV digest of every field of the first `n` instructions of a stream.
    fn digest(model: WorkloadModel, seed: u64, n: usize) -> u64 {
        let reg = |r: Option<Reg>| match r {
            None => 0,
            Some(Reg::Gpr(i)) => 1 + u32::from(i),
            Some(Reg::Fpr(i)) => 1 + u32::from(Reg::FILE_SIZE) + u32::from(i),
        };
        let mut h = Fnv64::new();
        for i in take(model, seed, n) {
            h.write_u64(i.pc)
                .write_u32(i.class as u32)
                .write_u32(reg(i.dst))
                .write_u32(reg(i.src[0]))
                .write_u32(reg(i.src[1]))
                .write_u64(i.mem.map_or(u64::MAX, |m| m.addr))
                .write_u32(i.mem.map_or(0, |m| u32::from(m.size)))
                .write_u64(i.branch.map_or(u64::MAX, |b| b.target))
                .write_bool(i.is_taken_branch())
                .write_bool(i.serial);
        }
        h.finish()
    }

    #[test]
    fn stream_is_pinned() {
        use crate::model::PhaseModel;
        // Every field of every instruction, digested: a change to the
        // generator's arithmetic or draw order moves a digest, and with it
        // every figure and every stored report.
        let plain = WorkloadModel::modern_like();
        let phased = WorkloadModel::spec_fp_like()
            .with_phases(PhaseModel::new(1_500, MemoryModel::cache_hostile()));
        assert_eq!(digest(plain, 7, 10_000), 0xb329_8413_1fea_abb0);
        assert_eq!(digest(phased, 8, 10_000), 0x9e84_d1b1_8cca_79d7);
    }
}
