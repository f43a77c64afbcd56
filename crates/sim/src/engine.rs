//! The timing engine: a cycle-accurate interval simulator of the paper's
//! 4-issue in-order superscalar pipeline.
//!
//! Every instruction's passage through the machine is resolved to exact
//! cycle numbers under the configured stage plan, port widths, branch
//! predictor and cache hierarchy. The engine is deterministic: the same
//! trace and configuration always produce the same cycle counts, per-unit
//! activity, and hazard attribution.
//!
//! The simulation style is *interval* (scoreboard) simulation: instead of
//! iterating machine state cycle by cycle, each instruction's stage entry
//! times are computed from its predecessors' times and resource
//! availability. For an in-order machine this is exact, and it yields the
//! per-unit occupancy counts the power model needs.
//!
//! The engine itself is a thin per-instruction orchestrator over the
//! explicit stage units of [`crate::stage`]: the [`FrontEnd`] fetches and
//! decodes, the [`HazardUnit`] scores sources and classifies stalls, the
//! [`IssueStage`] binds issue cycles, and the [`ExecCore`] runs the cache
//! segment, the E-unit and retirement. [`Engine::step_timing`] wires their
//! calls together in the exact operation order of the original fused body,
//! so the decomposition is invisible in any [`SimReport`].

use crate::cache::Hierarchy;
use crate::config::{ConfigError, IssuePolicy, SimConfig, StagePlan, Unit};
use crate::hazard::HazardKind;
use crate::predictor::Gshare;
use crate::report::SimReport;
use crate::stage::{ExecCore, FrontEnd, HazardUnit, IssueStage, StallInputs, Tables};
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::isa::Instruction;

/// Static telemetry metric names for the aggregate flush, resolved at
/// compile time so neither the engine nor the replay kernel formats or
/// allocates a single string when flushing a run window. Array entries
/// follow [`HazardKind::ALL`] order and the report's l1d/l1i/l2 cache
/// order respectively, and must stay in lockstep with the names tested by
/// the manifest/telemetry suites.
pub(crate) mod metric_names {
    /// `sim.stage.hazard.<kind>.events`, in `HazardKind::ALL` order.
    pub(crate) const HAZARD_EVENTS: [&str; 4] = [
        "sim.stage.hazard.control.events",
        "sim.stage.hazard.data.events",
        "sim.stage.hazard.memory.events",
        "sim.stage.hazard.structural.events",
    ];
    /// `sim.stage.hazard.<kind>.stall_cycles`, in `HazardKind::ALL` order.
    pub(crate) const HAZARD_STALL_CYCLES: [&str; 4] = [
        "sim.stage.hazard.control.stall_cycles",
        "sim.stage.hazard.data.stall_cycles",
        "sim.stage.hazard.memory.stall_cycles",
        "sim.stage.hazard.structural.stall_cycles",
    ];
    /// `sim.cache.<level>.hits` for the l1d, l1i, l2 levels.
    pub(crate) const CACHE_HITS: [&str; 3] = [
        "sim.cache.l1d.hits",
        "sim.cache.l1i.hits",
        "sim.cache.l2.hits",
    ];
    /// `sim.cache.<level>.misses` for the l1d, l1i, l2 levels.
    pub(crate) const CACHE_MISSES: [&str; 3] = [
        "sim.cache.l1d.misses",
        "sim.cache.l1i.misses",
        "sim.cache.l2.misses",
    ];
}

/// Cycle-level timing of one instruction's passage through the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrTiming {
    /// Cycle the instruction entered decode.
    pub decode: u64,
    /// Cycle it issued to the E-unit.
    pub issue: u64,
    /// Cycle its execution completed.
    pub exec_done: u64,
    /// Cycle it retired.
    pub retire: u64,
}

/// The pipeline timing engine.
///
/// # Examples
///
/// ```
/// use pipedepth_sim::{Engine, SimConfig};
/// use pipedepth_trace::{TraceGenerator, WorkloadModel};
///
/// let mut engine = Engine::new(SimConfig::paper(8));
/// let mut gen = TraceGenerator::new(WorkloadModel::spec_int_like(), 1);
/// let report = engine.run(&mut gen, 10_000);
/// assert!(report.cpi() > 0.25, "cannot beat the 4-wide issue limit");
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    config: SimConfig,
    plan: StagePlan,
    /// The cache hierarchy is shared state: the front end fetches code
    /// lines and the exec core accesses data through the same hierarchy.
    caches: Hierarchy,
    /// Per-configuration latency tables (see [`Tables`]).
    tables: Tables,

    front_end: FrontEnd,
    hazard_unit: HazardUnit,
    issue_stage: IssueStage,
    exec_core: ExecCore,

    instructions: u64,
    /// Cycle at which the current measurement window opened.
    stats_base_cycle: u64,
    activity: [u64; Unit::ALL.len()],

    telemetry: Telemetry,
    /// Statistic totals already flushed into the telemetry registry;
    /// flushing records only the delta since this watermark, once per run
    /// window, so the per-instruction hot path stays free of atomics.
    flushed: StatTotals,
}

/// Cumulative statistic totals, captured to flush per-run deltas into the
/// telemetry counters.
#[derive(Debug, Clone, Copy, Default)]
struct StatTotals {
    instructions: u64,
    hazard_events: [u64; HazardKind::ALL.len()],
    hazard_stalls: [u64; HazardKind::ALL.len()],
    fetch_stall_cycles: u64,
    redirects: u64,
    serialized_ops: u64,
    distinct_issue_cycles: u64,
    memory_wait_cycles: u64,
    predictor_observed: u64,
    predictor_correct: u64,
    /// `(accesses, misses)` for the l1d, l1i, l2 levels.
    cache: [(u64, u64); 3],
}

impl Engine {
    /// Combined capacity, in instructions, of the decoupling queues between
    /// decode and issue (address + execution queues) at depth `p`. Queues
    /// are sized with the pipeline — a deeper machine needs more
    /// instructions in flight to cover its own latencies, and the paper's
    /// expansion methodology grows the queue stages alongside the units.
    /// With `scaled_queues` disabled the capacity is a fixed 16 entries.
    pub fn queue_capacity(depth: u32) -> usize {
        (8 + 2 * depth) as usize
    }

    /// Creates an engine for one pipeline configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use [`Engine::try_new`] to
    /// handle that case as an error.
    pub fn new(config: SimConfig) -> Self {
        Self::try_new(config).expect("simulator configuration must be valid")
    }

    /// Creates an engine for one pipeline configuration, validated.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by [`SimConfig::validate`].
    pub fn try_new(config: SimConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let plan = StagePlan::try_for_depth(config.depth)?;
        let caches = Hierarchy::try_new(config.cache)?;
        let tables = Tables::new(&config, &plan);
        Ok(Engine {
            front_end: FrontEnd::new(&config)?,
            hazard_unit: HazardUnit::new(),
            issue_stage: IssueStage::new(config.width, tables.queue_capacity),
            exec_core: ExecCore::new(config.width, config.cache_ports),
            config,
            plan,
            caches,
            tables,
            instructions: 0,
            stats_base_cycle: 0,
            activity: [0; Unit::ALL.len()],
            telemetry: Telemetry::disabled(),
            flushed: StatTotals::default(),
        })
    }

    /// Attaches a telemetry handle (builder style). [`Engine::run`] and
    /// [`Engine::warm_up`] flush aggregate statistics into it — counters
    /// under `sim.*` — once per run window.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The configuration this engine realises.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The stage plan in effect.
    pub fn plan(&self) -> &StagePlan {
        &self.plan
    }

    /// The cache hierarchy (for inspection).
    pub fn caches(&self) -> &Hierarchy {
        &self.caches
    }

    /// The branch predictor (for inspection).
    pub fn predictor(&self) -> &Gshare {
        self.front_end.predictor()
    }

    /// The fetch/decode front end (for inspection).
    pub fn front_end(&self) -> &FrontEnd {
        &self.front_end
    }

    /// The scoreboard and stall classifier (for inspection).
    pub fn hazard_unit(&self) -> &HazardUnit {
        &self.hazard_unit
    }

    /// The issue stage (for inspection).
    pub fn issue_stage(&self) -> &IssueStage {
        &self.issue_stage
    }

    /// The execution core (for inspection).
    pub fn exec_core(&self) -> &ExecCore {
        &self.exec_core
    }

    #[inline]
    fn bump_activity(&mut self, unit: Unit, stages: u64) {
        // Unit is fieldless and `ALL` is in declaration order, so the
        // discriminant is the activity index.
        self.activity[unit as usize] += stages;
    }

    /// Simulates one instruction, returning the cycle it retires.
    pub fn step(&mut self, instr: &Instruction) -> u64 {
        self.step_timing(instr).retire
    }

    /// Simulates one instruction, returning its full stage timing.
    ///
    /// This is the cycle orchestrator: each stage unit resolves its own
    /// segment, in the machine's order — fetch/decode, source scoreboard,
    /// address/cache segment, issue, hazard attribution, execute, branch
    /// resolution, retire.
    pub fn step_timing(&mut self, instr: &Instruction) -> InstrTiming {
        let tables = self.tables;

        // ---- Front end: fetch + decode --------------------------------
        let queue_floor = self.issue_stage.queue_floor();
        let fd = self.front_end.fetch_and_decode(
            instr,
            &mut self.caches,
            &tables,
            &mut self.hazard_unit,
            queue_floor,
        );

        // ---- Scoreboard: source readiness -----------------------------
        let src = self.hazard_unit.sources(instr);

        // ---- RX address/cache segment ---------------------------------
        let is_mem = instr.class.is_memory();
        let seg = self.exec_core.memory_segment(
            instr,
            fd.decode_done,
            src.ready,
            &mut self.caches,
            &tables,
            self.config.features.stall_on_use,
        );
        if instr.mem.is_some() {
            self.bump_activity(Unit::Agen, tables.agen);
            self.bump_activity(Unit::Cache, tables.cache);
        }

        // ---- Issue to the E-unit (in order, width-limited) ------------
        let queue_ready = if is_mem {
            seg.pipe_ready
        } else {
            fd.decode_done
        };
        let fp_ready = self.exec_core.fp_ready(instr.class.is_fp());
        let in_order = match self.config.features.issue {
            IssuePolicy::InOrder => true,
            // Out of order: only the instruction's own constraints gate its
            // issue; the decoupling window plays the ROB's role.
            IssuePolicy::OutOfOrder => false,
        };
        let order_floor = if in_order {
            self.issue_stage.last_issue()
        } else {
            0
        };
        let base = queue_ready.max(src.ready).max(fp_ready).max(order_floor);
        let issued = self.issue_stage.bind(base, instr.serial);

        // ---- Hazard attribution ---------------------------------------
        self.hazard_unit.attribute(
            &tables,
            &StallInputs {
                is_mem,
                class: instr.class,
                decode_done: fd.decode_done,
                prev_issue: issued.prev,
                in_order,
                queue_ready,
                src,
                fp_ready,
                miss_extra: seg.miss_extra,
            },
        );

        // ---- Execute + writeback --------------------------------------
        let exec_done = self.exec_core.execute(
            instr,
            issued.at,
            &tables,
            self.config.features.forwarding,
            &seg,
            &mut self.hazard_unit,
        );
        // The iterative tail of a multi-cycle FP operation spins a narrow
        // datapath, not the full E-unit latch complement; only the
        // pipelined pass is charged to the unit's activity.
        self.bump_activity(Unit::Execute, tables.execute);

        // ---- Branch resolution ----------------------------------------
        self.front_end.resolve_branch(
            instr,
            fd.decode_cycle,
            exec_done,
            &tables,
            &mut self.hazard_unit,
        );

        // ---- Completion / retire --------------------------------------
        let retire = self.exec_core.retire(exec_done + tables.complete);
        self.bump_activity(Unit::Decode, tables.decode);
        self.bump_activity(Unit::Complete, tables.complete);

        self.instructions += 1;
        InstrTiming {
            decode: fd.decode_cycle,
            issue: issued.at,
            exec_done,
            retire,
        }
    }

    /// Runs `count` instructions as warmup — caches fill and the predictor
    /// trains, but no statistics are kept. Call before [`Engine::run`] to
    /// measure steady-state behaviour, as the experiment harness does.
    ///
    /// With telemetry attached, only `sim.warmup_instructions` is flushed:
    /// warmup statistics are discarded by design.
    pub fn warm_up<I>(&mut self, trace: I, count: u64)
    where
        I: IntoIterator<Item = Instruction>,
    {
        let mut trace = trace.into_iter();
        for _ in 0..count {
            match trace.next() {
                Some(instr) => {
                    self.step(&instr);
                }
                None => break,
            }
        }
        let warmed = self.instructions.saturating_sub(self.flushed.instructions);
        self.telemetry
            .counter("sim.warmup_instructions")
            .add(warmed);
        self.reset_stats();
    }

    /// Opens a fresh measurement window: zeroes every statistic while
    /// keeping all microarchitectural state (caches, predictor, in-flight
    /// timing) intact.
    pub fn reset_stats(&mut self) {
        self.instructions = 0;
        self.activity = [0; Unit::ALL.len()];
        self.stats_base_cycle = self.exec_core.finish_cycle();
        self.caches.reset_stats();
        self.front_end.reset_stats();
        self.hazard_unit.reset_stats();
        self.issue_stage.reset_stats();
        self.flushed = StatTotals::default();
    }

    /// Runs `count` instructions from a trace source and produces the
    /// report. With telemetry attached, the run's aggregate statistics are
    /// flushed into the `sim.*` counters on completion.
    pub fn run<I>(&mut self, trace: I, count: u64) -> SimReport
    where
        I: IntoIterator<Item = Instruction>,
    {
        let mut trace = trace.into_iter();
        for _ in 0..count {
            match trace.next() {
                Some(instr) => {
                    self.step(&instr);
                }
                None => break,
            }
        }
        self.flush_telemetry();
        self.report()
    }

    fn stat_totals(&self) -> StatTotals {
        let predictor = self.front_end.predictor();
        let mut totals = StatTotals {
            instructions: self.instructions,
            fetch_stall_cycles: self.front_end.fetch_stall_cycles(),
            redirects: self.front_end.mispredicts(),
            serialized_ops: self.issue_stage.serialized_ops(),
            distinct_issue_cycles: self.issue_stage.distinct_issue_cycles(),
            memory_wait_cycles: self.hazard_unit.memory_wait_cycles(),
            predictor_observed: predictor.observed(),
            predictor_correct: predictor.correct(),
            cache: [
                (self.caches.l1().accesses(), self.caches.l1().misses()),
                (
                    self.caches.l1i().map_or(0, |c| c.accesses()),
                    self.caches.l1i().map_or(0, |c| c.misses()),
                ),
                (self.caches.l2().accesses(), self.caches.l2().misses()),
            ],
            ..StatTotals::default()
        };
        for (i, &kind) in HazardKind::ALL.iter().enumerate() {
            totals.hazard_events[i] = self.hazard_unit.stats().events(kind);
            totals.hazard_stalls[i] = self.hazard_unit.stats().stall_cycles(kind);
        }
        totals
    }

    /// Flushes the delta of every statistic since the last flush into the
    /// attached telemetry registry, under per-stage `sim.stage.*` names.
    /// No-op when telemetry is disabled.
    fn flush_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let now = self.stat_totals();
        let prev = std::mem::replace(&mut self.flushed, now);
        let t = &self.telemetry;
        t.counter("sim.instructions")
            .add(now.instructions.saturating_sub(prev.instructions));
        for i in 0..HazardKind::ALL.len() {
            t.counter(metric_names::HAZARD_EVENTS[i])
                .add(now.hazard_events[i].saturating_sub(prev.hazard_events[i]));
            t.counter(metric_names::HAZARD_STALL_CYCLES[i])
                .add(now.hazard_stalls[i].saturating_sub(prev.hazard_stalls[i]));
        }
        t.counter("sim.stage.frontend.fetch_stall_cycles").add(
            now.fetch_stall_cycles
                .saturating_sub(prev.fetch_stall_cycles),
        );
        t.counter("sim.stage.frontend.redirects")
            .add(now.redirects.saturating_sub(prev.redirects));
        t.counter("sim.stage.issue.serialized_ops")
            .add(now.serialized_ops.saturating_sub(prev.serialized_ops));
        t.counter("sim.stage.issue.distinct_cycles").add(
            now.distinct_issue_cycles
                .saturating_sub(prev.distinct_issue_cycles),
        );
        t.counter("sim.stage.exec.memory_wait_cycles").add(
            now.memory_wait_cycles
                .saturating_sub(prev.memory_wait_cycles),
        );
        let observed = now
            .predictor_observed
            .saturating_sub(prev.predictor_observed);
        let hits = now.predictor_correct.saturating_sub(prev.predictor_correct);
        t.counter("sim.predictor.hits").add(hits);
        t.counter("sim.predictor.misses")
            .add(observed.saturating_sub(hits));
        for i in 0..3 {
            let accesses = now.cache[i].0.saturating_sub(prev.cache[i].0);
            let misses = now.cache[i].1.saturating_sub(prev.cache[i].1);
            t.counter(metric_names::CACHE_HITS[i])
                .add(accesses.saturating_sub(misses));
            t.counter(metric_names::CACHE_MISSES[i]).add(misses);
        }
    }

    /// Produces the report for everything simulated so far.
    pub fn report(&self) -> SimReport {
        SimReport::gather(
            self.config,
            self.plan,
            self.instructions,
            self.exec_core
                .finish_cycle()
                .saturating_sub(self.stats_base_cycle),
            self.issue_stage.distinct_issue_cycles(),
            &self.activity,
            self.hazard_unit.stats().clone(),
            self.front_end.branches(),
            self.front_end.mispredicts(),
            self.caches.l1().miss_rate(),
            self.caches.l2().miss_rate(),
            self.caches.l1i().map(|c| c.miss_rate()).unwrap_or(0.0),
            self.hazard_unit.memory_wait_cycles(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazard::HazardKind;
    use pipedepth_trace::isa::{BranchInfo, MemRef, OpClass, Reg};

    fn alu(pc: u64, dst: u8, srcs: &[u8]) -> Instruction {
        let mut i = Instruction::new(pc, OpClass::AluRr).with_dst(Reg::gpr(dst));
        for &s in srcs {
            i = i.with_src(Reg::gpr(s));
        }
        i
    }

    #[test]
    fn independent_alus_fill_the_width() {
        let mut e = Engine::new(SimConfig::paper(8));
        // 8 independent ALU ops, width 4: two issue cycles.
        for k in 0..8 {
            e.step(&alu(k * 4, k as u8, &[]));
        }
        let r = e.report();
        assert_eq!(r.instructions, 8);
        assert_eq!(r.distinct_issue_cycles, 2, "4-wide ⇒ 8 ops in 2 cycles");
        assert!((r.alpha() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dependent_chain_serialises() {
        let mut e = Engine::new(SimConfig::paper(8));
        // Each op reads the previous op's destination.
        e.step(&alu(0, 0, &[]));
        for k in 1..10u8 {
            e.step(&alu(k as u64 * 4, k, &[k - 1]));
        }
        let r = e.report();
        // Chain of 10 with E-unit latency ≥ 1: at least 10 issue cycles.
        assert!(r.distinct_issue_cycles >= 10);
        assert!(r.hazards.events(HazardKind::Data) > 0);
    }

    #[test]
    fn mispredicted_branch_costs_a_refill() {
        let depth = 16;
        let mut e = Engine::new(SimConfig::paper(depth));
        // Train nothing; a not-taken-predicted branch that is taken.
        let b = Instruction::new(0x100, OpClass::Branch).with_branch(BranchInfo {
            taken: false,
            target: 0x104,
        });
        // First make the predictor strongly taken by observing taken
        // branches at this pc.
        for _ in 0..8 {
            e.step(
                &Instruction::new(0x100, OpClass::Branch).with_branch(BranchInfo {
                    taken: true,
                    target: 0x200,
                }),
            );
        }
        let before = e.report().hazards.events(HazardKind::Control);
        e.step(&b); // now mispredicted (predictor says taken)
        e.step(&alu(0x104, 1, &[]));
        let r = e.report();
        assert!(
            r.hazards.events(HazardKind::Control) > before,
            "mispredict must record a control hazard"
        );
        // The refill is at least the decode→execute transit.
        let plan = StagePlan::try_for_depth(depth).expect("valid depth");
        assert!(r.hazards.stall_cycles(HazardKind::Control) as u32 >= plan.decode + plan.execute);
    }

    #[test]
    fn cache_miss_delays_dependent() {
        let mut e = Engine::new(SimConfig::paper(8));
        let load = Instruction::new(0, OpClass::Load)
            .with_mem(MemRef {
                addr: 0x9999_0000,
                size: 8,
            })
            .with_dst(Reg::gpr(1));
        e.step(&load); // cold miss to memory
        e.step(&alu(4, 2, &[1])); // consumer
        let r = e.report();
        // The stall is recorded (capped at two pipeline drains for γ).
        assert!(r.hazards.events(HazardKind::Memory) >= 1);
        assert!(
            r.hazards.stall_cycles(HazardKind::Memory) >= e.config.depth as u64,
            "memory stall cycles {}",
            r.hazards.stall_cycles(HazardKind::Memory)
        );
    }

    #[test]
    fn fp_is_structurally_serialised() {
        let mut e = Engine::new(SimConfig::paper(8));
        for k in 0..4u8 {
            let i = Instruction::new(k as u64 * 4, OpClass::Fp).with_dst(Reg::fpr(k));
            e.step(&i);
        }
        let r = e.report();
        // Independent FP ops cannot dual-issue: the FP unit is busy. The
        // wait is occupancy (reduced α), deliberately not a hazard event.
        assert!(r.distinct_issue_cycles >= 4);
        assert!((r.alpha() - 1.0).abs() < 1e-9);
        assert_eq!(r.hazards.events(HazardKind::Structural), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut e = Engine::new(SimConfig::paper(12));
            let mut gen = pipedepth_trace::TraceGenerator::new(
                pipedepth_trace::WorkloadModel::modern_like(),
                3,
            );
            e.run(&mut gen, 5_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.hazards, b.hazards);
    }

    #[test]
    fn deeper_pipeline_takes_more_cycles() {
        let cpi_at = |depth| {
            let mut e = Engine::new(SimConfig::paper(depth));
            let mut gen = pipedepth_trace::TraceGenerator::new(
                pipedepth_trace::WorkloadModel::spec_int_like(),
                7,
            );
            e.run(&mut gen, 20_000).cpi()
        };
        let shallow = cpi_at(4);
        let deep = cpi_at(20);
        assert!(deep > shallow, "CPI {shallow} -> {deep}");
    }

    #[test]
    fn time_per_instruction_is_convex_in_depth() {
        // BIPS (1/time) should peak at an intermediate depth: the shallow
        // design has a slow clock, the deep one pays hazards.
        let time_at = |depth| {
            let mut e = Engine::new(SimConfig::paper(depth));
            let mut gen = pipedepth_trace::TraceGenerator::new(
                pipedepth_trace::WorkloadModel::spec_int_like(),
                7,
            );
            e.run(&mut gen, 20_000).time_per_instruction_fo4()
        };
        let t2 = time_at(2);
        let t14 = time_at(14);
        assert!(t14 < t2, "pipelining must help initially: {t2} vs {t14}");
    }

    #[test]
    fn activity_scales_with_plan() {
        let mut e = Engine::new(SimConfig::paper(20));
        let mut gen = pipedepth_trace::TraceGenerator::new(
            pipedepth_trace::WorkloadModel::spec_int_like(),
            5,
        );
        let r = e.run(&mut gen, 5_000);
        let plan = StagePlan::try_for_depth(20).expect("valid depth");
        let decode_activity = r.unit_activity(Unit::Decode);
        assert_eq!(decode_activity, 5_000 * plan.decode as u64);
        // Cache activity only for memory instructions.
        assert!(r.unit_activity(Unit::Cache) < 5_000 * plan.cache as u64);
        assert!(r.unit_activity(Unit::Cache) > 0);
    }

    fn run_with_features(features: crate::config::Features, depth: u32) -> SimReport {
        let cfg = SimConfig::paper(depth).with_features(features);
        let mut e = Engine::new(cfg);
        let mut gen =
            pipedepth_trace::TraceGenerator::new(pipedepth_trace::WorkloadModel::modern_like(), 21);
        e.warm_up(&mut gen, 10_000);
        e.run(&mut gen, 20_000)
    }

    #[test]
    fn out_of_order_is_at_least_as_fast() {
        use crate::config::{Features, IssuePolicy};
        let inorder = run_with_features(Features::default(), 12);
        let ooo = run_with_features(
            Features {
                issue: IssuePolicy::OutOfOrder,
                ..Features::default()
            },
            12,
        );
        assert!(
            ooo.cpi() <= inorder.cpi() + 1e-9,
            "OoO {} vs in-order {}",
            ooo.cpi(),
            inorder.cpi()
        );
    }

    #[test]
    fn disabling_forwarding_slows_dependent_code() {
        use crate::config::Features;
        let with = run_with_features(Features::default(), 16);
        let without = run_with_features(
            Features {
                forwarding: false,
                ..Features::default()
            },
            16,
        );
        assert!(
            without.cpi() > with.cpi(),
            "no-forwarding {} vs forwarding {}",
            without.cpi(),
            with.cpi()
        );
    }

    #[test]
    fn disabling_stall_on_use_slows_memory_code() {
        use crate::config::Features;
        let with = run_with_features(Features::default(), 12);
        let without = run_with_features(
            Features {
                stall_on_use: false,
                ..Features::default()
            },
            12,
        );
        assert!(without.cpi() >= with.cpi());
    }

    #[test]
    fn fixed_queues_throttle_deep_pipelines() {
        use crate::config::Features;
        let scaled = run_with_features(Features::default(), 24);
        let fixed = run_with_features(
            Features {
                scaled_queues: false,
                ..Features::default()
            },
            24,
        );
        assert!(
            fixed.cpi() >= scaled.cpi(),
            "fixed {} vs scaled {}",
            fixed.cpi(),
            scaled.cpi()
        );
    }

    #[test]
    fn prefetcher_reduces_streaming_misses() {
        let mut cfg = SimConfig::paper(8);
        cfg.cache.prefetch = false;
        let mut e_off = Engine::new(cfg);
        let mut e_on = Engine::new(SimConfig::paper(8));
        let model = pipedepth_trace::WorkloadModel::spec_fp_like();
        let mut g1 = pipedepth_trace::TraceGenerator::new(model, 5);
        let mut g2 = pipedepth_trace::TraceGenerator::new(model, 5);
        e_off.warm_up(&mut g1, 10_000);
        e_on.warm_up(&mut g2, 10_000);
        let off = e_off.run(&mut g1, 20_000);
        let on = e_on.run(&mut g2, 20_000);
        assert!(
            on.l1_miss_rate < off.l1_miss_rate,
            "prefetch on {} vs off {}",
            on.l1_miss_rate,
            off.l1_miss_rate
        );
    }

    #[test]
    fn large_code_footprint_misses_icache() {
        let run_model = |model| {
            let mut e = Engine::new(SimConfig::paper(10));
            let mut gen = pipedepth_trace::TraceGenerator::new(model, 13);
            e.warm_up(&mut gen, 10_000);
            e.run(&mut gen, 20_000)
        };
        let legacy = run_model(pipedepth_trace::WorkloadModel::legacy_like());
        let spec = run_model(pipedepth_trace::WorkloadModel::spec_int_like());
        assert!(
            legacy.l1i_miss_rate > spec.l1i_miss_rate,
            "legacy {} vs specint {}",
            legacy.l1i_miss_rate,
            spec.l1i_miss_rate
        );
        assert!(spec.l1i_miss_rate < 0.05, "specint code is cache-resident");
    }

    #[test]
    fn disabling_icache_makes_fetch_free() {
        let mut cfg = SimConfig::paper(10);
        cfg.cache.l1i_bytes = 0;
        let mut e = Engine::new(cfg);
        let mut gen =
            pipedepth_trace::TraceGenerator::new(pipedepth_trace::WorkloadModel::legacy_like(), 13);
        let r = e.run(&mut gen, 10_000);
        assert_eq!(r.l1i_miss_rate, 0.0);
    }

    #[test]
    fn timing_stages_are_ordered() {
        let mut e = Engine::new(SimConfig::paper(12));
        let mut gen =
            pipedepth_trace::TraceGenerator::new(pipedepth_trace::WorkloadModel::modern_like(), 17);
        let mut last_retire = 0;
        for _ in 0..2000 {
            let i = gen.next_instruction();
            let t = e.step_timing(&i);
            assert!(t.decode <= t.issue, "{t:?}");
            assert!(t.issue < t.exec_done, "{t:?}");
            assert!(t.exec_done < t.retire, "{t:?}");
            // Retirement is in order.
            assert!(t.retire >= last_retire, "{t:?} after {last_retire}");
            last_retire = t.retire;
        }
    }

    #[test]
    fn in_order_issue_is_monotone() {
        let mut e = Engine::new(SimConfig::paper(10));
        let mut gen = pipedepth_trace::TraceGenerator::new(
            pipedepth_trace::WorkloadModel::spec_int_like(),
            18,
        );
        let mut last_issue = 0;
        for _ in 0..2000 {
            let i = gen.next_instruction();
            let t = e.step_timing(&i);
            assert!(t.issue >= last_issue, "in-order issue went backwards");
            last_issue = t.issue;
        }
    }

    #[test]
    fn empty_run_reports_zero() {
        let e = Engine::new(SimConfig::paper(8));
        let r = e.report();
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.cpi(), 0.0);
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let mut cfg = SimConfig::paper(8);
        cfg.width = 0;
        assert!(matches!(
            Engine::try_new(cfg),
            Err(ConfigError::Width { width: 0 })
        ));
        assert!(Engine::try_new(SimConfig::paper(8)).is_ok());
    }

    #[test]
    fn stage_units_are_inspectable() {
        let mut e = Engine::new(SimConfig::paper(10));
        let mut gen =
            pipedepth_trace::TraceGenerator::new(pipedepth_trace::WorkloadModel::modern_like(), 23);
        let r = e.run(&mut gen, 5_000);
        // The report is assembled from the units' own counters.
        assert_eq!(e.front_end().branches(), r.branches);
        assert_eq!(e.front_end().mispredicts(), r.mispredicts);
        assert_eq!(
            e.issue_stage().distinct_issue_cycles(),
            r.distinct_issue_cycles
        );
        assert_eq!(e.hazard_unit().stats(), &r.hazards);
        assert_eq!(e.hazard_unit().memory_wait_cycles(), r.memory_wait_cycles);
        assert!(e.exec_core().finish_cycle() >= r.cycles);
    }

    #[test]
    fn run_flushes_aggregate_counters() {
        let telemetry = Telemetry::new();
        let mut e = Engine::new(SimConfig::paper(12)).with_telemetry(telemetry.clone());
        let mut gen =
            pipedepth_trace::TraceGenerator::new(pipedepth_trace::WorkloadModel::modern_like(), 3);
        e.warm_up(&mut gen, 1_000);
        let report = e.run(&mut gen, 5_000);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("sim.warmup_instructions"), 1_000);
        assert_eq!(snap.counter("sim.instructions"), 5_000);
        assert_eq!(
            snap.counter("sim.predictor.hits") + snap.counter("sim.predictor.misses"),
            report.branches
        );
        for kind in HazardKind::ALL {
            assert_eq!(
                snap.counter(&format!("sim.stage.hazard.{kind}.events")),
                report.hazards.events(kind),
                "hazard {kind}"
            );
            assert_eq!(
                snap.counter(&format!("sim.stage.hazard.{kind}.stall_cycles")),
                report.hazards.stall_cycles(kind),
                "hazard {kind}"
            );
        }
        // Per-stage counters track the report's view of the same window.
        assert_eq!(
            snap.counter("sim.stage.frontend.redirects"),
            report.mispredicts
        );
        assert_eq!(
            snap.counter("sim.stage.issue.distinct_cycles"),
            report.distinct_issue_cycles
        );
        assert_eq!(
            snap.counter("sim.stage.exec.memory_wait_cycles"),
            report.memory_wait_cycles
        );
        assert!(snap.counter("sim.cache.l1d.hits") > 0);
        assert!(snap.counter("sim.cache.l1i.hits") > 0);
        // A second run adds only its own delta.
        e.run(&mut gen, 1_000);
        assert_eq!(telemetry.snapshot().counter("sim.instructions"), 6_000);
    }

    #[test]
    fn run_accepts_into_iterator() {
        // A materialised Vec (an IntoIterator, not an Iterator) works too.
        let mut gen =
            pipedepth_trace::TraceGenerator::new(pipedepth_trace::WorkloadModel::modern_like(), 9);
        let trace = gen.take_vec(2_000);
        let mut from_vec = Engine::new(SimConfig::paper(10));
        let a = from_vec.run(trace.clone(), 2_000);
        let mut from_iter = Engine::new(SimConfig::paper(10));
        let b = from_iter.run(trace.iter().copied(), 2_000);
        assert_eq!(a.cycles, b.cycles);
    }
}
