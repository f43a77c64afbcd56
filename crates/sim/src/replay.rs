//! The replay pass: a tight per-depth timing kernel over an
//! [`AnnotatedTrace`], batched across depth lanes.
//!
//! With fetch classes, data-access classes and branch outcomes resolved
//! once by [`crate::annotate()`], what remains per depth is pure interval
//! timing: port acquisitions, stage-latency arithmetic, the scoreboard,
//! and hazard attribution. [`replay_sweep`] walks the annotation **once**,
//! decoding each instruction's note a single time and advancing every
//! depth lane through it before moving on — so a whole sweep costs one
//! linear pass over the annotation's struct-of-arrays columns instead of
//! D independent engine passes, each re-running the cache and predictor
//! models.
//!
//! Statistics that depend only on the annotation are not a lane's
//! business. Cache accesses and misses, branches and mispredicts,
//! serialised ops, per-unit activity, and the fetch-miss memory waits and
//! hazards are integer sums of per-class counts times per-lane constants
//! (a miss penalty, the hazard cap, a stage latency). A `WindowCounts`
//! tallies the measured window's classes once per sweep, and each lane's
//! values are multiplied out from it when its report is assembled.
//!
//! Each `Lane` therefore holds only timing state: four ports, the issue
//! ring, a flat 32-slot scoreboard, a handful of scalars, the hazards its
//! own stalls and redirects record, and the latency table its step reads.
//! A full 24-lane sweep's mutable state stays cache-resident while the
//! annotation streams through. The step is inlined into the sweep loop
//! and its ports grant without branches, so consecutive lanes'
//! independent steps overlap in the CPU.
//!
//! A note's shape is the same in every lane, so it is tested once per
//! note, not once per lane. `Lane::step` is generic over the note's
//! class, serial flag and whether it opens a counted fetch; `advance`
//! matches each note on those three and runs every lane through the
//! matching copy, one of 28. In each copy the class-derived tests (RX
//! path, FP unit, store, load, `AluRx`, the class's extra E-unit cycles),
//! the serial close-outs and the fetch penalty's guard are constants;
//! every copy performs the engine's operations in the engine's order. The
//! fields the shape does not fix — the memory-operand flag, the register
//! slots, the fetch and data classes and the branch outcome — stay runtime
//! reads, so an annotation of any shape replays exactly, not only the
//! shapes the generator emits.
//!
//! Exactness is the contract: every port acquisition and every hazard
//! record happens in the precise order of the stage engine, and the
//! differential suite (`sim/tests/replay_equivalence.rs`) pins the
//! resulting [`SimReport`]s bit-identical to [`crate::Engine`]'s, on
//! generated streams and on a hand-built one that visits every note shape.

use crate::annotate::{AnnotatedTrace, FLAG_MEM, FLAG_SERIAL, NO_REG};
use crate::config::{ConfigError, IssuePolicy, SimConfig, StagePlan, Unit};
use crate::engine::metric_names;
use crate::hazard::{HazardKind, HazardStats};
use crate::report::SimReport;
use crate::stage::{IssueRing, Tables, WriterKind, REG_SLOTS};
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::isa::OpClass;
use std::ops::Range;

/// One instruction's note, decoded from the annotation columns once per
/// position and shared by every lane.
#[derive(Debug, Clone, Copy)]
struct Note {
    class: OpClass,
    serial: bool,
    has_mem: bool,
    dst: u8,
    src: [u8; 2],
    fetch: u8,
    data: u8,
    branch: u8,
}

impl AnnotatedTrace {
    #[inline]
    fn note(&self, i: usize) -> Note {
        let flags = self.flags[i];
        Note {
            class: OpClass::ALL[self.classes[i] as usize],
            serial: flags & FLAG_SERIAL != 0,
            has_mem: flags & FLAG_MEM != 0,
            dst: self.dst[i],
            src: self.src[i],
            fetch: self.fetch[i],
            data: self.data[i],
            branch: self.branch[i],
        }
    }
}

/// The depth-invariant statistics of one measured window, counted once
/// per sweep. Each array is indexed by the annotation column's own
/// encoding (`0` = no event, then the level + 1 or the branch outcome),
/// so a miss class's count lines up with `Tables::miss_penalty[class - 1]`.
#[derive(Debug, Clone, Copy, Default)]
struct WindowCounts {
    instructions: u64,
    /// Instructions per `fetch` class.
    fetch: [u64; 4],
    /// Stores per `data` class: they touch the hierarchy but never wait
    /// for it.
    stores: [u64; 4],
    /// Every other instruction per `data` class (`0` = no memory operand).
    non_stores: [u64; 4],
    /// Instructions per `branch` outcome.
    branch: [u64; 3],
    serialized: u64,
}

impl WindowCounts {
    fn count(notes: &AnnotatedTrace, window: Range<usize>) -> WindowCounts {
        let mut c = WindowCounts {
            instructions: window.len() as u64,
            ..WindowCounts::default()
        };
        for i in window {
            c.fetch[notes.fetch[i] as usize] += 1;
            let data = notes.data[i] as usize;
            if notes.classes[i] == OpClass::Store as u8 {
                c.stores[data] += 1;
            } else {
                c.non_stores[data] += 1;
            }
            c.branch[notes.branch[i] as usize] += 1;
            c.serialized += u64::from(notes.flags[i] & FLAG_SERIAL != 0);
        }
        c
    }

    fn branches(&self) -> u64 {
        self.branch[1] + self.branch[2]
    }

    fn mispredicts(&self) -> u64 {
        self.branch[2]
    }

    /// Data accesses per `data` class, stores included.
    fn data(&self, class: usize) -> u64 {
        self.stores[class] + self.non_stores[class]
    }

    fn memory_ops(&self) -> u64 {
        (1..4).map(|class| self.data(class)).sum()
    }

    /// `(accesses, misses)` for the l1d, l1i and l2 levels. A class-2 or
    /// class-3 access missed L1 and went to L2; class 3 missed L2 too.
    fn cache(&self) -> [(u64, u64); 3] {
        let [_, f1, f2, f3] = self.fetch;
        let (d1, d2, d3) = (self.data(1), self.data(2), self.data(3));
        [
            (d1 + d2 + d3, d2 + d3),
            (f1 + f2 + f3, f2 + f3),
            (f2 + f3 + d2 + d3, f3 + d3),
        ]
    }

    /// Cycles the front end stalls on fetch misses under `tables`.
    fn fetch_stall_cycles(&self, tables: &Tables) -> u64 {
        miss_cycles(&self.fetch, tables)
    }

    /// Cycles spent waiting on miss latency under `tables`: every fetch
    /// miss, plus every data miss an instruction other than a store waits
    /// for.
    fn memory_wait_cycles(&self, tables: &Tables) -> u64 {
        self.fetch_stall_cycles(tables) + miss_cycles(&self.non_stores, tables)
    }
}

/// `Σ count × penalty` over the three access classes of one column.
fn miss_cycles(per_class: &[u64; 4], tables: &Tables) -> u64 {
    per_class[1..]
        .iter()
        .zip(&tables.miss_penalty)
        .map(|(n, penalty)| n * penalty)
        .sum()
}

/// One port of a lane: the in-order, width-limited grants of
/// [`crate::stage::Port`], computed with selects instead of branches.
/// Whether a grant opens a new cycle depends on timing, which the branch
/// predictor cannot learn across interleaved lanes; the selects keep the
/// batched loop free of those mispredictions.
#[derive(Debug, Clone, Copy)]
struct LanePort {
    width: u32,
    cycle: u64,
    used: u32,
}

impl LanePort {
    fn new(width: u32) -> LanePort {
        LanePort {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// The earliest cycle ≥ `at` with a free slot; grants never go back.
    #[inline(always)]
    fn acquire(&mut self, at: u64) -> u64 {
        let fresh = at > self.cycle;
        let full = self.used >= self.width;
        self.cycle = if fresh {
            at
        } else {
            self.cycle + u64::from(full)
        };
        self.used = if fresh | full { 1 } else { self.used + 1 };
        self.cycle
    }

    /// Exhausts the current cycle, so the next grant opens a new one.
    fn close_cycle(&mut self) {
        self.used = self.width;
    }
}

/// The timing-only state of one depth configuration: the residue of an
/// [`crate::Engine`] once the cache arrays, predictor table, trace
/// decoding and every depth-invariant statistic are factored out.
#[derive(Debug, Clone)]
struct Lane {
    tables: Tables,
    in_order: bool,
    forwarding: bool,
    stall_on_use: bool,

    // Front end.
    decode_port: LanePort,
    redirect_at: u64,
    last_decode: u64,
    // Scoreboard.
    reg_ready: [u64; REG_SLOTS],
    reg_writer: [WriterKind; REG_SLOTS],
    // Issue.
    issue_port: LanePort,
    ring: IssueRing,
    last_issue: u64,
    last_issue_cycle_seen: Option<u64>,
    // Exec core.
    cache_port: LanePort,
    retire_port: LanePort,
    fp_busy_until: u64,
    last_retire: u64,
    finish_cycle: u64,

    // Window statistics that depend on timing (zeroed at the warmup
    // boundary): the issue-stall and control hazards, and the distinct
    // issue cycles.
    stats_base_cycle: u64,
    hazards: HazardStats,
    distinct: u64,
}

impl Lane {
    fn new(config: &SimConfig, plan: &StagePlan) -> Lane {
        let tables = Tables::new(config, plan);
        Lane {
            in_order: match config.features.issue {
                IssuePolicy::InOrder => true,
                IssuePolicy::OutOfOrder => false,
            },
            forwarding: config.features.forwarding,
            stall_on_use: config.features.stall_on_use,
            decode_port: LanePort::new(config.width),
            redirect_at: 0,
            last_decode: 0,
            reg_ready: [0; REG_SLOTS],
            reg_writer: [WriterKind::Normal; REG_SLOTS],
            issue_port: LanePort::new(config.width),
            ring: IssueRing::new(tables.queue_capacity),
            last_issue: 0,
            last_issue_cycle_seen: None,
            cache_port: LanePort::new(config.cache_ports),
            retire_port: LanePort::new(config.width),
            fp_busy_until: 0,
            last_retire: 0,
            finish_cycle: 0,
            stats_base_cycle: 0,
            hazards: HazardStats::new(),
            distinct: 0,
            tables,
        }
    }

    /// Advances this lane through one annotated instruction, in exactly
    /// the stage engine's operation order. The note's shape is the step's
    /// type: `CLASS` is its [`OpClass`] discriminant, `SERIAL` its serial
    /// flag and `FETCH` whether it opens a counted fetch, so every test
    /// derived from them folds to a constant in each copy. Inlined into the
    /// sweep loop, where it runs once per lane per instruction.
    #[inline(always)]
    fn step<const CLASS: u8, const SERIAL: bool, const FETCH: bool>(&mut self, n: &Note) {
        let tables = &self.tables;
        let class = OpClass::ALL[CLASS as usize];
        let is_mem = class.is_memory();
        let is_fp = class.is_fp();

        // ---- Front end: fetch + decode --------------------------------
        let queue_floor = self.ring.floor();
        let mut decode_req = self.last_decode.max(self.redirect_at).max(queue_floor);
        if FETCH {
            decode_req += tables.miss_penalty[(n.fetch - 1) as usize];
        }
        let decode_cycle = self.decode_port.acquire(decode_req);
        self.last_decode = decode_cycle;
        let decode_done = decode_cycle + tables.decode;

        // ---- Scoreboard: source readiness -----------------------------
        let mut src_ready = 0u64;
        let mut src_writer = WriterKind::Normal;
        for &s in &n.src {
            if s == NO_REG {
                continue;
            }
            let slot = s as usize;
            let at = self.reg_ready[slot];
            let writer = self.reg_writer[slot];
            // The later producer names the writer; on a tie, a miss wins.
            if at > src_ready || (at == src_ready && writer == WriterKind::Miss) {
                src_writer = writer;
            }
            src_ready = src_ready.max(at);
        }

        // ---- RX address/cache segment ---------------------------------
        // Gated on the operand, not the class: an annotation may carry a
        // memory operand on any class, or none on a memory class.
        let mut data_ready = decode_done;
        let mut pipe_ready = decode_done;
        let mut miss_extra = 0u64;
        if n.has_mem {
            let agen_done = decode_done.max(src_ready) + tables.agen;
            if class == OpClass::Store {
                data_ready = agen_done;
                pipe_ready = agen_done;
            } else {
                let access_at = self.cache_port.acquire(agen_done);
                miss_extra = tables.miss_penalty[(n.data - 1) as usize];
                data_ready = access_at + tables.cache + miss_extra;
                if class == OpClass::Load && self.stall_on_use {
                    pipe_ready = access_at + tables.cache;
                } else if class == OpClass::Load {
                    pipe_ready = data_ready;
                }
            }
        }
        if class == OpClass::AluRx {
            pipe_ready = data_ready;
        }

        // ---- Issue to the E-unit (in order, width-limited) ------------
        let queue_ready = if is_mem { pipe_ready } else { decode_done };
        let fp_ready = if is_fp { self.fp_busy_until } else { 0 };
        let order_floor = if self.in_order { self.last_issue } else { 0 };
        let mut base = queue_ready.max(src_ready).max(fp_ready).max(order_floor);
        if SERIAL {
            base = base.max(self.last_issue + 1);
            self.issue_port.close_cycle();
        }
        let prev_issue = self.last_issue;
        let at = self.issue_port.acquire(base);
        if SERIAL {
            self.issue_port.close_cycle();
        }
        self.last_issue = at;
        self.ring.push(at);
        self.distinct += u64::from(self.last_issue_cycle_seen != Some(at));
        self.last_issue_cycle_seen = Some(at);

        // ---- Hazard attribution ---------------------------------------
        let transit = decode_done
            + if is_mem {
                tables.agen + tables.cache
            } else {
                0
            };
        let floor = if self.in_order {
            transit.max(prev_issue)
        } else {
            transit
        };
        let own = queue_ready.max(src_ready).max(fp_ready);
        let stall = own.saturating_sub(floor);
        if stall > 0 {
            let gamma_stall = stall.min(tables.hazard_cap);
            let load_use_blocked = class == OpClass::AluRx && miss_extra > 0;
            let kind = if load_use_blocked || src_writer == WriterKind::Miss {
                Some(HazardKind::Memory)
            } else if src_ready > floor {
                if src_writer == WriterKind::FpUnit {
                    None
                } else {
                    Some(HazardKind::Data)
                }
            } else if fp_ready > floor {
                None
            } else {
                Some(HazardKind::Structural)
            };
            if let Some(kind) = kind {
                self.hazards.record(kind, gamma_stall);
            }
        }

        // ---- Execute + writeback --------------------------------------
        let exec_done = at + tables.execute + tables.exec_extra[CLASS as usize];
        if is_fp {
            self.fp_busy_until = exec_done;
        }
        if n.dst != NO_REG {
            let alu_ready = if self.forwarding { at + 1 } else { exec_done };
            let miss_writer = if miss_extra > 0 {
                WriterKind::Miss
            } else {
                WriterKind::Normal
            };
            let (ready_at, writer) = match class {
                OpClass::Load => (data_ready, miss_writer),
                OpClass::Fp | OpClass::FpLong => (exec_done, WriterKind::FpUnit),
                _ => (alu_ready, miss_writer),
            };
            self.reg_ready[n.dst as usize] = ready_at;
            self.reg_writer[n.dst as usize] = writer;
        }

        // ---- Branch resolution ----------------------------------------
        if n.branch == 2 {
            let resume = exec_done + 1;
            let refill = resume.saturating_sub(decode_cycle + 1);
            self.hazards
                .record(HazardKind::Control, refill.min(tables.hazard_cap));
            self.redirect_at = resume;
        }

        // ---- Completion / retire --------------------------------------
        let retire = self
            .retire_port
            .acquire((exec_done + tables.complete).max(self.last_retire));
        self.last_retire = retire;
        self.finish_cycle = self.finish_cycle.max(retire);
    }

    /// Opens a fresh measurement window at the warmup boundary: zeroes
    /// the lane's statistics while keeping all timing state (ports,
    /// scoreboard, redirect, FP occupancy, decoupling window) intact — the
    /// mirror of [`crate::Engine::reset_stats`].
    fn reset_stats(&mut self) {
        self.stats_base_cycle = self.finish_cycle;
        self.hazards = HazardStats::new();
        self.distinct = 0;
        self.last_issue_cycle_seen = None;
    }

    /// The lane's report over a window whose depth-invariant statistics
    /// are `window`: the lane's own timing results plus every per-sweep
    /// count multiplied out by this lane's latencies.
    fn report(&self, config: SimConfig, plan: StagePlan, window: &WindowCounts) -> SimReport {
        let tables = &self.tables;
        let mut hazards = self.hazards.clone();
        // Each counted fetch of a class is one memory-hazard episode of
        // that class's capped penalty; a free class records none.
        for (&fetches, &penalty) in window.fetch[1..].iter().zip(&tables.miss_penalty) {
            hazards.record_repeated(HazardKind::Memory, fetches, penalty.min(tables.hazard_cap));
        }
        let memory_ops = window.memory_ops();
        let activity = Unit::ALL.map(|unit| match unit {
            Unit::Decode => window.instructions * tables.decode,
            Unit::Agen => memory_ops * tables.agen,
            Unit::Cache => memory_ops * tables.cache,
            Unit::Execute => window.instructions * tables.execute,
            Unit::Complete => window.instructions * tables.complete,
        });
        let rate = |(accesses, misses): (u64, u64)| {
            if accesses == 0 {
                0.0
            } else {
                misses as f64 / accesses as f64
            }
        };
        let cache = window.cache();
        SimReport::gather(
            config,
            plan,
            window.instructions,
            self.finish_cycle.saturating_sub(self.stats_base_cycle),
            self.distinct,
            &activity,
            hazards,
            window.branches(),
            window.mispredicts(),
            rate(cache[0]),
            rate(cache[2]),
            rate(cache[1]),
            window.memory_wait_cycles(tables),
        )
    }
}

/// Replays an annotation against every configuration in `configs` in one
/// batched pass: `warmup` instructions of untimed training per lane, then
/// up to `instructions` measured ones (clamped to the annotation length,
/// exactly like [`crate::Engine::run`] at the end of its trace). Returns one [`SimReport`]
/// per configuration, in order — each bit-identical to what a fresh
/// [`crate::Engine`] produces over the same stream.
///
/// The annotation must have been produced from the same stream with each
/// configuration's own `cache`/`predictor` settings (lanes may differ in
/// depth, width, ports and feature toggles — everything that does not feed
/// the annotation).
///
/// With telemetry attached, the run flushes the same aggregate `sim.*`
/// counters as the engine, summed across lanes, once at the end of the
/// pass.
///
/// # Errors
///
/// Returns the first [`ConfigError`] found validating any configuration.
pub fn replay_sweep(
    notes: &AnnotatedTrace,
    configs: &[SimConfig],
    warmup: u64,
    instructions: u64,
    telemetry: &Telemetry,
) -> Result<Vec<SimReport>, ConfigError> {
    let mut plans = Vec::with_capacity(configs.len());
    let mut lanes = Vec::with_capacity(configs.len());
    for config in configs {
        config.validate()?;
        let plan = StagePlan::try_for_depth(config.depth)?;
        lanes.push(Lane::new(config, &plan));
        plans.push(plan);
    }

    let split = usize::try_from(warmup)
        .unwrap_or(usize::MAX)
        .min(notes.len());
    advance(&mut lanes, notes, 0..split);
    telemetry
        .counter("sim.warmup_instructions")
        .add(split as u64 * lanes.len() as u64);
    for lane in &mut lanes {
        lane.reset_stats();
    }

    let measured = usize::try_from(instructions)
        .unwrap_or(usize::MAX)
        .min(notes.len() - split);
    let window = split..split + measured;
    advance(&mut lanes, notes, window.clone());
    let counts = WindowCounts::count(notes, window);
    let reports: Vec<SimReport> = lanes
        .iter()
        .zip(configs.iter().zip(plans))
        .map(|(lane, (&config, plan))| lane.report(config, plan, &counts))
        .collect();
    flush_telemetry(&reports, &lanes, &counts, telemetry);
    Ok(reports)
}

/// Advances every lane through the notes in `range`, decoding each note
/// once and picking, once for all lanes, the [`Lane::step`] copy compiled
/// for its shape.
fn advance(lanes: &mut [Lane], notes: &AnnotatedTrace, range: Range<usize>) {
    macro_rules! by_shape {
        ($n:ident: $($class:ident)*) => {
            match ($n.class, $n.serial, $n.fetch != 0) {
                $(
                    (OpClass::$class, false, false) => {
                        step_all::<{ OpClass::$class as u8 }, false, false>(lanes, &$n)
                    }
                    (OpClass::$class, false, true) => {
                        step_all::<{ OpClass::$class as u8 }, false, true>(lanes, &$n)
                    }
                    (OpClass::$class, true, false) => {
                        step_all::<{ OpClass::$class as u8 }, true, false>(lanes, &$n)
                    }
                    (OpClass::$class, true, true) => {
                        step_all::<{ OpClass::$class as u8 }, true, true>(lanes, &$n)
                    }
                )*
            }
        };
    }
    for i in range {
        let n = notes.note(i);
        by_shape!(n: AluRr AluRx Load Store Branch Fp FpLong);
    }
}

/// Steps every lane through one note of shape `(CLASS, SERIAL, FETCH)`.
#[inline(always)]
fn step_all<const CLASS: u8, const SERIAL: bool, const FETCH: bool>(lanes: &mut [Lane], n: &Note) {
    for lane in lanes.iter_mut() {
        lane.step::<CLASS, SERIAL, FETCH>(n);
    }
}

/// Replays an annotation against one configuration — the single-depth
/// convenience wrapper over [`replay_sweep`], with telemetry disabled.
///
/// # Errors
///
/// Returns the first [`ConfigError`] found validating the configuration.
pub fn replay(
    notes: &AnnotatedTrace,
    config: SimConfig,
    warmup: u64,
    instructions: u64,
) -> Result<SimReport, ConfigError> {
    let mut reports = replay_sweep(
        notes,
        std::slice::from_ref(&config),
        warmup,
        instructions,
        &Telemetry::disabled(),
    )?;
    // analysis: allow(panic-path) — replay_sweep returns exactly one report
    // per input configuration, and one configuration was passed.
    Ok(reports.pop().expect("one report per configuration"))
}

/// Flushes the lanes' summed window statistics into the same static-name
/// `sim.*` counters the engine flushes, once per replay pass. Lane-invariant
/// counts are the window's counts times the lane count; the rest sum the
/// lanes' reports and latency tables.
fn flush_telemetry(
    reports: &[SimReport],
    lanes: &[Lane],
    window: &WindowCounts,
    telemetry: &Telemetry,
) {
    if !telemetry.is_enabled() {
        return;
    }
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
    let per_lane = |count: u64| count * lanes.len() as u64;
    let t = telemetry;
    t.counter("sim.instructions")
        .add(per_lane(window.instructions));
    for (i, &kind) in HazardKind::ALL.iter().enumerate() {
        t.counter(metric_names::HAZARD_EVENTS[i])
            .add(sum(&|r| r.hazards.events(kind)));
        t.counter(metric_names::HAZARD_STALL_CYCLES[i])
            .add(sum(&|r| r.hazards.stall_cycles(kind)));
    }
    t.counter("sim.stage.frontend.fetch_stall_cycles").add(
        lanes
            .iter()
            .map(|l| window.fetch_stall_cycles(&l.tables))
            .sum(),
    );
    t.counter("sim.stage.frontend.redirects")
        .add(per_lane(window.mispredicts()));
    t.counter("sim.stage.issue.serialized_ops")
        .add(per_lane(window.serialized));
    t.counter("sim.stage.issue.distinct_cycles")
        .add(sum(&|r| r.distinct_issue_cycles));
    t.counter("sim.stage.exec.memory_wait_cycles")
        .add(sum(&|r| r.memory_wait_cycles));
    // Every branch in the window is one predictor observation: hits are
    // the correctly predicted ones, misses the rest — the engine's
    // observed/correct deltas expressed through the annotation.
    t.counter("sim.predictor.hits")
        .add(per_lane(window.branches() - window.mispredicts()));
    t.counter("sim.predictor.misses")
        .add(per_lane(window.mispredicts()));
    for (i, (accesses, misses)) in window.cache().into_iter().enumerate() {
        t.counter(metric_names::CACHE_HITS[i])
            .add(per_lane(accesses - misses));
        t.counter(metric_names::CACHE_MISSES[i])
            .add(per_lane(misses));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use crate::engine::Engine;
    use pipedepth_trace::{TraceGenerator, WorkloadModel};

    fn trace(n: usize) -> Vec<pipedepth_trace::isa::Instruction> {
        TraceGenerator::new(WorkloadModel::modern_like(), 11).take_vec(n)
    }

    #[test]
    fn single_depth_replay_matches_engine() {
        let stream = trace(6_000);
        let config = SimConfig::paper(14);
        let notes = annotate(&stream, config.cache, config.predictor).expect("valid config");
        let mut engine = Engine::new(config);
        engine.warm_up(stream.iter().copied(), 2_000);
        let expected = engine.run(stream[2_000..].iter().copied(), 4_000);
        let got = replay(&notes, config, 2_000, 4_000).expect("valid config");
        assert_eq!(expected, got);
    }

    #[test]
    fn batched_lanes_match_individual_replays() {
        let stream = trace(5_000);
        let base = SimConfig::paper(10);
        let notes = annotate(&stream, base.cache, base.predictor).expect("valid config");
        let configs: Vec<SimConfig> = [4, 10, 22].iter().map(|&d| SimConfig::paper(d)).collect();
        let batched = replay_sweep(&notes, &configs, 1_000, 4_000, &Telemetry::disabled())
            .expect("valid configs");
        for (config, report) in configs.iter().zip(&batched) {
            let single = replay(&notes, *config, 1_000, 4_000).expect("valid config");
            assert_eq!(&single, report, "depth {}", config.depth);
        }
    }

    #[test]
    fn replay_clamps_to_annotation_length() {
        let stream = trace(1_000);
        let config = SimConfig::paper(8);
        let notes = annotate(&stream, config.cache, config.predictor).expect("valid config");
        let r = replay(&notes, config, 0, 5_000).expect("valid config");
        assert_eq!(r.instructions, 1_000);
        let all_warm = replay(&notes, config, 5_000, 5_000).expect("valid config");
        assert_eq!(all_warm.instructions, 0, "everything consumed by warmup");
    }

    #[test]
    fn replay_rejects_invalid_config() {
        let stream = trace(100);
        let good = SimConfig::paper(8);
        let notes = annotate(&stream, good.cache, good.predictor).expect("valid config");
        let mut bad = good;
        bad.width = 0;
        assert!(replay(&notes, bad, 0, 100).is_err());
    }

    #[test]
    fn sweep_flushes_engine_identical_counters() {
        // The batch's flushed counters must equal the sum of one engine
        // per lane. Per-sweep counts are multiplied out per lane with each
        // lane's own penalties and latencies, so the lanes differ in depth,
        // width, cache ports, forwarding and issue policy: a wrong
        // multiplier, or a penalty taken from the wrong lane, shows here.
        let mut narrow = SimConfig::paper(9);
        narrow.width = 2;
        narrow.cache_ports = 1;
        let mut no_forwarding = SimConfig::paper(17);
        no_forwarding.features.forwarding = false;
        let mut out_of_order = SimConfig::paper(24);
        out_of_order.features.issue = IssuePolicy::OutOfOrder;
        let configs = [
            SimConfig::paper(3),
            narrow,
            SimConfig::paper(12),
            no_forwarding,
            out_of_order,
        ];
        let stream = trace(4_000);
        let notes =
            annotate(&stream, configs[0].cache, configs[0].predictor).expect("valid config");

        let engine_telemetry = Telemetry::new();
        for &config in &configs {
            let mut engine = Engine::new(config).with_telemetry(engine_telemetry.clone());
            engine.warm_up(stream.iter().copied(), 1_000);
            engine.run(stream[1_000..].iter().copied(), 3_000);
        }

        let replay_telemetry = Telemetry::new();
        replay_sweep(&notes, &configs, 1_000, 3_000, &replay_telemetry).expect("valid configs");

        let a = engine_telemetry.snapshot();
        let b = replay_telemetry.snapshot();
        for name in [
            "sim.instructions",
            "sim.warmup_instructions",
            "sim.stage.frontend.fetch_stall_cycles",
            "sim.stage.frontend.redirects",
            "sim.stage.issue.serialized_ops",
            "sim.stage.issue.distinct_cycles",
            "sim.stage.exec.memory_wait_cycles",
            "sim.predictor.hits",
            "sim.predictor.misses",
            "sim.cache.l1d.hits",
            "sim.cache.l1d.misses",
            "sim.cache.l1i.hits",
            "sim.cache.l1i.misses",
            "sim.cache.l2.hits",
            "sim.cache.l2.misses",
            "sim.stage.hazard.control.events",
            "sim.stage.hazard.control.stall_cycles",
            "sim.stage.hazard.data.events",
            "sim.stage.hazard.data.stall_cycles",
            "sim.stage.hazard.memory.events",
            "sim.stage.hazard.memory.stall_cycles",
            "sim.stage.hazard.structural.events",
            "sim.stage.hazard.structural.stall_cycles",
        ] {
            assert_eq!(a.counter(name), b.counter(name), "counter {name}");
        }
    }
}
