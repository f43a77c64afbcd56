//! Statistical workload models.
//!
//! A [`WorkloadModel`] captures the aggregate properties of an application
//! that determine its pipeline behaviour: instruction mix, register
//! dependency distances, branch predictability, and memory locality. The
//! paper's traces "were carefully selected to accurately reflect the
//! instruction mix, module mix and branch prediction characteristics of the
//! entire application" — this type is the synthetic equivalent.

use crate::isa::OpClass;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Instruction-mix fractions. Must sum to 1 (validated by
/// [`InstructionMix::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionMix {
    /// Register-only ALU fraction.
    pub alu_rr: f64,
    /// Memory-source ALU fraction (RX compute).
    pub alu_rx: f64,
    /// Load fraction.
    pub load: f64,
    /// Store fraction.
    pub store: f64,
    /// Branch fraction.
    pub branch: f64,
    /// Pipelineable floating-point fraction.
    pub fp: f64,
    /// Long-latency floating-point fraction (div/sqrt class).
    pub fp_long: f64,
}

impl InstructionMix {
    /// Creates a mix, validating that the fractions are non-negative and
    /// sum to 1 (within 1e-9).
    ///
    /// # Panics
    ///
    /// Panics on negative fractions or a sum differing from 1.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        alu_rr: f64,
        alu_rx: f64,
        load: f64,
        store: f64,
        branch: f64,
        fp: f64,
        fp_long: f64,
    ) -> Self {
        let mix = InstructionMix {
            alu_rr,
            alu_rx,
            load,
            store,
            branch,
            fp,
            fp_long,
        };
        for (c, f) in mix.fractions() {
            assert!(f >= 0.0, "negative fraction for {c}");
        }
        let sum: f64 = mix.fractions().iter().map(|(_, f)| f).sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "instruction mix must sum to 1, got {sum}"
        );
        mix
    }

    /// A generic integer-code mix (no floating point).
    pub fn integer() -> Self {
        InstructionMix::new(0.40, 0.10, 0.22, 0.10, 0.18, 0.0, 0.0)
    }

    /// A floating-point-heavy scientific mix.
    pub fn floating_point() -> Self {
        InstructionMix::new(0.15, 0.05, 0.25, 0.12, 0.08, 0.30, 0.05)
    }

    /// The fraction for each [`OpClass`], in [`OpClass::ALL`] order.
    pub fn fractions(&self) -> [(OpClass, f64); 7] {
        [
            (OpClass::AluRr, self.alu_rr),
            (OpClass::AluRx, self.alu_rx),
            (OpClass::Load, self.load),
            (OpClass::Store, self.store),
            (OpClass::Branch, self.branch),
            (OpClass::Fp, self.fp),
            (OpClass::FpLong, self.fp_long),
        ]
    }

    /// Fraction of instructions taking the RX (memory) pipeline path.
    pub fn memory_fraction(&self) -> f64 {
        self.alu_rx + self.load + self.store
    }
}

/// Branch-behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchModel {
    /// Number of static branch sites the workload cycles through.
    pub static_sites: u32,
    /// Fraction of branch sites that are strongly biased (predictable).
    pub biased_fraction: f64,
    /// Taken probability of a strongly biased site.
    pub bias: f64,
    /// Fraction of *dynamic* branches that are taken overall is emergent;
    /// unbiased sites are 50/50.
    /// Code footprint in bytes that taken-branch targets span (drives
    /// instruction-fetch locality).
    pub code_footprint: u64,
}

impl BranchModel {
    /// Creates a branch model.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range probabilities or zero sites/footprint.
    pub fn new(static_sites: u32, biased_fraction: f64, bias: f64, code_footprint: u64) -> Self {
        assert!(static_sites > 0, "need at least one branch site");
        assert!(
            (0.0..=1.0).contains(&biased_fraction),
            "biased fraction must be a probability"
        );
        assert!((0.0..=1.0).contains(&bias), "bias must be a probability");
        assert!(code_footprint > 0, "code footprint must be positive");
        BranchModel {
            static_sites,
            biased_fraction,
            bias,
            code_footprint,
        }
    }

    /// A predictable branch population (loop-dominated code).
    pub fn predictable() -> Self {
        BranchModel::new(256, 0.95, 0.975, 64 * 1024)
    }

    /// A hard-to-predict branch population (data-dependent control flow).
    pub fn unpredictable() -> Self {
        BranchModel::new(1024, 0.88, 0.95, 256 * 1024)
    }
}

/// Memory-locality parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Working-set size in bytes that data addresses span.
    pub working_set: u64,
    /// Probability that an access continues a sequential (striding) run
    /// rather than jumping to a random location.
    pub spatial_locality: f64,
    /// Stride in bytes of sequential runs.
    pub stride: u64,
    /// Size of the hot subset of the working set, in bytes (temporal
    /// locality). Random jumps land here with probability
    /// [`MemoryModel::hot_probability`].
    pub hot_set: u64,
    /// Probability that a random jump targets the hot set.
    pub hot_probability: f64,
}

impl MemoryModel {
    /// Creates a memory model with no separate hot set (jumps are uniform
    /// over the whole working set).
    ///
    /// # Panics
    ///
    /// Panics on a zero working set or stride, or an out-of-range locality.
    pub fn new(working_set: u64, spatial_locality: f64, stride: u64) -> Self {
        assert!(working_set > 0, "working set must be positive");
        assert!(
            (0.0..=1.0).contains(&spatial_locality),
            "spatial locality must be a probability"
        );
        assert!(stride > 0, "stride must be positive");
        MemoryModel {
            working_set,
            spatial_locality,
            stride,
            hot_set: working_set,
            hot_probability: 0.0,
        }
    }

    /// Adds a hot subset: random jumps target the first `hot_set` bytes of
    /// the working set with probability `hot_probability` (temporal
    /// locality, as real heaps exhibit).
    ///
    /// # Panics
    ///
    /// Panics if `hot_set` is zero or exceeds the working set, or
    /// `hot_probability` is not a probability.
    pub fn with_hot_set(mut self, hot_set: u64, hot_probability: f64) -> Self {
        assert!(
            hot_set > 0 && hot_set <= self.working_set,
            "hot set must be positive and within the working set"
        );
        assert!(
            (0.0..=1.0).contains(&hot_probability),
            "hot probability must be a probability"
        );
        self.hot_set = hot_set;
        self.hot_probability = hot_probability;
        self
    }

    /// Cache-friendly memory behaviour: the whole working set fits in L1.
    pub fn cache_friendly() -> Self {
        MemoryModel::new(24 * 1024, 0.93, 8)
    }

    /// Cache-hostile memory behaviour: a large scattered footprint with a
    /// modest hot set.
    pub fn cache_hostile() -> Self {
        MemoryModel::new(16 * 1024 * 1024, 0.93, 8).with_hot_set(24 * 1024, 0.80)
    }
}

/// Program phase behaviour: real applications alternate between regimes
/// (e.g. a pointer-chasing build phase and a streaming scan phase). When a
/// phase model is attached, the workload's memory behaviour toggles between
/// the base [`MemoryModel`] and the phase's every `period` instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseModel {
    /// Instructions per phase before toggling.
    pub period: u64,
    /// Memory behaviour of the alternate phase.
    pub memory: MemoryModel,
}

impl PhaseModel {
    /// Creates a phase model.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64, memory: MemoryModel) -> Self {
        assert!(period > 0, "phase period must be positive");
        PhaseModel { period, memory }
    }
}

/// The complete statistical description of a synthetic workload.
///
/// # Examples
///
/// ```
/// use pipedepth_trace::model::WorkloadModel;
///
/// let w = WorkloadModel::spec_int_like();
/// assert!(w.mix.branch > 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadModel {
    /// Instruction mix.
    pub mix: InstructionMix,
    /// Mean register dependency distance (instructions between producer and
    /// consumer); drawn geometrically. Smaller means less ILP.
    pub mean_dep_distance: f64,
    /// Probability that a source operand is a recent-producer register at
    /// all (vs. a long-dead / immediate-like value with no hazard).
    pub dep_density: f64,
    /// Branch behaviour.
    pub branches: BranchModel,
    /// Memory behaviour.
    pub memory: MemoryModel,
    /// Fraction of instructions that are complex, serialising operations
    /// (issue alone): high for legacy CISC assembler code, low for
    /// compiled RISC-style code.
    pub serial_fraction: f64,
    /// Optional alternating-phase behaviour.
    pub phases: Option<PhaseModel>,
}

impl WorkloadModel {
    /// Validates compound constraints.
    ///
    /// # Panics
    ///
    /// Panics if `mean_dep_distance < 1` or `dep_density` is out of range.
    pub fn new(
        mix: InstructionMix,
        mean_dep_distance: f64,
        dep_density: f64,
        branches: BranchModel,
        memory: MemoryModel,
    ) -> Self {
        assert!(
            mean_dep_distance >= 1.0,
            "mean dependency distance must be at least 1"
        );
        assert!(
            (0.0..=1.0).contains(&dep_density),
            "dependency density must be a probability"
        );
        WorkloadModel {
            mix,
            mean_dep_distance,
            dep_density,
            branches,
            memory,
            serial_fraction: 0.0,
            phases: None,
        }
    }

    /// Attaches alternating-phase behaviour (builder style).
    pub fn with_phases(mut self, phases: PhaseModel) -> Self {
        self.phases = Some(phases);
        self
    }

    /// Sets the fraction of complex, serialising instructions (builder
    /// style).
    ///
    /// # Panics
    ///
    /// Panics unless the fraction is a probability.
    pub fn with_serial_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "serial fraction must be a probability"
        );
        self.serial_fraction = fraction;
        self
    }

    /// A SPECint-like workload: regular integer code, predictable branches,
    /// modest working set, decent ILP.
    pub fn spec_int_like() -> Self {
        WorkloadModel::new(
            InstructionMix::integer(),
            7.0,
            0.35,
            BranchModel::predictable(),
            MemoryModel::cache_friendly(),
        )
    }

    /// A legacy database/OLTP-like workload: low ILP, branchy, large
    /// footprint.
    pub fn legacy_like() -> Self {
        WorkloadModel::new(
            InstructionMix::new(0.34, 0.12, 0.24, 0.12, 0.18, 0.0, 0.0),
            3.5,
            0.50,
            BranchModel::unpredictable(),
            MemoryModel::new(2 * 1024 * 1024, 0.93, 8).with_hot_set(32 * 1024, 0.92),
        )
        .with_serial_fraction(0.55)
    }

    /// A modern C++/Java-like workload: indirect-branch heavy, pointer
    /// chasing, moderate ILP.
    pub fn modern_like() -> Self {
        WorkloadModel::new(
            InstructionMix::new(0.36, 0.10, 0.25, 0.11, 0.18, 0.0, 0.0),
            4.5,
            0.40,
            BranchModel::new(512, 0.93, 0.97, 128 * 1024),
            MemoryModel::new(1024 * 1024, 0.93, 8).with_hot_set(28 * 1024, 0.90),
        )
        .with_serial_fraction(0.12)
    }

    /// A SPECfp-like workload: FP-dominated, few branches, streaming
    /// memory over an L2-resident set.
    pub fn spec_fp_like() -> Self {
        WorkloadModel::new(
            InstructionMix::floating_point(),
            8.0,
            0.40,
            BranchModel::predictable(),
            MemoryModel::new(256 * 1024, 0.98, 8),
        )
    }

    /// Structural content hash of the model: FNV-1a over every field's bit
    /// pattern (see [`crate::hash::Fnv64`]). Two models fingerprint equally
    /// exactly when all fields are bitwise equal, so the fingerprint can
    /// key content-addressed stores (the annotation store, the
    /// simulation cache) without rendering the model to a string.
    /// Collisions must still be resolved by `PartialEq` at the lookup site.
    ///
    /// The hash is memoized process-wide: an experiment run fingerprints
    /// the same handful of models once per *cell* (`CellSpec::key()`) and
    /// once per annotation request ([`crate::TraceRequest::key`]), so after
    /// each model's first walk every call is a short scan of a tiny table.
    /// [`fingerprint_memo_hits`] counts the walks saved.
    pub fn fingerprint(&self) -> u64 {
        let memo = FINGERPRINT_MEMO.get_or_init(|| Mutex::new(Vec::new()));
        {
            let table = memo
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some((_, hash)) = table.iter().find(|(m, _)| m == self) {
                let hash = *hash;
                drop(table);
                FINGERPRINT_MEMO_HITS.fetch_add(1, Ordering::Relaxed);
                return hash;
            }
        }
        let hash = self.fingerprint_uncached();
        let mut table = memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Re-check under the lock: a racing thread may have inserted the
        // same model between our probe and this insert.
        if !table.iter().any(|(m, _)| m == self) {
            table.push((*self, hash));
        }
        hash
    }

    /// The full field walk behind [`WorkloadModel::fingerprint`], always
    /// recomputed (the memoized path must agree with this by definition).
    pub fn fingerprint_uncached(&self) -> u64 {
        let mut h = crate::hash::Fnv64::new();
        for (_, frac) in self.mix.fractions() {
            h.write_f64(frac);
        }
        h.write_f64(self.mean_dep_distance)
            .write_f64(self.dep_density)
            .write_u32(self.branches.static_sites)
            .write_f64(self.branches.biased_fraction)
            .write_f64(self.branches.bias)
            .write_u64(self.branches.code_footprint);
        let mem = |h: &mut crate::hash::Fnv64, m: &MemoryModel| {
            h.write_u64(m.working_set)
                .write_f64(m.spatial_locality)
                .write_u64(m.stride)
                .write_u64(m.hot_set)
                .write_f64(m.hot_probability);
        };
        mem(&mut h, &self.memory);
        h.write_f64(self.serial_fraction);
        match &self.phases {
            None => {
                h.write_bool(false);
            }
            Some(p) => {
                h.write_bool(true).write_u64(p.period);
                mem(&mut h, &p.memory);
            }
        }
        h.finish()
    }
}

/// Process-wide fingerprint memo: `(model, hash)` pairs, linearly scanned.
/// An experiment run touches a dozen-odd distinct models, so a flat vector
/// with `PartialEq` probing beats any hash structure — and stays fully
/// deterministic.
static FINGERPRINT_MEMO: OnceLock<Mutex<Vec<(WorkloadModel, u64)>>> = OnceLock::new();
/// Fingerprint calls served from the memo since process start.
static FINGERPRINT_MEMO_HITS: AtomicU64 = AtomicU64::new(0);

/// Total [`WorkloadModel::fingerprint`] calls served from the memo since
/// process start (monotone; consumers flush deltas against their own
/// watermark, as the experiment runner does for
/// `trace.fingerprint_memo_hits`).
pub fn fingerprint_memo_hits() -> u64 {
    FINGERPRINT_MEMO_HITS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_mixes_are_valid() {
        // Constructors panic on invalid mixes, so building them is the test.
        let _ = InstructionMix::integer();
        let _ = InstructionMix::floating_point();
        let _ = WorkloadModel::spec_int_like();
        let _ = WorkloadModel::legacy_like();
        let _ = WorkloadModel::modern_like();
        let _ = WorkloadModel::spec_fp_like();
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_sum_rejected() {
        let _ = InstructionMix::new(0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "negative fraction")]
    fn negative_mix_rejected() {
        let _ = InstructionMix::new(1.2, -0.2, 0.0, 0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn memory_fraction_counts_rx_classes() {
        let m = InstructionMix::integer();
        assert!((m.memory_fraction() - (0.10 + 0.22 + 0.10)).abs() < 1e-12);
    }

    #[test]
    fn fp_mix_has_fp() {
        assert!(InstructionMix::floating_point().fp > 0.0);
        assert_eq!(InstructionMix::integer().fp, 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_locality_rejected() {
        let _ = MemoryModel::new(1024, 1.5, 8);
    }

    #[test]
    #[should_panic(expected = "at least one branch site")]
    fn zero_branch_sites_rejected() {
        let _ = BranchModel::new(0, 0.5, 0.5, 1024);
    }

    #[test]
    #[should_panic(expected = "dependency distance")]
    fn tiny_dep_distance_rejected() {
        let _ = WorkloadModel::new(
            InstructionMix::integer(),
            0.5,
            0.5,
            BranchModel::predictable(),
            MemoryModel::cache_friendly(),
        );
    }

    #[test]
    fn class_presets_are_differentiated() {
        let legacy = WorkloadModel::legacy_like();
        let spec = WorkloadModel::spec_int_like();
        // Legacy has lower ILP (shorter dependency distances) and a larger
        // working set.
        assert!(legacy.mean_dep_distance < spec.mean_dep_distance);
        assert!(legacy.memory.working_set > spec.memory.working_set);
        // And less predictable branches.
        assert!(legacy.branches.biased_fraction < spec.branches.biased_fraction);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let base = WorkloadModel::spec_int_like();
        assert_eq!(
            base.fingerprint(),
            WorkloadModel::spec_int_like().fingerprint()
        );
        // Every structural dimension moves the fingerprint.
        let mut deeper = base;
        deeper.mean_dep_distance += 1.0;
        let mut denser = base;
        denser.dep_density = (denser.dep_density + 0.1).min(1.0);
        let mut branchy = base;
        branchy.branches.static_sites += 1;
        let mut bigger = base;
        bigger.memory.working_set *= 2;
        let serial = base.with_serial_fraction(0.25);
        let phased = base.with_phases(PhaseModel::new(1_000, MemoryModel::cache_hostile()));
        for other in [deeper, denser, branchy, bigger, serial, phased] {
            assert_ne!(base.fingerprint(), other.fingerprint());
            assert_ne!(base, other);
        }
        assert_ne!(
            WorkloadModel::legacy_like().fingerprint(),
            WorkloadModel::modern_like().fingerprint()
        );
    }

    #[test]
    fn fingerprint_memo_agrees_with_the_field_walk() {
        let models = [
            WorkloadModel::spec_int_like(),
            WorkloadModel::legacy_like(),
            WorkloadModel::modern_like(),
            WorkloadModel::spec_fp_like(),
            WorkloadModel::spec_int_like().with_serial_fraction(0.3),
        ];
        for m in models {
            // First call may populate the memo, second is served from it;
            // both must equal the always-recomputed walk.
            assert_eq!(m.fingerprint(), m.fingerprint_uncached());
            assert_eq!(m.fingerprint(), m.fingerprint_uncached());
        }
        // Re-fingerprinting a known model is a memo hit.
        let before = fingerprint_memo_hits();
        let _ = WorkloadModel::spec_int_like().fingerprint();
        assert!(fingerprint_memo_hits() > before, "memo hit not counted");
    }
}
