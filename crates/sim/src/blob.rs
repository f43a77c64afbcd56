//! Binary codecs ([`Blob`](pipedepth_store::Blob)) for simulator configurations, reports and
//! annotations, so finished simulation work can be persisted through
//! `pipedepth-store` and reused across processes.
//!
//! Three record families are covered:
//!
//! * the configuration side ([`SimConfig`] and its parts) — the *spec*
//!   half of a persisted result, encoded field-for-field so a decoded
//!   spec compares equal to the original and reproduces the same
//!   [`SimConfig::fingerprint`];
//! * the result side ([`SimReport`], with the hazard codec next to its
//!   private fields in [`crate::hazard`]) — bit-exact, floats included;
//! * the annotation side ([`AnnotatedTrace`] plus [`AnnotationKey`]) —
//!   the depth-invariant columns of the annotate-once sweep kernel,
//!   whose recomputation cost (one engine-like pass per workload) is
//!   exactly what a warm store amortises away.
//!
//! Any change to these field lists must bump the consuming namespace's
//! `schema_version` so older snapshots self-invalidate to a cold start.

use crate::annotate::{AnnotatedTrace, AnnotationKey, FLAG_MEM, FLAG_SERIAL, NO_REG};
use crate::config::{CacheConfig, Features, IssuePolicy, PredictorConfig, SimConfig, StagePlan};
use crate::report::SimReport;
use crate::stage::REG_SLOTS;
use pipedepth_store::{Blob, ByteReader, ByteWriter, DecodeError};
use pipedepth_trace::isa::OpClass;

impl Blob for CacheConfig {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.l1_bytes)
            .put_u32(self.l1_ways)
            .put_u64(self.l1i_bytes)
            .put_u32(self.l1i_ways)
            .put_u64(self.l2_bytes)
            .put_u32(self.l2_ways)
            .put_u64(self.line_bytes)
            .put_f64(self.l2_latency_fo4)
            .put_f64(self.memory_latency_fo4)
            .put_bool(self.prefetch);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CacheConfig {
            l1_bytes: r.take_u64()?,
            l1_ways: r.take_u32()?,
            l1i_bytes: r.take_u64()?,
            l1i_ways: r.take_u32()?,
            l2_bytes: r.take_u64()?,
            l2_ways: r.take_u32()?,
            line_bytes: r.take_u64()?,
            l2_latency_fo4: r.take_f64()?,
            memory_latency_fo4: r.take_f64()?,
            prefetch: r.take_bool()?,
        })
    }
}

impl Blob for PredictorConfig {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.table_bits).put_u32(self.history_bits);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(PredictorConfig {
            table_bits: r.take_u32()?,
            history_bits: r.take_u32()?,
        })
    }
}

impl Blob for Features {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(self.forwarding)
            .put_bool(self.stall_on_use)
            .put_bool(self.scaled_queues)
            .put_u8(match self.issue {
                IssuePolicy::InOrder => 0,
                IssuePolicy::OutOfOrder => 1,
            });
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Features {
            forwarding: r.take_bool()?,
            stall_on_use: r.take_bool()?,
            scaled_queues: r.take_bool()?,
            issue: match r.take_u8()? {
                0 => IssuePolicy::InOrder,
                1 => IssuePolicy::OutOfOrder,
                _ => return Err(DecodeError::Invalid("issue policy")),
            },
        })
    }
}

impl Blob for StagePlan {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.decode)
            .put_u32(self.agen)
            .put_u32(self.cache)
            .put_u32(self.execute)
            .put_u32(self.complete);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(StagePlan {
            decode: r.take_u32()?,
            agen: r.take_u32()?,
            cache: r.take_u32()?,
            execute: r.take_u32()?,
            complete: r.take_u32()?,
        })
    }
}

impl Blob for SimConfig {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.width)
            .put_u32(self.depth)
            .put_f64(self.logic_fo4)
            .put_f64(self.latch_overhead_fo4);
        self.cache.encode(w);
        self.predictor.encode(w);
        w.put_u32(self.cache_ports);
        self.features.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(SimConfig {
            width: r.take_u32()?,
            depth: r.take_u32()?,
            logic_fo4: r.take_f64()?,
            latch_overhead_fo4: r.take_f64()?,
            cache: CacheConfig::decode(r)?,
            predictor: PredictorConfig::decode(r)?,
            cache_ports: r.take_u32()?,
            features: Features::decode(r)?,
        })
    }
}

impl Blob for SimReport {
    fn encode(&self, w: &mut ByteWriter) {
        self.config.encode(w);
        self.plan.encode(w);
        w.put_u64(self.instructions)
            .put_u64(self.cycles)
            .put_u64(self.distinct_issue_cycles);
        for &a in &self.activity {
            w.put_u64(a);
        }
        self.hazards.encode(w);
        w.put_u64(self.branches)
            .put_u64(self.mispredicts)
            .put_f64(self.l1_miss_rate)
            .put_f64(self.l2_miss_rate)
            .put_f64(self.l1i_miss_rate)
            .put_u64(self.memory_wait_cycles);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let config = SimConfig::decode(r)?;
        let plan = StagePlan::decode(r)?;
        let instructions = r.take_u64()?;
        let cycles = r.take_u64()?;
        let distinct_issue_cycles = r.take_u64()?;
        let mut activity = [0u64; 5];
        for a in &mut activity {
            *a = r.take_u64()?;
        }
        Ok(SimReport {
            config,
            plan,
            instructions,
            cycles,
            distinct_issue_cycles,
            activity,
            hazards: crate::hazard::HazardStats::decode(r)?,
            branches: r.take_u64()?,
            mispredicts: r.take_u64()?,
            l1_miss_rate: r.take_f64()?,
            l2_miss_rate: r.take_f64()?,
            l1i_miss_rate: r.take_f64()?,
            memory_wait_cycles: r.take_u64()?,
        })
    }
}

impl Blob for AnnotationKey {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.trace_key).put_u64(self.len as u64);
        self.cache.encode(w);
        self.predictor.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let trace_key = r.take_u64()?;
        let len = usize::try_from(r.take_u64()?)
            .map_err(|_| DecodeError::Invalid("annotation length"))?;
        Ok(AnnotationKey {
            trace_key,
            len,
            cache: CacheConfig::decode(r)?,
            predictor: PredictorConfig::decode(r)?,
        })
    }
}

impl Blob for AnnotatedTrace {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(&self.classes)
            .put_bytes(&self.flags)
            .put_bytes(&self.dst);
        // `src` is two flat register slots per instruction.
        let mut src = Vec::with_capacity(self.src.len() * 2);
        for pair in &self.src {
            src.extend_from_slice(pair);
        }
        w.put_bytes(&src)
            .put_bytes(&self.fetch)
            .put_bytes(&self.data)
            .put_bytes(&self.branch);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        // Every column is range-checked while it is copied, so a record
        // whose checksums hold but whose values the replay kernel cannot
        // index is rejected here rather than panicking a sweep later.
        let class_bytes = r.take_bytes()?;
        let n = class_bytes.len();
        let mut notes = AnnotatedTrace {
            classes: vec![0; n],
            flags: vec![0; n],
            dst: vec![0; n],
            src: vec![[0; 2]; n],
            fetch: vec![0; n],
            data: vec![0; n],
            branch: vec![0; n],
        };
        copy_checked(&mut notes.classes, class_bytes, "annotation class", |c| {
            (c as usize) < OpClass::ALL.len()
        })?;
        copy_checked(&mut notes.flags, r.take_bytes()?, "annotation flags", |f| {
            f & !(FLAG_SERIAL | FLAG_MEM) == 0
        })?;
        copy_checked(
            &mut notes.dst,
            r.take_bytes()?,
            "annotation register",
            reg_in_range,
        )?;
        // `src` is two flat register slots per instruction.
        copy_checked(
            notes.src.as_flattened_mut(),
            r.take_bytes()?,
            "annotation register",
            reg_in_range,
        )?;
        copy_checked(
            &mut notes.fetch,
            r.take_bytes()?,
            "annotation fetch class",
            |f| f <= 3,
        )?;
        // A data class is present exactly on the instructions flagged as
        // carrying a memory operand.
        let data = r.take_bytes()?;
        if data.len() != n {
            return Err(DecodeError::Invalid(COLUMN_LENGTHS));
        }
        let mut valid = true;
        for ((slot, &d), &f) in notes.data.iter_mut().zip(data).zip(&notes.flags) {
            *slot = d;
            valid &= (d <= 3) & ((d != 0) == (f & FLAG_MEM != 0));
        }
        if !valid {
            return Err(DecodeError::Invalid("annotation data class"));
        }
        copy_checked(
            &mut notes.branch,
            r.take_bytes()?,
            "annotation branch outcome",
            |b| b <= 2,
        )?;
        Ok(notes)
    }
}

/// The rejection reason for annotation columns of unequal length.
const COLUMN_LENGTHS: &str = "annotation column lengths";

/// A register-slot byte the scoreboard can index, or the absent marker.
fn reg_in_range(slot: u8) -> bool {
    (slot as usize) < REG_SLOTS || slot == NO_REG
}

/// Copies `bytes` into the equally long `column`, checking every byte
/// against `in_range` in the same loop; `what` names the column on
/// rejection.
fn copy_checked(
    column: &mut [u8],
    bytes: &[u8],
    what: &'static str,
    in_range: impl Fn(u8) -> bool,
) -> Result<(), DecodeError> {
    if bytes.len() != column.len() {
        return Err(DecodeError::Invalid(COLUMN_LENGTHS));
    }
    let mut valid = true;
    for (slot, &b) in column.iter_mut().zip(bytes) {
        *slot = b;
        valid &= in_range(b);
    }
    if valid {
        Ok(())
    } else {
        Err(DecodeError::Invalid(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use pipedepth_trace::{TraceGenerator, WorkloadModel};

    #[test]
    fn configs_round_trip_with_fingerprints() {
        let mut config = SimConfig::paper(17);
        config.features.issue = IssuePolicy::OutOfOrder;
        config.features.scaled_queues = true;
        config.cache.prefetch = !config.cache.prefetch;
        let decoded = SimConfig::from_record(&config.to_record()).expect("decodes");
        assert_eq!(decoded, config);
        assert_eq!(decoded.fingerprint(), config.fingerprint());
    }

    #[test]
    fn reports_round_trip_bit_exactly() {
        let trace = TraceGenerator::new(WorkloadModel::spec_int_like(), 11).take_vec(3_000);
        let cfg = SimConfig::paper(9);
        let report = crate::replay::replay(
            &annotate(&trace, cfg.cache, cfg.predictor).expect("valid config"),
            cfg,
            1_000,
            2_000,
        )
        .expect("replay");
        let decoded = SimReport::from_record(&report.to_record()).expect("decodes");
        assert_eq!(decoded, report);
    }

    #[test]
    fn annotations_round_trip() {
        let cfg = SimConfig::paper(12);
        let trace = TraceGenerator::new(WorkloadModel::spec_fp_like(), 5).take_vec(2_500);
        let notes = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        let decoded = AnnotatedTrace::from_record(&notes.to_record()).expect("decodes");
        assert_eq!(decoded, notes);
        assert_eq!(decoded.len(), 2_500);
    }

    #[test]
    fn annotation_keys_round_trip() {
        let cfg = SimConfig::paper(12);
        let key = AnnotationKey {
            trace_key: 0xFEED_F00D,
            len: 2_500,
            cache: cfg.cache,
            predictor: cfg.predictor,
        };
        let decoded = AnnotationKey::from_record(&key.to_record()).expect("decodes");
        assert_eq!(decoded, key);
    }

    #[test]
    fn corrupt_columns_are_rejected() {
        let cfg = SimConfig::paper(8);
        let trace = TraceGenerator::new(WorkloadModel::spec_int_like(), 3).take_vec(500);
        let notes = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        let bytes = notes.to_record();
        // Shorten the trailing branch column by one element: the column
        // length check must reject the mismatch.
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 1);
        let len_pos = bytes.len() - 500 - 4;
        let new_len = 499u32.to_le_bytes();
        short[len_pos..len_pos + 4].copy_from_slice(&new_len);
        assert_eq!(
            AnnotatedTrace::from_record(&short),
            Err(DecodeError::Invalid("annotation column lengths"))
        );
    }

    #[test]
    fn out_of_range_column_values_are_rejected() {
        let cfg = SimConfig::paper(8);
        let trace = TraceGenerator::new(WorkloadModel::spec_int_like(), 3).take_vec(500);
        let notes = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        let mem = notes.flags.iter().position(|&f| f & FLAG_MEM != 0);
        let mem = mem.expect("the trace has a memory op");
        let plain = notes.flags.iter().position(|&f| f & FLAG_MEM == 0);
        let plain = plain.expect("the trace has a non-memory op");
        // One out-of-range value per column, each of which would index
        // out of bounds or underflow in the replay kernel.
        type Corruption = Box<dyn Fn(&mut AnnotatedTrace)>;
        let cases: Vec<(&str, Corruption)> = vec![
            ("annotation class", Box::new(|t| t.classes[0] = 200)),
            (
                "annotation class",
                Box::new(|t| t.classes[0] = OpClass::ALL.len() as u8),
            ),
            ("annotation flags", Box::new(|t| t.flags[0] |= 4)),
            (
                "annotation register",
                Box::new(|t| t.dst[0] = REG_SLOTS as u8),
            ),
            ("annotation register", Box::new(|t| t.src[0][1] = 40)),
            ("annotation fetch class", Box::new(|t| t.fetch[0] = 4)),
            ("annotation data class", Box::new(move |t| t.data[mem] = 4)),
            ("annotation data class", Box::new(move |t| t.data[mem] = 0)),
            (
                "annotation data class",
                Box::new(move |t| t.data[plain] = 1),
            ),
            ("annotation branch outcome", Box::new(|t| t.branch[0] = 3)),
        ];
        for (what, corrupt) in cases {
            let mut bad = notes.clone();
            corrupt(&mut bad);
            assert_eq!(
                AnnotatedTrace::from_record(&bad.to_record()),
                Err(DecodeError::Invalid(what)),
                "{what}"
            );
        }
    }
}
