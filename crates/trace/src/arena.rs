//! A content-addressed store of materialised instruction streams.
//!
//! The benchmark's traced repro pass (`perfbench`) times trace generation
//! as its own layer, so it materialises each distinct `(model, seed,
//! length)` stream once into an `Arc<[Instruction]>` here before
//! annotating it. That pass is the arena's only user: the experiment
//! runner generates each stream straight into its annotation
//! (`pipedepth_sim::AnnotationStore`) and keeps no stream resident.
//!
//! Generation happens under the arena lock, so two concurrent requests
//! for the same stream never duplicate work.
//!
//! # Examples
//!
//! ```
//! use pipedepth_trace::{TraceArena, WorkloadModel};
//!
//! let arena = TraceArena::new();
//! let a = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 1_000);
//! let b = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 1_000);
//! assert!(std::sync::Arc::ptr_eq(&a, &b), "one materialisation, shared");
//! ```

use crate::generator::{TraceGenerator, TraceRequest};
use crate::isa::Instruction;
use crate::model::WorkloadModel;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One key's entries; the request is kept alongside the stream to resolve
/// hash collisions by exact comparison.
type Bucket = Vec<(TraceRequest, Arc<[Instruction]>)>;

/// Shared, content-addressed store of materialised instruction streams.
#[derive(Debug, Default)]
pub struct TraceArena {
    buckets: Mutex<BTreeMap<u64, Bucket>>,
}

impl TraceArena {
    /// An empty arena.
    pub fn new() -> Self {
        TraceArena::default()
    }

    /// The stream for `(model, seed, len)`, materialising it on first
    /// request and sharing the same `Arc` on every subsequent one.
    pub fn get_or_generate(&self, model: WorkloadModel, seed: u64, len: u64) -> Arc<[Instruction]> {
        let request = TraceRequest { model, seed, len };
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = buckets.entry(request.key()).or_default();
        if let Some((_, stream)) = bucket.iter().find(|(r, _)| r == &request) {
            return Arc::clone(stream);
        }
        let stream: Arc<[Instruction]> = TraceGenerator::new(model, seed)
            .take_vec(len as usize)
            .into();
        bucket.push((request, Arc::clone(&stream)));
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialises_once_and_shares() {
        let arena = TraceArena::new();
        let a = arena.get_or_generate(WorkloadModel::modern_like(), 3, 500);
        let b = arena.get_or_generate(WorkloadModel::modern_like(), 3, 500);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn stream_matches_the_generator() {
        let arena = TraceArena::new();
        let stream = arena.get_or_generate(WorkloadModel::spec_fp_like(), 9, 800);
        let direct = TraceGenerator::new(WorkloadModel::spec_fp_like(), 9).take_vec(800);
        assert_eq!(&stream[..], &direct[..]);
    }

    #[test]
    fn distinct_inputs_get_distinct_streams() {
        let arena = TraceArena::new();
        let base = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 400);
        let reseeded = arena.get_or_generate(WorkloadModel::spec_int_like(), 2, 400);
        let longer = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 401);
        let remodelled = arena.get_or_generate(WorkloadModel::legacy_like(), 1, 400);
        assert!(!Arc::ptr_eq(&base, &reseeded));
        assert!(!Arc::ptr_eq(&base, &longer));
        assert!(!Arc::ptr_eq(&base, &remodelled));
        assert_eq!(longer.len(), 401);
    }

    #[test]
    fn concurrent_requests_share_one_materialisation() {
        let arena = TraceArena::new();
        let streams: Vec<Arc<[Instruction]>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| arena.get_or_generate(WorkloadModel::modern_like(), 7, 2_000))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker finished"))
                .collect()
        });
        for stream in &streams[1..] {
            assert!(Arc::ptr_eq(&streams[0], stream), "one thread generates");
        }
    }
}
