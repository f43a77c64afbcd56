//! Request batching, coalescing and admission control.
//!
//! Simulation requests do not go straight to the backend: they pass
//! through a [`BatchQueue`](crate::batch::BatchQueue) that
//!
//! * **coalesces** — identical cells (same [`CellSpec::key`](pipedepth_core::eval::CellSpec::key) and spec)
//!   submitted by concurrent requests share one [`Slot`](crate::batch::Slot), so the backend
//!   sees each distinct cell once per flight no matter how many clients
//!   ask for it;
//! * **batches** — dispatch workers drain up to `batch_max` queued cells
//!   at a time and answer them with a single
//!   [`Evaluator::evaluate_batch`](pipedepth_core::eval::Evaluator::evaluate_batch)
//!   call, amortising the runner's fan-out cost;
//! * **sheds** — admission is checked atomically per request against a
//!   bounded queue: if a request's new cells do not fit, *none* of them
//!   are enqueued and the caller gets a [`Shed`](crate::batch::Shed) to turn into a 429.
//!
//! The queue knows nothing about HTTP or backends; the service layer
//! owns a queue, spawns workers that loop on [`BatchQueue::next_batch`](crate::batch::BatchQueue::next_batch),
//! and completes batches with [`BatchQueue::finish`](crate::batch::BatchQueue::finish).

use pipedepth_core::eval::CellSpec;
use pipedepth_core::eval::EvalOutcome;
use pipedepth_core::EvalError;
use pipedepth_telemetry::Stopwatch;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// One cell's completion slot, shared by every request waiting on it.
#[derive(Debug, Default)]
pub struct Slot {
    state: Mutex<Option<Result<EvalOutcome, EvalError>>>,
    done: Condvar,
}

impl Slot {
    /// Fills the slot and wakes every waiter. Later fills are ignored
    /// (first result wins; results are deterministic anyway).
    pub fn fill(&self, result: Result<EvalOutcome, EvalError>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.is_none() {
            *state = Some(result);
            self.done.notify_all();
        }
    }

    /// True when the slot has been filled.
    pub fn is_done(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Blocks until the slot is filled.
    pub fn wait(&self) -> Result<EvalOutcome, EvalError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the slot is filled or `budget` elapses; `None` on
    /// timeout.
    pub fn wait_for(&self, budget: Duration) -> Option<Result<EvalOutcome, EvalError>> {
        let started = Stopwatch::start();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = state.as_ref() {
                return Some(result.clone());
            }
            let elapsed = Duration::from_micros(started.elapsed_us() as u64);
            let remaining = budget.checked_sub(elapsed)?;
            let (next, _timed_out) = self
                .done
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
    }
}

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The bounded queue cannot hold the request's new cells. Carries the
    /// seconds a client should wait before retrying.
    Overloaded {
        /// Suggested client back-off, in seconds (`Retry-After`).
        retry_after_s: u64,
    },
    /// The queue is draining for shutdown; no new work is admitted.
    Closing,
}

/// What one admitted request got back: its slots, in request order, plus
/// how much of it was coalesced onto work already queued or in flight.
#[derive(Debug)]
pub struct Admitted {
    /// One slot per submitted cell, in order. Coalesced cells share slots.
    pub slots: Vec<Arc<Slot>>,
    /// Cells that attached to an existing slot instead of enqueuing.
    pub coalesced: u64,
    /// Cells that enqueued new work.
    pub enqueued: u64,
    /// Cells answered from the caller's probe with a pre-filled slot.
    pub cached: u64,
}

/// One queued unit of work.
#[derive(Debug)]
pub struct QueuedCell {
    /// The cell's content key (cached to avoid re-hashing).
    pub key: u64,
    /// The cell to evaluate.
    pub spec: CellSpec,
    /// Where the result goes.
    pub slot: Arc<Slot>,
}

#[derive(Debug, Default)]
struct QueueInner {
    /// Unique cells awaiting dispatch, FIFO.
    pending: VecDeque<QueuedCell>,
    /// Every live (queued or dispatched, not yet completed) cell by key —
    /// the coalescing index. Buckets resolve key collisions by spec
    /// equality.
    live: BTreeMap<u64, Vec<(CellSpec, Arc<Slot>)>>,
    closed: bool,
}

/// The bounded, coalescing dispatch queue. See the module docs.
#[derive(Debug)]
pub struct BatchQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    /// Most cells allowed in `pending` at once.
    cap: usize,
    /// Most cells a worker drains per dispatch.
    batch_max: usize,
}

impl BatchQueue {
    /// A queue admitting at most `cap` pending cells and dispatching at
    /// most `batch_max` (clamped to ≥ 1) per batch.
    pub fn new(cap: usize, batch_max: usize) -> Self {
        BatchQueue {
            inner: Mutex::default(),
            ready: Condvar::new(),
            cap,
            batch_max: batch_max.max(1),
        }
    }

    /// Admits a request's cells atomically: either every new cell fits in
    /// the queue (and the request gets one slot per cell, coalesced where
    /// an identical cell is already live) or nothing is enqueued.
    ///
    /// # Errors
    ///
    /// [`Shed::Overloaded`] when the new cells would overflow the queue,
    /// [`Shed::Closing`] once [`close`](BatchQueue::close) was called.
    pub fn submit(&self, cells: &[CellSpec]) -> Result<Admitted, Shed> {
        self.submit_with(cells, |_| None)
    }

    /// Like [`submit`](BatchQueue::submit), but consults `probe` under the
    /// queue lock for cells missing from the live index: a probe hit
    /// answers the cell with a pre-filled slot instead of enqueuing it.
    ///
    /// The service passes its cache lookup as the probe. That closes the
    /// window where a dispatch retires a cell from the live index just
    /// after a caller's pre-submit cache check missed: results reach the
    /// cache *before* [`finish`](BatchQueue::finish) retires the cells
    /// (which happens under this same lock), so a live-index miss here
    /// guarantees the probe sees the result.
    ///
    /// # Errors
    ///
    /// [`Shed::Overloaded`] when the new cells would overflow the queue,
    /// [`Shed::Closing`] once [`close`](BatchQueue::close) was called.
    pub fn submit_with(
        &self,
        cells: &[CellSpec],
        probe: impl Fn(&CellSpec) -> Option<EvalOutcome>,
    ) -> Result<Admitted, Shed> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Err(Shed::Closing);
        }
        // Pass 1: resolve against the live index without mutating it, so
        // an overloaded request leaves no trace.
        let mut resolved: Vec<Option<Arc<Slot>>> = Vec::with_capacity(cells.len());
        let mut fresh: Vec<(usize, u64)> = Vec::new();
        let mut cached = 0u64;
        for (i, cell) in cells.iter().enumerate() {
            let key = cell.key();
            let existing = inner
                .live
                .get(&key)
                .and_then(|bucket| bucket.iter().find(|(s, _)| s == cell))
                .map(|(_, slot)| Arc::clone(slot));
            // In-request duplicates of a fresh cell coalesce too.
            let in_request = existing.is_none().then(|| {
                fresh
                    .iter()
                    .find(|&&(j, k)| k == key && &cells[j] == cell)
                    .map(|&(j, _)| j)
            });
            match (existing, in_request.flatten()) {
                (Some(slot), _) => resolved.push(Some(slot)),
                (None, Some(_)) => resolved.push(None), // patched in pass 2
                (None, None) => match probe(cell) {
                    Some(out) => {
                        let slot = Arc::new(Slot::default());
                        slot.fill(Ok(out));
                        cached += 1;
                        resolved.push(Some(slot));
                    }
                    None => {
                        fresh.push((i, key));
                        resolved.push(None);
                    }
                },
            }
        }
        if inner.pending.len() + fresh.len() > self.cap {
            return Err(Shed::Overloaded { retry_after_s: 1 });
        }
        // Pass 2: commit the fresh cells.
        for &(i, key) in &fresh {
            let slot = Arc::new(Slot::default());
            inner
                .live
                .entry(key)
                .or_default()
                .push((cells[i].clone(), Arc::clone(&slot)));
            inner.pending.push_back(QueuedCell {
                key,
                spec: cells[i].clone(),
                slot,
            });
        }
        let slots: Vec<Arc<Slot>> = cells
            .iter()
            .zip(&resolved)
            .map(|(cell, slot)| match slot {
                Some(slot) => Arc::clone(slot),
                None => {
                    let key = cell.key();
                    inner
                        .live
                        .get(&key)
                        .and_then(|bucket| bucket.iter().find(|(s, _)| s == cell))
                        .map(|(_, slot)| Arc::clone(slot))
                        // The cell was either live already or committed in
                        // pass 2; a miss here is unreachable, but fail soft
                        // with a pre-filled error slot rather than panic.
                        .unwrap_or_else(|| {
                            let slot = Arc::new(Slot::default());
                            slot.fill(Err(EvalError::Backend {
                                backend: "serve".to_string(),
                                message: "queue admission lost a cell".to_string(),
                            }));
                            slot
                        })
                }
            })
            .collect();
        let coalesced = cells.len() as u64 - fresh.len() as u64 - cached;
        if !fresh.is_empty() {
            self.ready.notify_all();
        }
        Ok(Admitted {
            slots,
            coalesced,
            enqueued: fresh.len() as u64,
            cached,
        })
    }

    /// Blocks until work is queued (returning up to `batch_max` cells) or
    /// the queue is closed *and* drained (returning `None`). Dispatch
    /// workers loop on this.
    pub fn next_batch(&self) -> Option<Vec<QueuedCell>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !inner.pending.is_empty() {
                let take = self.batch_max.min(inner.pending.len());
                return Some(inner.pending.drain(..take).collect());
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Completes a dispatched batch: fills every slot and retires the
    /// cells from the coalescing index.
    pub fn finish(&self, batch: Vec<QueuedCell>, results: Vec<Result<EvalOutcome, EvalError>>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut results = results.into_iter();
        for cell in batch {
            let result = results.next().unwrap_or_else(|| {
                Err(EvalError::Backend {
                    backend: "serve".to_string(),
                    message: "backend returned too few results for the batch".to_string(),
                })
            });
            cell.slot.fill(result);
            if let Some(bucket) = inner.live.get_mut(&cell.key) {
                bucket.retain(|(s, _)| s != &cell.spec);
                if bucket.is_empty() {
                    inner.live.remove(&cell.key);
                }
            }
        }
    }

    /// Cells currently awaiting dispatch.
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .len()
    }

    /// Stops admitting work and wakes every worker. Workers drain what is
    /// already queued (so no admitted request loses its response), then
    /// [`next_batch`](BatchQueue::next_batch) returns `None` and they
    /// exit.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_core::eval::WorkloadProfile;

    fn cell(depth: u32) -> CellSpec {
        CellSpec::new(
            "w",
            WorkloadProfile {
                alpha: 2.0,
                gamma: 0.4,
                hazard_rate: 0.1,
                kappa: 0.2,
                memory_time_fo4: 10.0,
            },
            depth,
        )
    }

    fn outcome(depth: u32) -> EvalOutcome {
        EvalOutcome {
            depth,
            cpi: 1.0,
            frequency: 0.1,
            time_per_instruction_fo4: 10.0,
            throughput: 0.1,
            power_gated: 1.0,
            power_ungated: 2.0,
            metric_gated: [0.1; 3],
            metric_ungated: [0.05; 3],
            profile: cell(depth).profile,
        }
    }

    #[test]
    fn identical_cells_share_one_slot() {
        let queue = BatchQueue::new(8, 4);
        let a = queue
            .submit(&[cell(4), cell(4), cell(6)])
            .expect("admitted");
        assert_eq!(a.enqueued, 2, "in-request duplicate coalesces");
        assert_eq!(a.coalesced, 1);
        assert!(Arc::ptr_eq(&a.slots[0], &a.slots[1]));
        let b = queue.submit(&[cell(4)]).expect("admitted");
        assert_eq!((b.enqueued, b.coalesced), (0, 1), "cross-request coalesce");
        assert!(Arc::ptr_eq(&a.slots[0], &b.slots[0]));
        assert_eq!(queue.depth(), 2, "two unique cells pending");
    }

    #[test]
    fn admission_is_atomic_and_bounded() {
        let queue = BatchQueue::new(2, 4);
        queue.submit(&[cell(2), cell(3)]).expect("fills the queue");
        // One coalescing cell + one fresh cell: the fresh one does not fit.
        let shed = queue.submit(&[cell(2), cell(9)]).expect_err("over cap");
        assert!(matches!(shed, Shed::Overloaded { retry_after_s: 1 }));
        assert_eq!(queue.depth(), 2, "rejected request left no residue");
        // Pure coalescing still admits at capacity.
        let a = queue.submit(&[cell(2)]).expect("no new cells needed");
        assert_eq!(a.coalesced, 1);
    }

    #[test]
    fn batches_drain_in_order_and_fill_waiters() {
        let queue = BatchQueue::new(16, 2);
        let a = queue
            .submit(&[cell(2), cell(3), cell(4)])
            .expect("admitted");
        let batch = queue.next_batch().expect("work available");
        assert_eq!(batch.len(), 2, "batch_max bounds the drain");
        assert_eq!(batch[0].spec.depth, 2);
        let results = batch.iter().map(|c| Ok(outcome(c.spec.depth))).collect();
        queue.finish(batch, results);
        assert_eq!(a.slots[0].wait().expect("filled").depth, 2);
        assert!(a.slots[0].is_done());
        assert!(!a.slots[2].is_done(), "third cell still pending");
        assert_eq!(queue.depth(), 1);
    }

    #[test]
    fn wait_for_times_out_then_sees_late_results() {
        let queue = BatchQueue::new(4, 4);
        let a = queue.submit(&[cell(5)]).expect("admitted");
        assert_eq!(a.slots[0].wait_for(Duration::from_millis(5)), None);
        let batch = queue.next_batch().expect("work");
        queue.finish(batch, vec![Ok(outcome(5))]);
        let result = a.slots[0]
            .wait_for(Duration::from_millis(5))
            .expect("already done");
        assert_eq!(result.expect("ok").depth, 5);
    }

    #[test]
    fn close_drains_then_stops_admitting() {
        let queue = Arc::new(BatchQueue::new(8, 8));
        let a = queue.submit(&[cell(2)]).expect("admitted");
        queue.close();
        assert_eq!(
            queue.submit(&[cell(3)]).expect_err("closing"),
            Shed::Closing
        );
        // A worker still drains the admitted cell…
        let batch = queue.next_batch().expect("drain continues after close");
        queue.finish(batch, vec![Ok(outcome(2))]);
        assert!(a.slots[0].wait().is_ok());
        // …and only then sees the end of the queue.
        assert!(queue.next_batch().is_none());
    }

    #[test]
    fn probe_hits_answer_without_enqueuing() {
        let queue = BatchQueue::new(4, 4);
        let a = queue
            .submit_with(&[cell(3), cell(4)], |spec| {
                (spec.depth == 3).then(|| outcome(3))
            })
            .expect("admitted");
        assert_eq!((a.enqueued, a.coalesced, a.cached), (1, 0, 1));
        assert_eq!(a.slots[0].wait().expect("pre-filled").depth, 3);
        assert!(!a.slots[1].is_done(), "probe miss still queues");
        assert_eq!(queue.depth(), 1, "only the probe miss enqueued");
        // A live cell is never probed: coalescing takes precedence.
        let b = queue
            .submit_with(&[cell(4)], |_| panic!("live cells must not probe"))
            .expect("admitted");
        assert_eq!((b.enqueued, b.coalesced, b.cached), (0, 1, 0));
    }

    #[test]
    fn concurrent_submitters_coalesce_to_one_dispatch() {
        let queue = Arc::new(BatchQueue::new(64, 64));
        let slots: Vec<Arc<Slot>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    scope.spawn(move || queue.submit(&[cell(7)]).expect("admitted").slots.remove(0))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(queue.depth(), 1, "eight submitters, one queued cell");
        let batch = queue.next_batch().expect("work");
        assert_eq!(batch.len(), 1);
        queue.finish(batch, vec![Ok(outcome(7))]);
        for slot in slots {
            assert_eq!(slot.wait().expect("shared result").depth, 7);
        }
    }
}
