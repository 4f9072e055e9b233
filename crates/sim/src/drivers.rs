//! Operation-sequence drivers.
//!
//! The lower bound is stated for "a sequence of n counting operations
//! spread over n processors ... each processor initiates exactly one inc
//! operation". [`SequentialDriver`] runs exactly such permutations (or any
//! other initiator sequence) against a [`Counter`] and collects the
//! quantities the experiments report. [`ConcurrentDriver`] runs batched
//! workloads against [`ConcurrentCounter`]s for the extension experiments.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::counter::{ConcurrentCounter, Counter, IncResult};
use crate::error::SimError;
use crate::id::ProcessorId;

/// Outcome of driving a full operation sequence.
#[derive(Debug, Clone)]
pub struct SequenceOutcome {
    /// Per-operation results, in execution order.
    pub results: Vec<IncResult>,
    /// Bottleneck load after the sequence.
    pub bottleneck: u64,
    /// Total messages exchanged over the sequence.
    pub total_messages: u64,
}

impl SequenceOutcome {
    /// The values returned to initiators, in execution order.
    #[must_use]
    pub fn values(&self) -> Vec<u64> {
        self.results.iter().map(|r| r.value).collect()
    }

    /// Whether the counter behaved correctly under sequential semantics:
    /// operation `i` observed value `i`.
    #[must_use]
    pub fn values_are_sequential(&self) -> bool {
        self.results.iter().enumerate().all(|(i, r)| r.value == i as u64)
    }

    /// Average messages per operation.
    #[must_use]
    pub fn messages_per_op(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.total_messages as f64 / self.results.len() as f64
        }
    }
}

/// Drives sequential operation sequences against any [`Counter`].
///
/// # Examples
///
/// ```no_run
/// use distctr_sim::{Counter, SequentialDriver};
/// fn demo<C: Counter>(counter: &mut C) {
///     let outcome = SequentialDriver::run_identity(counter).expect("sequence runs");
///     assert!(outcome.values_are_sequential());
/// }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialDriver;

impl SequentialDriver {
    /// Runs one `inc` per processor in id order (0, 1, ..., n-1).
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Counter::inc`].
    pub fn run_identity<C: Counter + ?Sized>(counter: &mut C) -> Result<SequenceOutcome, SimError> {
        let order: Vec<ProcessorId> = (0..counter.processors()).map(ProcessorId::new).collect();
        Self::run_order(counter, &order)
    }

    /// Runs one `inc` per processor in a seeded random order — the
    /// canonical "each processor increments exactly once" workload.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Counter::inc`].
    pub fn run_shuffled<C: Counter + ?Sized>(
        counter: &mut C,
        seed: u64,
    ) -> Result<SequenceOutcome, SimError> {
        let mut order: Vec<ProcessorId> = (0..counter.processors()).map(ProcessorId::new).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        Self::run_order(counter, &order)
    }

    /// Runs `inc` operations with the given initiators, in order. The
    /// sequence need not be a permutation (use
    /// [`SequentialDriver::run_permutation`] to enforce the paper's
    /// workload).
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Counter::inc`].
    pub fn run_order<C: Counter + ?Sized>(
        counter: &mut C,
        order: &[ProcessorId],
    ) -> Result<SequenceOutcome, SimError> {
        let before = counter.loads().total_messages();
        let mut results = Vec::with_capacity(order.len());
        for &p in order {
            results.push(counter.inc(p)?);
        }
        Ok(SequenceOutcome {
            results,
            bottleneck: counter.loads().max_load(),
            total_messages: counter.loads().total_messages() - before,
        })
    }

    /// Runs the initiator sequence produced by a
    /// [`Workload`](crate::workloads::Workload) generator.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Counter::inc`].
    pub fn run_workload<C: Counter + ?Sized>(
        counter: &mut C,
        workload: &crate::workloads::Workload,
    ) -> Result<SequenceOutcome, SimError> {
        let order = workload.generate(counter.processors());
        Self::run_order(counter, &order)
    }

    /// Like [`SequentialDriver::run_order`], but first checks that `order`
    /// is a permutation of all processors.
    ///
    /// # Errors
    ///
    /// [`SimError::NotAPermutation`] if some processor is missing or
    /// repeated; otherwise propagates errors from [`Counter::inc`].
    pub fn run_permutation<C: Counter + ?Sized>(
        counter: &mut C,
        order: &[ProcessorId],
    ) -> Result<SequenceOutcome, SimError> {
        let n = counter.processors();
        let mut seen = vec![false; n];
        if order.len() != n {
            return Err(SimError::NotAPermutation);
        }
        for &p in order {
            if p.index() >= n || seen[p.index()] {
                return Err(SimError::NotAPermutation);
            }
            seen[p.index()] = true;
        }
        Self::run_order(counter, order)
    }
}

/// Drives batched concurrent workloads against a [`ConcurrentCounter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcurrentDriver;

impl ConcurrentDriver {
    /// Partitions a shuffled permutation of all processors into batches of
    /// `batch` simultaneous initiators and runs them. Returns all values
    /// handed out, in initiation order.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`ConcurrentCounter::inc_batch`].
    pub fn run_batches<C: ConcurrentCounter + ?Sized>(
        counter: &mut C,
        batch: usize,
        seed: u64,
    ) -> Result<Vec<u64>, SimError> {
        let mut order: Vec<ProcessorId> = (0..counter.processors()).map(ProcessorId::new).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let mut values = Vec::with_capacity(order.len());
        for chunk in order.chunks(batch.max(1)) {
            values.extend(counter.inc_batch(chunk)?);
        }
        Ok(values)
    }

    /// Checks quiescent counting correctness: after all batches complete,
    /// exactly the values `0..m` were handed out, each once (in any
    /// order). This is the guarantee counting networks provide.
    #[must_use]
    pub fn values_are_gap_free(values: &[u64]) -> bool {
        let (missing, duplicates) = crate::linearize::value_multiset(values.to_vec());
        missing.is_empty() && duplicates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadTracker;
    use crate::time::SimTime;

    /// A direct in-memory counter used to test the drivers themselves.
    struct Local {
        n: usize,
        val: u64,
        loads: LoadTracker,
    }
    impl Local {
        fn new(n: usize) -> Self {
            Local { n, val: 0, loads: LoadTracker::new(n) }
        }
    }
    impl Counter for Local {
        fn name(&self) -> &'static str {
            "local"
        }
        fn processors(&self) -> usize {
            self.n
        }
        fn inc(&mut self, initiator: ProcessorId) -> Result<IncResult, SimError> {
            if initiator.index() >= self.n {
                return Err(SimError::UnknownProcessor {
                    index: initiator.index(),
                    processors: self.n,
                });
            }
            let value = self.val;
            self.val += 1;
            // Pretend one message each way to a fixed coordinator.
            self.loads.record_send(initiator);
            self.loads.record_receive(ProcessorId::new(0));
            self.loads.record_send(ProcessorId::new(0));
            self.loads.record_receive(initiator);
            Ok(IncResult {
                value,
                messages: 2,
                completed_at: SimTime::from_ticks(self.val),
                trace: None,
            })
        }
        fn loads(&self) -> &LoadTracker {
            &self.loads
        }
    }
    impl ConcurrentCounter for Local {
        fn inc_batch(&mut self, initiators: &[ProcessorId]) -> Result<Vec<u64>, SimError> {
            initiators.iter().map(|&p| self.inc(p).map(|r| r.value)).collect()
        }
    }

    #[test]
    fn identity_run_is_sequential() {
        let mut c = Local::new(5);
        let out = SequentialDriver::run_identity(&mut c).expect("runs");
        assert!(out.values_are_sequential());
        assert_eq!(out.values(), vec![0, 1, 2, 3, 4]);
        assert_eq!(out.total_messages, 10);
        assert!((out.messages_per_op() - 2.0).abs() < 1e-12);
        // Coordinator handled 2 messages per op, plus 2 more for the op
        // it initiated itself.
        assert_eq!(out.bottleneck, 12);
    }

    #[test]
    fn shuffled_run_is_reproducible_and_complete() {
        let mut c1 = Local::new(16);
        let mut c2 = Local::new(16);
        let o1 = SequentialDriver::run_shuffled(&mut c1, 99).expect("runs");
        let o2 = SequentialDriver::run_shuffled(&mut c2, 99).expect("runs");
        assert_eq!(o1.values(), o2.values());
        assert!(o1.values_are_sequential());
    }

    #[test]
    fn permutation_validation() {
        let mut c = Local::new(3);
        let bad = [ProcessorId::new(0), ProcessorId::new(0), ProcessorId::new(2)];
        assert_eq!(
            SequentialDriver::run_permutation(&mut c, &bad).unwrap_err(),
            SimError::NotAPermutation
        );
        let short = [ProcessorId::new(0)];
        assert_eq!(
            SequentialDriver::run_permutation(&mut c, &short).unwrap_err(),
            SimError::NotAPermutation
        );
        let good = [ProcessorId::new(2), ProcessorId::new(0), ProcessorId::new(1)];
        assert!(SequentialDriver::run_permutation(&mut c, &good).is_ok());
    }

    #[test]
    fn unknown_initiator_propagates() {
        let mut c = Local::new(2);
        let err = SequentialDriver::run_order(&mut c, &[ProcessorId::new(9)]).unwrap_err();
        assert_eq!(err, SimError::UnknownProcessor { index: 9, processors: 2 });
    }

    #[test]
    fn run_workload_uses_the_generator() {
        use crate::workloads::Workload;
        let mut c = Local::new(6);
        let out = SequentialDriver::run_workload(&mut c, &Workload::Identity).expect("runs");
        assert!(out.values_are_sequential());
        assert_eq!(out.results.len(), 6);
        let mut c = Local::new(6);
        let out = SequentialDriver::run_workload(
            &mut c,
            &Workload::SingleInitiator { initiator: 2, ops: 9 },
        )
        .expect("runs");
        assert_eq!(out.results.len(), 9);
    }

    #[test]
    fn concurrent_batches_cover_all_processors() {
        let mut c = Local::new(10);
        let values = ConcurrentDriver::run_batches(&mut c, 4, 7).expect("runs");
        assert_eq!(values.len(), 10);
        assert!(ConcurrentDriver::values_are_gap_free(&values));
    }

    #[test]
    fn gap_free_detects_duplicates_and_gaps() {
        assert!(ConcurrentDriver::values_are_gap_free(&[2, 0, 1]));
        assert!(!ConcurrentDriver::values_are_gap_free(&[0, 0, 1]));
        assert!(!ConcurrentDriver::values_are_gap_free(&[0, 2, 3]));
        assert!(ConcurrentDriver::values_are_gap_free(&[]));
    }

    #[test]
    fn empty_outcome_messages_per_op_is_zero() {
        let out = SequenceOutcome { results: vec![], bottleneck: 0, total_messages: 0 };
        assert_eq!(out.messages_per_op(), 0.0);
        assert!(out.values_are_sequential());
    }
}
