//! The abstract distributed counter interface.
//!
//! The paper's data type: "a distributed counter encapsulates an integer
//! value `val` and supports the operation `inc`: for any processor, `inc`
//! returns the current counter value `val` to the requesting processor and
//! increments the counter by one."
//!
//! Every counter in this workspace — the paper's retirement tree and all
//! baselines — implements [`Counter`], so drivers, auditors, the
//! lower-bound adversary and the benchmark harness are generic over the
//! implementation.

use crate::error::SimError;
use crate::id::ProcessorId;
use crate::load::LoadTracker;
use crate::time::SimTime;
use crate::trace::OpTrace;

/// Result of one simulated operation: the value its initiator received
/// and what the operation cost.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult<V> {
    /// The value returned to the initiator; for `inc`, the counter value
    /// *before* the increment, as in the paper.
    pub value: V,
    /// Messages exchanged during the operation (including any
    /// retirement/maintenance traffic it triggered).
    pub messages: u64,
    /// Simulated completion time of the operation.
    pub completed_at: SimTime,
    /// Per-operation trace, when the implementation records one.
    pub trace: Option<OpTrace>,
}

/// Result of one `inc` operation.
pub type IncResult = OpResult<u64>;

impl<V> OpResult<V> {
    /// Length of the operation's communication list (= message count).
    #[must_use]
    pub fn list_len(&self) -> u64 {
        self.messages
    }
}

/// A distributed counter running on a simulated network.
///
/// Operations follow the paper's sequential model: `inc` runs the entire
/// process (including maintenance messages "sent in order to prepare for
/// future operations") to network quiescence before returning, mirroring
/// the assumption that "enough time elapses in between any two inc
/// requests".
pub trait Counter {
    /// Short stable implementation name, e.g. `"retirement-tree"`.
    fn name(&self) -> &'static str;

    /// Number of processors in the network.
    fn processors(&self) -> usize;

    /// Executes one `inc` initiated by `initiator`.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownProcessor`] if `initiator` is out of range.
    /// * [`SimError::Livelock`] if the protocol fails to
    ///   quiesce.
    fn inc(&mut self, initiator: ProcessorId) -> Result<IncResult, SimError>;

    /// Cumulative per-processor message loads since construction.
    fn loads(&self) -> &LoadTracker;

    /// The current bottleneck load `m_b = max_p m_p`.
    fn bottleneck_load(&self) -> u64 {
        self.loads().max_load()
    }
}

/// A completed operation of an overlapped (staged) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedOp {
    /// The operation.
    pub op: crate::id::OpId,
    /// Its initiator.
    pub initiator: ProcessorId,
    /// The value it received.
    pub value: u64,
    /// When it was initiated.
    pub started_at: SimTime,
    /// When the value reached the initiator.
    pub completed_at: SimTime,
}

impl CompletedOp {
    /// Converts to a record for the history checker.
    #[must_use]
    pub fn to_record(self) -> crate::linearize::FetchIncRecord {
        crate::linearize::FetchIncRecord {
            started_at: self.started_at,
            completed_at: self.completed_at,
            value: self.value,
        }
    }
}

/// Counters that support *overlapping* operations under explicit time
/// control: start operations at chosen instants, let simulated time pass,
/// and collect per-operation (start, end, value) records — the raw
/// material of linearizability checking.
///
/// Implementations require per-op tracing ([`crate::TraceMode::Contacts`]
/// or better) to recover operation timings.
pub trait OverlappedCounter: Counter {
    /// Initiates an `inc` *now* without waiting for it to complete.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownProcessor`] if `initiator` is out of range.
    fn start_inc(&mut self, initiator: ProcessorId) -> Result<crate::id::OpId, SimError>;

    /// Delivers every message due by `deadline` and advances the clock to
    /// it.
    ///
    /// # Errors
    ///
    /// [`SimError::Livelock`] if the protocol livelocks.
    fn advance_until(&mut self, deadline: SimTime) -> Result<(), SimError>;

    /// Runs the network to quiescence and returns every operation started
    /// via [`OverlappedCounter::start_inc`] since the last call, with its
    /// timing and value.
    ///
    /// # Errors
    ///
    /// [`SimError::Livelock`] if the protocol livelocks.
    fn finish_all(&mut self) -> Result<Vec<CompletedOp>, SimError>;
}

/// Counters that also support several operations in flight at once.
///
/// This extends the paper's model (which explicitly serializes
/// operations); combining trees, diffracting trees and counting networks
/// are designed for exactly this regime, so the comparison experiments
/// need it.
pub trait ConcurrentCounter: Counter {
    /// Starts one `inc` per initiator simultaneously, runs the network to
    /// quiescence, and returns the values handed to each initiator, in
    /// input order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Counter::inc`].
    fn inc_batch(&mut self, initiators: &[ProcessorId]) -> Result<Vec<u64>, SimError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc_result_list_len_equals_messages() {
        let r =
            IncResult { value: 3, messages: 11, completed_at: SimTime::from_ticks(4), trace: None };
        assert_eq!(r.list_len(), 11);
    }

    // Counter implementations are tested in their own crates; here we only
    // verify the trait is object-safe enough for heterogeneous harnesses.
    #[test]
    fn counter_trait_is_object_safe() {
        fn _takes_dyn(_c: &mut dyn Counter) {}
    }
}
