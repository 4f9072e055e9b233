//! The centralized counter — the paper's introductory strawman.
//!
//! "A data structure implementing a distributed counter could be message
//! optimal by just storing the counter value with a single processor and
//! having all other processors access the counter with only one message
//! exchange — but this implementation is clearly unreasonable: the single
//! processor handling the counter value will be a bottleneck."
//!
//! Exactly two messages per operation (message-optimal), but the
//! coordinator's load is 2n over the canonical workload — the Θ(n)
//! bottleneck the paper's tree reduces to O(k).

use distctr_sim::{DeliveryPolicy, Network, Outbox, ProcessorId, Protocol, SimError, TraceMode};

use crate::driver::{
    ConcurrentProtocol, CounterProtocol, Delivered, Entry, OpProtocol, OverlappedProtocol,
    SimCounter,
};

/// Protocol messages of the centralized counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CentralMsg {
    /// Request from an initiator to the coordinator.
    Request {
        /// The initiating processor (reply address).
        origin: ProcessorId,
    },
    /// The pre-increment value, returned to the initiator.
    Value {
        /// Counter value.
        value: u64,
    },
}

/// The centralized counter's protocol: the coordinator and its value.
#[derive(Debug, Clone)]
pub struct CentralState {
    coordinator: ProcessorId,
    value: u64,
    delivered: Vec<Delivered<u64>>,
}

impl Protocol for CentralState {
    type Msg = CentralMsg;

    fn on_deliver(
        &mut self,
        out: &mut Outbox<'_, CentralMsg>,
        _from: ProcessorId,
        msg: CentralMsg,
    ) {
        match msg {
            CentralMsg::Request { origin } => {
                debug_assert_eq!(out.me(), self.coordinator);
                let value = self.value;
                self.value += 1;
                out.send(origin, CentralMsg::Value { value });
            }
            CentralMsg::Value { value } => {
                self.delivered.push((Some(out.op()), out.me(), value));
            }
        }
    }
}

impl OpProtocol for CentralState {
    type Value = u64;

    fn delivered(&mut self) -> &mut Vec<Delivered<u64>> {
        &mut self.delivered
    }
}

impl CounterProtocol for CentralState {
    const NAME: &'static str = "central";

    fn enter(&mut self, initiator: ProcessorId) -> Entry<CentralMsg, u64> {
        Entry::Send(self.coordinator, CentralMsg::Request { origin: initiator })
    }
}

impl ConcurrentProtocol for CentralState {}

impl OverlappedProtocol for CentralState {}

/// A counter whose value lives at a single coordinator processor.
///
/// # Examples
///
/// ```
/// use distctr_baselines::CentralCounter;
/// use distctr_sim::{Counter, ProcessorId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut counter = CentralCounter::new(8)?;
/// assert_eq!(counter.inc(ProcessorId::new(3))?.value, 0);
/// assert_eq!(counter.inc(ProcessorId::new(5))?.value, 1);
/// // Two messages per op, both touching the coordinator.
/// assert_eq!(counter.loads().load_of(ProcessorId::new(0)), 4);
/// # Ok(())
/// # }
/// ```
pub type CentralCounter = SimCounter<CentralState>;

impl CentralCounter {
    /// Creates a centralized counter on `n` processors with processor 0 as
    /// coordinator and FIFO delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, SimError> {
        Self::with_policy(n, TraceMode::Contacts, DeliveryPolicy::default())
    }

    /// Creates a centralized counter with explicit trace mode and
    /// delivery policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `n == 0`.
    pub fn with_policy(
        n: usize,
        trace: TraceMode,
        policy: DeliveryPolicy,
    ) -> Result<Self, SimError> {
        let net = Network::with_policy(n, trace, policy)?;
        let state =
            CentralState { coordinator: ProcessorId::new(0), value: 0, delivered: Vec::new() };
        Ok(SimCounter::from_parts(net, state))
    }

    /// The coordinator processor.
    #[must_use]
    pub fn coordinator(&self) -> ProcessorId {
        self.sim.proto.coordinator
    }

    /// The counter's current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.sim.proto.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distctr_sim::{ConcurrentCounter, ConcurrentDriver, Counter, SequentialDriver};

    #[test]
    fn sequential_correctness_and_message_optimality() {
        let mut c = CentralCounter::new(16).expect("counter");
        let out = SequentialDriver::run_identity(&mut c).expect("sequence");
        assert!(out.values_are_sequential());
        assert_eq!(out.total_messages, 32, "exactly 2 messages per op");
        assert!((out.messages_per_op() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn coordinator_is_the_bottleneck_with_load_2n() {
        let mut c = CentralCounter::new(16).expect("counter");
        SequentialDriver::run_identity(&mut c).expect("sequence");
        let (b, load) = c.loads().bottleneck().expect("bottleneck");
        assert_eq!(b, ProcessorId::new(0));
        // 2n from coordinating, plus 2 for its own op.
        assert_eq!(load, 2 * 16 + 2);
    }

    #[test]
    fn hot_spot_lemma_trivially_satisfied() {
        let mut c = CentralCounter::new(4).expect("counter");
        let out = SequentialDriver::run_identity(&mut c).expect("sequence");
        let traces: Vec<_> = out.results.iter().map(|r| r.trace.clone().expect("trace")).collect();
        for pair in traces.windows(2) {
            let common = pair[0].contacts.intersection(&pair[1].contacts);
            assert!(common.contains(&ProcessorId::new(0)), "coordinator in every contact set");
        }
    }

    #[test]
    fn concurrent_batches_are_gap_free() {
        let mut c = CentralCounter::new(12).expect("counter");
        let values = ConcurrentDriver::run_batches(&mut c, 4, 3).expect("batches");
        assert!(ConcurrentDriver::values_are_gap_free(&values));
        assert_eq!(c.value(), 12);
    }

    #[test]
    fn unknown_initiator_rejected_everywhere() {
        let mut c = CentralCounter::new(2).expect("counter");
        assert!(c.inc(ProcessorId::new(5)).is_err());
        assert!(c.inc_batch(&[ProcessorId::new(5)]).is_err());
    }

    #[test]
    fn works_under_every_delivery_policy() {
        for policy in DeliveryPolicy::test_suite() {
            let mut c =
                CentralCounter::with_policy(8, TraceMode::Contacts, policy).expect("counter");
            let out = SequentialDriver::run_shuffled(&mut c, 1).expect("sequence");
            assert!(out.values_are_sequential());
        }
    }

    #[test]
    fn single_processor_network() {
        let mut c = CentralCounter::new(1).expect("counter");
        let r = c.inc(ProcessorId::new(0)).expect("self-inc");
        assert_eq!(r.value, 0);
        assert_eq!(r.messages, 2, "request and reply are self-messages but still count");
    }
}
