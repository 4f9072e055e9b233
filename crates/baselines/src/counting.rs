//! A counting-network distributed counter (Aspnes-Herlihy-Shavit).
//!
//! Balancers of a [`BitonicNetwork`] are
//! hosted on processors; an `inc` injects a token on entry wire
//! `initiator mod w`, the token traverses `O(log^2 w)` balancers, and the
//! exit counter at rank `r` hands out values `r, r + w, r + 2w, ...`.
//!
//! Counting networks trade per-operation message count (network depth)
//! for low contention: no single balancer sees more than a `1/w` fraction
//! of traffic deep in the network. They are *quiescently consistent*
//! (gap-free after quiescence) but not linearizable; under the paper's
//! sequential model they count exactly.

use distctr_sim::{DeliveryPolicy, Network, Outbox, ProcessorId, Protocol, SimError, TraceMode};

use crate::bitonic::BitonicNetwork;
use crate::driver::{
    ConcurrentProtocol, CounterProtocol, Delivered, Entry, OpProtocol, OverlappedProtocol,
    SimCounter,
};
use crate::hosting::Hosting;

/// Messages of the counting-network protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountingMsg {
    /// A token headed for balancer `balancer`.
    Token {
        /// Target balancer id.
        balancer: u32,
        /// Initiator (reply address).
        origin: ProcessorId,
    },
    /// A token that cleared the last balancer on its wire, headed for the
    /// exit counter of `wire`.
    ExitToken {
        /// Physical exit wire.
        wire: u32,
        /// Initiator (reply address).
        origin: ProcessorId,
    },
    /// Value delivery to the initiator.
    Value {
        /// The assigned value.
        value: u64,
    },
}

/// The counting network's protocol: balancer toggles and exit counters.
#[derive(Debug, Clone)]
pub struct CountingState {
    network: BitonicNetwork,
    hosting: Hosting,
    toggles: Vec<bool>,
    /// Tokens seen per exit wire (indexed by wire).
    visits: Vec<u64>,
    delivered: Vec<Delivered<u64>>,
}

impl CountingState {
    fn balancer_host(&self, b: u32) -> ProcessorId {
        self.hosting.host_of(b as usize)
    }

    fn exit_host(&self, wire: u32) -> ProcessorId {
        self.hosting.host_of(self.network.balancer_count() + wire as usize)
    }

    fn forward(
        &mut self,
        out: &mut Outbox<'_, CountingMsg>,
        wire: usize,
        after: u32,
        origin: ProcessorId,
    ) {
        match self.network.next_on_wire(wire, after) {
            Some(next) => {
                out.send(self.balancer_host(next), CountingMsg::Token { balancer: next, origin })
            }
            None => out.send(
                self.exit_host(wire as u32),
                CountingMsg::ExitToken { wire: wire as u32, origin },
            ),
        }
    }
}

impl Protocol for CountingState {
    type Msg = CountingMsg;

    fn on_deliver(
        &mut self,
        out: &mut Outbox<'_, CountingMsg>,
        _from: ProcessorId,
        msg: CountingMsg,
    ) {
        match msg {
            CountingMsg::Token { balancer, origin } => {
                let bal = self.network.balancer(balancer);
                let toggle = &mut self.toggles[balancer as usize];
                let wire = if *toggle { bal.bottom } else { bal.top };
                *toggle = !*toggle;
                self.forward(out, wire, balancer, origin);
            }
            CountingMsg::ExitToken { wire, origin } => {
                let rank = self.network.exit_rank(wire as usize) as u64;
                let w = self.network.width() as u64;
                let value = rank + w * self.visits[wire as usize];
                self.visits[wire as usize] += 1;
                out.send(origin, CountingMsg::Value { value });
            }
            CountingMsg::Value { value } => {
                self.delivered.push((Some(out.op()), out.me(), value));
            }
        }
    }
}

impl OpProtocol for CountingState {
    type Value = u64;

    fn delivered(&mut self) -> &mut Vec<Delivered<u64>> {
        &mut self.delivered
    }
}

impl CounterProtocol for CountingState {
    const NAME: &'static str = "counting-network";

    fn enter(&mut self, initiator: ProcessorId) -> Entry<CountingMsg, u64> {
        let wire = initiator.index() % self.network.width();
        match self.network.entry(wire) {
            Some(b) => Entry::Send(
                self.balancer_host(b),
                CountingMsg::Token { balancer: b, origin: initiator },
            ),
            None => Entry::Send(
                self.exit_host(wire as u32),
                CountingMsg::ExitToken { wire: wire as u32, origin: initiator },
            ),
        }
    }
}

impl ConcurrentProtocol for CountingState {}

impl OverlappedProtocol for CountingState {}

/// A distributed counter backed by a bitonic counting network.
///
/// # Examples
///
/// ```
/// use distctr_baselines::CountingNetworkCounter;
/// use distctr_sim::{Counter, ProcessorId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut counter = CountingNetworkCounter::new(16, 4)?;
/// assert_eq!(counter.inc(ProcessorId::new(7))?.value, 0);
/// assert_eq!(counter.inc(ProcessorId::new(2))?.value, 1);
/// # Ok(())
/// # }
/// ```
pub type CountingNetworkCounter = SimCounter<CountingState>;

impl CountingNetworkCounter {
    /// Creates a counter on `n` processors over a `Bitonic[width]`
    /// network with FIFO delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `n == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or not a power of two (see
    /// [`BitonicNetwork::new`]).
    pub fn new(n: usize, width: usize) -> Result<Self, SimError> {
        Self::with_policy(n, width, TraceMode::Contacts, DeliveryPolicy::default())
    }

    /// Creates a counter with explicit trace mode and delivery policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `n == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two.
    pub fn with_policy(
        n: usize,
        width: usize,
        trace: TraceMode,
        policy: DeliveryPolicy,
    ) -> Result<Self, SimError> {
        let network = BitonicNetwork::new(width);
        let net = Network::with_policy(n, trace, policy)?;
        let hosting = Hosting::new(network.balancer_count() + width, n);
        let toggles = vec![false; network.balancer_count()];
        let visits = vec![0; width];
        let state = CountingState { network, hosting, toggles, visits, delivered: Vec::new() };
        Ok(SimCounter::from_parts(net, state))
    }

    /// The network width `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.sim.proto.network.width()
    }

    /// Exit counts by rank (for step-property checks).
    #[must_use]
    pub fn exit_counts_by_rank(&self) -> Vec<u64> {
        let w = self.width();
        let mut by_rank = vec![0u64; w];
        for wire in 0..w {
            by_rank[self.sim.proto.network.exit_rank(wire)] = self.sim.proto.visits[wire];
        }
        by_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitonic::has_step_property;
    use distctr_sim::{ConcurrentCounter, ConcurrentDriver, Counter, SequentialDriver};

    #[test]
    fn sequential_correctness_any_width() {
        for width in [2usize, 4, 8] {
            let mut c = CountingNetworkCounter::new(16, width).expect("counter");
            let out = SequentialDriver::run_shuffled(&mut c, 4).expect("sequence");
            assert!(out.values_are_sequential(), "width {width}");
        }
    }

    #[test]
    fn per_op_cost_is_network_depth() {
        let mut c = CountingNetworkCounter::new(16, 8).expect("counter");
        let r = c.inc(ProcessorId::new(0)).expect("inc");
        // depth(Bitonic[8]) = 6 balancer hops + exit hop + value reply.
        assert_eq!(r.messages, 6 + 1 + 1);
    }

    #[test]
    fn concurrent_batches_are_gap_free_and_stepped() {
        let mut c = CountingNetworkCounter::new(32, 8).expect("counter");
        let values = ConcurrentDriver::run_batches(&mut c, 16, 11).expect("batches");
        assert!(ConcurrentDriver::values_are_gap_free(&values));
        assert!(has_step_property(&c.exit_counts_by_rank()));
    }

    #[test]
    fn step_property_under_every_policy() {
        for policy in DeliveryPolicy::test_suite() {
            let mut c = CountingNetworkCounter::with_policy(16, 4, TraceMode::Off, policy)
                .expect("counter");
            let batch: Vec<_> = (0..16).map(ProcessorId::new).collect();
            let values = c.inc_batch(&batch).expect("batch");
            assert!(ConcurrentDriver::values_are_gap_free(&values));
            assert!(has_step_property(&c.exit_counts_by_rank()));
        }
    }

    #[test]
    fn contention_spreads_across_balancer_hosts() {
        // With w = 16 over n = 64 processors, no host should handle a
        // constant fraction of all messages once the batch is large.
        let mut c = CountingNetworkCounter::new(64, 16).expect("counter");
        for round in 0..4 {
            let batch: Vec<_> = (0..64).map(ProcessorId::new).collect();
            c.inc_batch(&batch).unwrap_or_else(|_| panic!("round {round}"));
        }
        let total = c.loads().total_messages();
        let max = c.loads().max_load();
        assert!(
            (max as f64) < 0.25 * total as f64,
            "no single host dominates: max {max} of {total}"
        );
    }

    #[test]
    fn width_one_network_is_a_central_counter() {
        let mut c = CountingNetworkCounter::new(4, 1).expect("counter");
        let out = SequentialDriver::run_identity(&mut c).expect("sequence");
        assert!(out.values_are_sequential());
    }

    #[test]
    fn unknown_initiator_rejected() {
        let mut c = CountingNetworkCounter::new(4, 2).expect("counter");
        assert!(c.inc(ProcessorId::new(9)).is_err());
    }
}
