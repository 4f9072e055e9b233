//! A diffracting tree (Shavit-Zemach 1994).
//!
//! A binary tree of toggle balancers whose exits are counters. Each node
//! carries a *prism*: a token arriving at a node first looks for a
//! partner parked there. If one is waiting, the pair *diffracts* — one
//! token goes to each child without touching the toggle (two toggle flips
//! cancel, so balance is preserved). Otherwise the token parks and sets a
//! timeout (a self-addressed message, the asynchronous analogue of the
//! prism's spin bound); if no partner shows up, it takes the toggle.
//!
//! Exit counter ordering follows the bit-reversed root-to-leaf path (the
//! root's toggle decides the *lowest* value bit), which is what makes the
//! i-th sequential token receive value i.

use std::collections::HashMap;

use distctr_sim::{DeliveryPolicy, Network, Outbox, ProcessorId, Protocol, SimError, TraceMode};

use crate::driver::{
    ConcurrentProtocol, CounterProtocol, Delivered, Entry, OpProtocol, SimCounter,
};
use crate::hosting::Hosting;

/// Messages of the diffracting-tree protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffractingMsg {
    /// A token arriving at tree node `node` (heap index, root = 1).
    Token {
        /// Target node.
        node: u32,
        /// Initiator (reply address).
        origin: ProcessorId,
    },
    /// Prism timeout for a parked token.
    Timeout {
        /// Node whose prism parked the token.
        node: u32,
        /// Parking instance, to ignore stale timeouts.
        marker: u64,
    },
    /// A token arriving at exit counter `exit` (leaf order index).
    ExitToken {
        /// Exit counter index (bit-reversed path).
        exit: u32,
        /// Initiator (reply address).
        origin: ProcessorId,
    },
    /// Value delivery to the initiator.
    Value {
        /// The assigned value.
        value: u64,
    },
}

#[derive(Debug, Clone)]
struct Parked {
    marker: u64,
    origin: ProcessorId,
}

/// The diffracting tree's protocol: toggles, prisms and exit counters.
#[derive(Debug, Clone)]
pub struct DiffractingState {
    depth: u32,
    hosting: Hosting,
    toggles: Vec<bool>,
    prisms: HashMap<u32, Parked>,
    visits: Vec<u64>,
    next_marker: u64,
    delivered: Vec<Delivered<u64>>,
    diffractions: u64,
    toggle_passes: u64,
}

impl DiffractingState {
    fn width(&self) -> usize {
        1usize << self.depth
    }

    fn inner_nodes(&self) -> usize {
        (1usize << self.depth) - 1
    }

    fn host_of_node(&self, node: u32) -> ProcessorId {
        self.hosting.host_of(node as usize - 1)
    }

    fn host_of_exit(&self, exit: u32) -> ProcessorId {
        self.hosting.host_of(self.inner_nodes() + exit as usize)
    }

    /// Routes a token leaving `node` toward child `bit` (0 = left).
    /// `node` is a heap index; depth of node = floor(log2(node)).
    fn route(
        &mut self,
        out: &mut Outbox<'_, DiffractingMsg>,
        node: u32,
        bit: u32,
        origin: ProcessorId,
    ) {
        let child = node * 2 + bit;
        if (child as usize) < (1usize << self.depth) {
            out.send(self.host_of_node(child), DiffractingMsg::Token { node: child, origin });
        } else {
            // The child is an exit. Heap leaf index -> path bits -> exit
            // order index (bit-reversed: root bit is the LSB).
            let leaf = child as usize - (1usize << self.depth);
            let mut exit = 0u32;
            for level in 0..self.depth {
                let b = (leaf >> (self.depth - 1 - level)) & 1;
                exit |= (b as u32) << level;
            }
            out.send(self.host_of_exit(exit), DiffractingMsg::ExitToken { exit, origin });
        }
    }
}

impl Protocol for DiffractingState {
    type Msg = DiffractingMsg;

    fn on_deliver(
        &mut self,
        out: &mut Outbox<'_, DiffractingMsg>,
        _from: ProcessorId,
        msg: DiffractingMsg,
    ) {
        match msg {
            DiffractingMsg::Token { node, origin } => {
                if let Some(partner) = self.prisms.remove(&node) {
                    // Diffract: partner left, newcomer right; the toggle
                    // is untouched.
                    self.diffractions += 1;
                    self.route(out, node, 0, partner.origin);
                    self.route(out, node, 1, origin);
                } else {
                    self.next_marker += 1;
                    let marker = self.next_marker;
                    self.prisms.insert(node, Parked { marker, origin });
                    out.send(out.me(), DiffractingMsg::Timeout { node, marker });
                }
            }
            DiffractingMsg::Timeout { node, marker } => {
                if self.prisms.get(&node).is_some_and(|p| p.marker == marker) {
                    let parked = self.prisms.remove(&node).expect("checked present");
                    self.toggle_passes += 1;
                    let idx = node as usize - 1;
                    let bit = u32::from(self.toggles[idx]);
                    self.toggles[idx] = !self.toggles[idx];
                    self.route(out, node, bit, parked.origin);
                }
            }
            DiffractingMsg::ExitToken { exit, origin } => {
                let w = self.width() as u64;
                let value = u64::from(exit) + w * self.visits[exit as usize];
                self.visits[exit as usize] += 1;
                out.send(origin, DiffractingMsg::Value { value });
            }
            DiffractingMsg::Value { value } => {
                // It may ride a partner's envelope: its op is unknown.
                self.delivered.push((None, out.me(), value));
            }
        }
    }
}

impl OpProtocol for DiffractingState {
    type Value = u64;

    fn delivered(&mut self) -> &mut Vec<Delivered<u64>> {
        &mut self.delivered
    }
}

impl CounterProtocol for DiffractingState {
    const NAME: &'static str = "diffracting-tree";

    fn enter(&mut self, initiator: ProcessorId) -> Entry<DiffractingMsg, u64> {
        if self.depth == 0 {
            Entry::Send(
                self.host_of_exit(0),
                DiffractingMsg::ExitToken { exit: 0, origin: initiator },
            )
        } else {
            Entry::Send(self.host_of_node(1), DiffractingMsg::Token { node: 1, origin: initiator })
        }
    }
}

impl ConcurrentProtocol for DiffractingState {}

/// A distributed counter backed by a diffracting tree of depth `d`
/// (2^d exit counters).
///
/// # Examples
///
/// ```
/// use distctr_baselines::DiffractingTreeCounter;
/// use distctr_sim::{Counter, ProcessorId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut counter = DiffractingTreeCounter::new(16, 2)?;
/// assert_eq!(counter.inc(ProcessorId::new(1))?.value, 0);
/// assert_eq!(counter.inc(ProcessorId::new(9))?.value, 1);
/// # Ok(())
/// # }
/// ```
pub type DiffractingTreeCounter = SimCounter<DiffractingState>;

impl DiffractingTreeCounter {
    /// Creates a diffracting tree of depth `depth` over `n` processors
    /// with FIFO delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `n == 0`.
    pub fn new(n: usize, depth: u32) -> Result<Self, SimError> {
        Self::with_policy(n, depth, TraceMode::Contacts, DeliveryPolicy::default())
    }

    /// Creates a diffracting tree with explicit trace mode and delivery
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `n == 0`.
    pub fn with_policy(
        n: usize,
        depth: u32,
        trace: TraceMode,
        policy: DeliveryPolicy,
    ) -> Result<Self, SimError> {
        let net = Network::with_policy(n, trace, policy)?;
        let inner = (1usize << depth) - 1;
        let width = 1usize << depth;
        let state = DiffractingState {
            depth,
            hosting: Hosting::new((inner + width).max(1), n),
            toggles: vec![false; inner],
            prisms: HashMap::new(),
            visits: vec![0; width],
            next_marker: 0,
            delivered: Vec::new(),
            diffractions: 0,
            toggle_passes: 0,
        };
        Ok(SimCounter::from_parts(net, state))
    }

    /// Number of exit counters (2^depth).
    #[must_use]
    pub fn width(&self) -> usize {
        self.sim.proto.width()
    }

    /// Fraction of node passages resolved by diffraction rather than the
    /// toggle (0.0 under sequential workloads).
    #[must_use]
    pub fn diffraction_rate(&self) -> f64 {
        let total = self.sim.proto.diffractions * 2 + self.sim.proto.toggle_passes;
        if total == 0 {
            0.0
        } else {
            (self.sim.proto.diffractions * 2) as f64 / total as f64
        }
    }

    /// Exit counts (indexed by exit order) for balance checks.
    #[must_use]
    pub fn exit_counts(&self) -> &[u64] {
        &self.sim.proto.visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distctr_sim::{ConcurrentCounter, ConcurrentDriver, Counter, SequentialDriver};

    #[test]
    fn sequential_correctness_across_depths() {
        for depth in 0..=3u32 {
            let mut c = DiffractingTreeCounter::new(16, depth).expect("counter");
            let out = SequentialDriver::run_shuffled(&mut c, 6).expect("sequence");
            assert!(out.values_are_sequential(), "depth {depth}");
            assert_eq!(c.diffraction_rate(), 0.0, "no partners under sequential ops");
        }
    }

    #[test]
    fn bit_reversed_exits_count_in_order() {
        // Depth 2: sequential tokens must visit exits 0,1,2,3,0,1,...
        let mut c = DiffractingTreeCounter::new(8, 2).expect("counter");
        for i in 0..8u64 {
            let r = c.inc(ProcessorId::new((i % 8) as usize)).expect("inc");
            assert_eq!(r.value, i);
        }
        assert_eq!(c.exit_counts(), &[2, 2, 2, 2]);
    }

    #[test]
    fn concurrent_batches_diffract_and_stay_gap_free() {
        let mut c = DiffractingTreeCounter::new(32, 3).expect("counter");
        let values = ConcurrentDriver::run_batches(&mut c, 32, 13).expect("batches");
        assert!(ConcurrentDriver::values_are_gap_free(&values));
        assert!(
            c.diffraction_rate() > 0.3,
            "full batches should diffract: rate {}",
            c.diffraction_rate()
        );
    }

    #[test]
    fn exit_counts_stay_balanced_after_quiescence() {
        let mut c = DiffractingTreeCounter::new(16, 2).expect("counter");
        for seed in 0..3 {
            ConcurrentDriver::run_batches(&mut c, 8, seed).expect("batches");
        }
        let counts = c.exit_counts();
        let max = counts.iter().max().expect("nonempty");
        let min = counts.iter().min().expect("nonempty");
        assert!(max - min <= 1, "balanced exits: {counts:?}");
    }

    #[test]
    fn works_under_every_delivery_policy() {
        for policy in DeliveryPolicy::test_suite() {
            let mut c =
                DiffractingTreeCounter::with_policy(8, 2, TraceMode::Off, policy).expect("counter");
            let batch: Vec<_> = (0..8).map(ProcessorId::new).collect();
            let values = c.inc_batch(&batch).expect("batch");
            assert!(ConcurrentDriver::values_are_gap_free(&values));
        }
    }

    #[test]
    fn unknown_initiator_rejected() {
        let mut c = DiffractingTreeCounter::new(4, 1).expect("counter");
        assert!(c.inc(ProcessorId::new(4)).is_err());
    }
}
