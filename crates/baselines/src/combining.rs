//! A software combining tree (Yew-Tzeng-Lawrie 1987 / Goodman-Vernon-Woest
//! 1989), adapted to pure message passing.
//!
//! A binary tree spans the processors. `inc` requests climb toward the
//! root; a node that receives a request opens a short *combining window*
//! (realized as a self-addressed timeout message — the asynchronous
//! analogue of the shared-memory spin-wait): if a second request arrives
//! before the window closes, both are merged into a single upward request
//! carrying their total count. The root allocates a contiguous value range
//! per arriving (possibly combined) request, and grants flow back down,
//! being split according to how the requests were combined.
//!
//! Under the paper's **sequential** workload no two requests are ever in
//! flight together, so nothing combines and the root handles Θ(n)
//! messages — combining trees do not beat the lower bound where it
//! applies. Under concurrent batches, combining halves traffic per level
//! and the root sees O(1) messages per batch; experiment E9 shows both
//! regimes.

use std::collections::HashMap;

use distctr_sim::{DeliveryPolicy, Network, Outbox, ProcessorId, Protocol, SimError, TraceMode};

use crate::driver::{
    ConcurrentProtocol, CounterProtocol, Delivered, Entry, OpProtocol, SimCounter,
};
use crate::hosting::Hosting;

/// Where a granted value range must be delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Directly to an initiating processor (count is always 1).
    Leaf(ProcessorId),
    /// To the tree node that sent the combined request `req`.
    Node {
        /// The node that owns the pending request.
        node: u32,
        /// The pending request id.
        req: u64,
    },
}

/// Messages of the combining-tree protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombiningMsg {
    /// An upward (possibly combined) request for `count` values.
    Join {
        /// Target tree node (heap index).
        node: u32,
        /// Grant routing information.
        reply: Reply,
        /// Number of operations combined in this request.
        count: u32,
    },
    /// Self-addressed end-of-combining-window marker.
    Timeout {
        /// The node whose window closes.
        node: u32,
        /// Window instance, to ignore stale timeouts.
        marker: u64,
    },
    /// A downward grant of `count` values starting at `base` for request
    /// `req`.
    Grant {
        /// The request being answered.
        req: u64,
        /// First value of the granted range.
        base: u64,
    },
    /// Final value delivery to an initiator.
    Value {
        /// The granted value.
        value: u64,
    },
}

#[derive(Debug, Clone)]
struct Window {
    marker: u64,
    parts: Vec<(Reply, u32)>,
}

/// The combining tree's protocol: open windows, pending requests and the
/// root's value.
#[derive(Debug, Clone)]
pub struct CombiningState {
    /// Number of heap leaves (power of two, >= n).
    m: usize,
    hosting: Hosting,
    /// Open combining window per inner node (heap index 1..m).
    windows: HashMap<u32, Window>,
    /// Outstanding combined requests awaiting grants.
    pending: HashMap<u64, Vec<(Reply, u32)>>,
    next_token: u64,
    value: u64,
    delivered: Vec<Delivered<u64>>,
    /// Statistics: how many upward requests carried count > 1.
    combined_sends: u64,
    upward_sends: u64,
}

impl CombiningState {
    fn host(&self, node: u32) -> ProcessorId {
        self.hosting.host_of(node as usize - 1)
    }

    fn fresh(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn flush(&mut self, out: &mut Outbox<'_, CombiningMsg>, node: u32, parts: Vec<(Reply, u32)>) {
        let total: u32 = parts.iter().map(|&(_, c)| c).sum();
        self.upward_sends += 1;
        if total > 1 || parts.len() > 1 {
            self.combined_sends += 1;
        }
        if node == 1 {
            // The root allocates directly.
            let base = self.value;
            self.value += u64::from(total);
            self.distribute(out, parts, base);
        } else {
            let req = self.fresh();
            let parent = node / 2;
            self.pending.insert(req, parts);
            out.send(
                self.host(parent),
                CombiningMsg::Join { node: parent, reply: Reply::Node { node, req }, count: total },
            );
        }
    }

    fn distribute(
        &mut self,
        out: &mut Outbox<'_, CombiningMsg>,
        parts: Vec<(Reply, u32)>,
        mut base: u64,
    ) {
        for (reply, count) in parts {
            match reply {
                Reply::Leaf(origin) => {
                    debug_assert_eq!(count, 1);
                    out.send(origin, CombiningMsg::Value { value: base });
                }
                Reply::Node { node, req } => {
                    out.send(self.host(node), CombiningMsg::Grant { req, base });
                }
            }
            base += u64::from(count);
        }
    }
}

impl Protocol for CombiningState {
    type Msg = CombiningMsg;

    fn on_deliver(
        &mut self,
        out: &mut Outbox<'_, CombiningMsg>,
        _from: ProcessorId,
        msg: CombiningMsg,
    ) {
        match msg {
            CombiningMsg::Join { node, reply, count } => {
                match self.windows.remove(&node) {
                    None => {
                        // First request: open a window and schedule its
                        // closing timeout (a self-message).
                        let marker = self.fresh();
                        self.windows.insert(node, Window { marker, parts: vec![(reply, count)] });
                        out.send(out.me(), CombiningMsg::Timeout { node, marker });
                    }
                    Some(mut w) => {
                        // Second request before the window closed: combine.
                        w.parts.push((reply, count));
                        let parts = w.parts;
                        self.flush(out, node, parts);
                    }
                }
            }
            CombiningMsg::Timeout { node, marker } => {
                // Close the window if it is still the same instance.
                if self.windows.get(&node).is_some_and(|w| w.marker == marker) {
                    let w = self.windows.remove(&node).expect("checked present");
                    self.flush(out, node, w.parts);
                }
            }
            CombiningMsg::Grant { req, base } => {
                let parts = self.pending.remove(&req).expect("grant matches a pending request");
                self.distribute(out, parts, base);
            }
            CombiningMsg::Value { value } => {
                // It may ride a partner's envelope: its op is unknown.
                self.delivered.push((None, out.me(), value));
            }
        }
    }
}

impl OpProtocol for CombiningState {
    type Value = u64;

    fn delivered(&mut self) -> &mut Vec<Delivered<u64>> {
        &mut self.delivered
    }
}

impl CounterProtocol for CombiningState {
    const NAME: &'static str = "combining-tree";

    fn enter(&mut self, initiator: ProcessorId) -> Entry<CombiningMsg, u64> {
        let parent = (self.m as u32 + initiator.index() as u32) / 2;
        Entry::Send(
            self.host(parent),
            CombiningMsg::Join { node: parent, reply: Reply::Leaf(initiator), count: 1 },
        )
    }
}

impl ConcurrentProtocol for CombiningState {}

/// A combining-tree distributed counter.
///
/// # Examples
///
/// ```
/// use distctr_baselines::CombiningTreeCounter;
/// use distctr_sim::{ConcurrentCounter, Counter, ProcessorId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut counter = CombiningTreeCounter::new(16)?;
/// assert_eq!(counter.inc(ProcessorId::new(3))?.value, 0);
/// // Concurrent requests combine on their way to the root.
/// let batch: Vec<_> = (4..8).map(ProcessorId::new).collect();
/// let mut values = counter.inc_batch(&batch)?;
/// values.sort_unstable();
/// assert_eq!(values, vec![1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
pub type CombiningTreeCounter = SimCounter<CombiningState>;

impl CombiningTreeCounter {
    /// Creates a combining tree over `n` processors (heap width rounded up
    /// to a power of two) with FIFO delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, SimError> {
        Self::with_policy(n, TraceMode::Contacts, DeliveryPolicy::default())
    }

    /// Creates a combining tree with explicit trace mode and delivery
    /// policy.
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
        let m = n.next_power_of_two().max(2);
        let state = CombiningState {
            m,
            hosting: Hosting::new(m - 1, n),
            windows: HashMap::new(),
            pending: HashMap::new(),
            next_token: 0,
            value: 0,
            delivered: Vec::new(),
            combined_sends: 0,
            upward_sends: 0,
        };
        Ok(SimCounter::from_parts(net, state))
    }

    /// The counter's current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.sim.proto.value
    }

    /// Fraction of upward requests that carried more than one operation —
    /// the combining rate (0.0 under sequential workloads).
    #[must_use]
    pub fn combining_rate(&self) -> f64 {
        if self.sim.proto.upward_sends == 0 {
            0.0
        } else {
            self.sim.proto.combined_sends as f64 / self.sim.proto.upward_sends as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distctr_sim::{ConcurrentCounter, ConcurrentDriver, Counter, SequentialDriver};

    #[test]
    fn sequential_correctness() {
        let mut c = CombiningTreeCounter::new(16).expect("counter");
        let out = SequentialDriver::run_shuffled(&mut c, 2).expect("sequence");
        assert!(out.values_are_sequential());
        assert_eq!(c.value(), 16);
        assert_eq!(c.combining_rate(), 0.0, "sequential ops never combine");
    }

    #[test]
    fn concurrent_batches_combine_and_stay_gap_free() {
        let mut c = CombiningTreeCounter::new(32).expect("counter");
        let values = ConcurrentDriver::run_batches(&mut c, 32, 9).expect("batch");
        assert!(ConcurrentDriver::values_are_gap_free(&values));
        assert!(
            c.combining_rate() > 0.3,
            "full batch should combine heavily: rate {}",
            c.combining_rate()
        );
    }

    #[test]
    fn combining_reduces_root_traffic() {
        // Same 32 ops: sequentially the root sees one request per op;
        // in one concurrent batch it sees O(1).
        let root_host_load = |mut c: CombiningTreeCounter, batch: usize| {
            ConcurrentDriver::run_batches(&mut c, batch, 5).expect("run");
            let root_host = c.sim.proto.host(1);
            c.loads().load_of(root_host)
        };
        let seq = root_host_load(CombiningTreeCounter::new(32).expect("c"), 1);
        let conc = root_host_load(CombiningTreeCounter::new(32).expect("c"), 32);
        assert!(
            conc * 2 < seq,
            "combining must cut root-host traffic: sequential {seq}, concurrent {conc}"
        );
    }

    #[test]
    fn non_power_of_two_and_tiny_networks() {
        for n in [1usize, 2, 3, 5, 12] {
            let mut c = CombiningTreeCounter::new(n).expect("counter");
            let out = SequentialDriver::run_identity(&mut c).expect("sequence");
            assert!(out.values_are_sequential(), "n={n}");
        }
    }

    #[test]
    fn stale_timeouts_are_ignored() {
        // A full batch triggers immediate combines; the windows' timeouts
        // arrive after flushing and must be no-ops. If they were not, the
        // value space would be double-allocated and gap-freedom broken.
        let mut c = CombiningTreeCounter::new(8).expect("counter");
        let batch: Vec<_> = (0..8).map(ProcessorId::new).collect();
        let values = c.inc_batch(&batch).expect("batch");
        assert!(ConcurrentDriver::values_are_gap_free(&values));
        assert_eq!(c.value(), 8, "exactly 8 values allocated");
    }

    #[test]
    fn works_under_every_delivery_policy() {
        for policy in DeliveryPolicy::test_suite() {
            let mut c =
                CombiningTreeCounter::with_policy(8, TraceMode::Contacts, policy).expect("counter");
            let out = SequentialDriver::run_shuffled(&mut c, 3).expect("sequence");
            assert!(out.values_are_sequential());
            let batch: Vec<_> = (0..8).map(ProcessorId::new).collect();
            let values = c.inc_batch(&batch).expect("batch");
            let mut sorted = values.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (8..16).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn unknown_initiator_rejected() {
        let mut c = CombiningTreeCounter::new(4).expect("counter");
        assert!(c.inc(ProcessorId::new(9)).is_err());
        assert!(c.inc_batch(&[ProcessorId::new(9)]).is_err());
    }
}
