//! A mobile-token counter on the Arrow protocol (Raymond / Demmer-Herlihy
//! style path reversal).
//!
//! The opposite design philosophy to every other baseline: instead of
//! sending requests to where the value lives, **move the value to the
//! requester**. Processors form a fixed spanning tree; each keeps one
//! *arrow* pointing toward the current token holder. An `inc` sends a
//! `Find` along the arrows, reversing them as it goes (so they end up
//! pointing at the requester), and the holder ships the token — carrying
//! the counter value — straight back to the requester, who increments
//! locally.
//!
//! Per-operation cost is one tree path (O(log n) on a balanced tree);
//! repeated access by nearby processors is nearly free. But the paper's
//! theorem still bites: find paths between random consecutive initiators
//! cross the spanning tree's upper edges about half the time, so the
//! tree-root processor's load is Θ(n) over the canonical workload — a
//! hot spot again, just a routing one instead of a storage one.

use rand::Rng;
use rand::SeedableRng;

use distctr_sim::{DeliveryPolicy, Network, Outbox, ProcessorId, Protocol, SimError, TraceMode};

use crate::driver::{CounterProtocol, Delivered, Entry, OpProtocol, SimCounter};

/// The fixed spanning tree the arrows live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanningTree {
    /// Balanced binary heap tree (`parent(i) = (i-1)/2`): O(log n) paths.
    #[default]
    Heap,
    /// Star centered on processor 0: 2-hop paths, maximal center load.
    Star,
    /// A path 0-1-2-...-(n-1): up to Θ(n)-hop finds.
    Path,
    /// A random recursive tree (each node's parent drawn uniformly among
    /// earlier nodes).
    Random(
        /// Construction seed.
        u64,
    ),
}

impl SpanningTree {
    /// The parent of node `i > 0` under this tree shape.
    fn parent(self, i: usize, rng: &mut rand::rngs::StdRng) -> usize {
        match self {
            SpanningTree::Heap => (i - 1) / 2,
            SpanningTree::Star => 0,
            SpanningTree::Path => i - 1,
            SpanningTree::Random(_) => rng.gen_range(0..i),
        }
    }

    /// A short stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanningTree::Heap => "heap",
            SpanningTree::Star => "star",
            SpanningTree::Path => "path",
            SpanningTree::Random(_) => "random",
        }
    }
}

/// Messages of the Arrow counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrowMsg {
    /// A token request travelling along (and reversing) the arrows.
    Find {
        /// The requesting processor (token destination).
        origin: ProcessorId,
    },
    /// The token, carrying the pre-increment counter value.
    Token {
        /// The counter value at handover.
        value: u64,
    },
}

/// Where a processor's arrow points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrow {
    /// This processor holds (or is about to hold) the token.
    Holder,
    /// The token is somewhere beyond this tree neighbour.
    Toward(ProcessorId),
}

/// The Arrow counter's protocol: every processor's arrow and the token.
#[derive(Debug, Clone)]
pub struct ArrowState {
    arrows: Vec<Arrow>,
    /// The token: its holder's pending value (exactly one `Some` at
    /// quiescence).
    token: Vec<Option<u64>>,
    delivered: Vec<Delivered<u64>>,
    /// Longest find path seen (diagnostics).
    longest_path: u64,
    current_path: u64,
}

impl Protocol for ArrowState {
    type Msg = ArrowMsg;

    fn on_deliver(&mut self, out: &mut Outbox<'_, ArrowMsg>, from: ProcessorId, msg: ArrowMsg) {
        match msg {
            ArrowMsg::Find { origin } => {
                self.current_path += 1;
                let me = out.me().index();
                let previous = self.arrows[me];
                // Path reversal: my arrow now points back toward the
                // requester's side.
                self.arrows[me] = Arrow::Toward(from);
                match previous {
                    Arrow::Holder => {
                        let value = self.token[me].take().expect("holder carries the token value");
                        self.longest_path = self.longest_path.max(self.current_path);
                        self.current_path = 0;
                        out.send(origin, ArrowMsg::Token { value });
                    }
                    Arrow::Toward(next) => {
                        out.send(next, ArrowMsg::Find { origin });
                    }
                }
            }
            ArrowMsg::Token { value } => {
                let me = out.me().index();
                self.arrows[me] = Arrow::Holder;
                self.token[me] = Some(value + 1);
                self.delivered.push((Some(out.op()), out.me(), value));
            }
        }
    }
}

impl OpProtocol for ArrowState {
    type Value = u64;

    fn delivered(&mut self) -> &mut Vec<Delivered<u64>> {
        &mut self.delivered
    }
}

impl CounterProtocol for ArrowState {
    const NAME: &'static str = "arrow-token";

    fn enter(&mut self, initiator: ProcessorId) -> Entry<ArrowMsg, u64> {
        let me = initiator.index();
        match self.arrows[me] {
            Arrow::Holder => {
                // Local hit: the token is already here; no messages at all.
                let value = self.token[me].expect("holder has the token");
                self.token[me] = Some(value + 1);
                Entry::Local(value)
            }
            Arrow::Toward(next) => {
                // Reverse the initiator's own arrow and launch the find.
                self.arrows[me] = Arrow::Holder;
                Entry::Send(next, ArrowMsg::Find { origin: initiator })
            }
        }
    }
}

/// A distributed counter whose value rides a mobile token over a balanced
/// binary spanning tree with Arrow path reversal.
///
/// # Examples
///
/// ```
/// use distctr_baselines::ArrowCounter;
/// use distctr_sim::{Counter, ProcessorId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut counter = ArrowCounter::new(8)?;
/// assert_eq!(counter.inc(ProcessorId::new(5))?.value, 0);
/// assert_eq!(counter.inc(ProcessorId::new(5))?.value, 1); // local hit: 0 messages
/// assert_eq!(counter.inc(ProcessorId::new(2))?.value, 2);
/// # Ok(())
/// # }
/// ```
pub type ArrowCounter = SimCounter<ArrowState>;

impl ArrowCounter {
    /// Creates an Arrow counter over `n` processors; processor 0 holds
    /// the token initially, arrows point along the heap spanning tree
    /// toward it. FIFO delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, SimError> {
        Self::with_policy(n, TraceMode::Contacts, DeliveryPolicy::default())
    }

    /// Creates an Arrow counter with explicit trace mode and delivery
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
        Self::with_tree(n, SpanningTree::Heap, trace, policy)
    }

    /// Creates an Arrow counter over an explicit spanning-tree shape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `n == 0`.
    pub fn with_tree(
        n: usize,
        tree: SpanningTree,
        trace: TraceMode,
        policy: DeliveryPolicy,
    ) -> Result<Self, SimError> {
        let net = Network::with_policy(n, trace, policy)?;
        let seed = if let SpanningTree::Random(seed) = tree { seed } else { 0 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Arrows point along the tree toward processor 0, the initial
        // token holder.
        let arrows = (0..n)
            .map(|i| {
                if i == 0 {
                    Arrow::Holder
                } else {
                    Arrow::Toward(ProcessorId::new(tree.parent(i, &mut rng)))
                }
            })
            .collect();
        let mut token = vec![None; n];
        token[0] = Some(0);
        let state =
            ArrowState { arrows, token, delivered: Vec::new(), longest_path: 0, current_path: 0 };
        Ok(SimCounter::from_parts(net, state))
    }

    /// The processor currently holding the token.
    #[must_use]
    pub fn holder(&self) -> ProcessorId {
        let idx = self
            .sim
            .proto
            .token
            .iter()
            .position(Option::is_some)
            .expect("exactly one token holder at quiescence");
        ProcessorId::new(idx)
    }

    /// Longest find path (in tree hops) observed so far.
    #[must_use]
    pub fn longest_find_path(&self) -> u64 {
        self.sim.proto.longest_path
    }
}

/// Internal invariant check used by tests: every arrow chain leads to the
/// holder (no cycles, no dead ends).
#[cfg(test)]
fn arrows_converge(counter: &ArrowCounter) -> bool {
    use distctr_sim::Counter;
    let n = counter.processors();
    let holder = counter.holder();
    for start in 0..n {
        let mut at = start;
        let mut hops = 0usize;
        loop {
            match counter.sim.proto.arrows[at] {
                Arrow::Holder => break,
                Arrow::Toward(next) => {
                    at = next.index();
                    hops += 1;
                    if hops > n {
                        return false; // cycle
                    }
                }
            }
        }
        if ProcessorId::new(at) != holder {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use distctr_sim::{Counter, SequentialDriver};

    #[test]
    fn sequential_correctness_and_token_migration() {
        let mut c = ArrowCounter::new(16).expect("arrow");
        let out = SequentialDriver::run_shuffled(&mut c, 8).expect("sequence");
        assert!(out.values_are_sequential());
        // The token ends up with the last initiator.
        assert!(arrows_converge(&c), "arrows all lead to the holder");
    }

    #[test]
    fn local_hits_cost_zero_messages() {
        let mut c = ArrowCounter::new(8).expect("arrow");
        let r1 = c.inc(ProcessorId::new(3)).expect("inc");
        let before = c.loads().total_messages();
        let r2 = c.inc(ProcessorId::new(3)).expect("inc");
        assert_eq!(r2.value, r1.value + 1);
        assert_eq!(r2.messages, 0);
        assert_eq!(c.loads().total_messages(), before, "no traffic for a local hit");
        assert_eq!(c.holder(), ProcessorId::new(3));
    }

    #[test]
    fn find_paths_are_tree_bounded() {
        let mut c = ArrowCounter::new(64).expect("arrow");
        SequentialDriver::run_shuffled(&mut c, 5).expect("sequence");
        // Balanced binary tree over 64 nodes: diameter ~ 2*log2(64) = 12;
        // a find path can traverse at most diameter+1 edges.
        assert!(c.longest_find_path() <= 13, "path {} within tree diameter", c.longest_find_path());
    }

    #[test]
    fn arrows_always_converge_under_every_policy() {
        for policy in DeliveryPolicy::test_suite() {
            let mut c = ArrowCounter::with_policy(16, TraceMode::Off, policy).expect("arrow");
            let out = SequentialDriver::run_shuffled(&mut c, 11).expect("sequence");
            assert!(out.values_are_sequential());
            assert!(arrows_converge(&c));
        }
    }

    #[test]
    fn canonical_workload_has_a_routing_hot_spot() {
        // The paper's theorem in action on a very different design: the
        // spanning-tree root (P0) relays a constant fraction of finds.
        let mut c = ArrowCounter::new(64).expect("arrow");
        SequentialDriver::run_shuffled(&mut c, 9).expect("sequence");
        let bottleneck = c.loads().max_load();
        assert!(bottleneck >= 3, "lower bound k(64) = 2 comfortably cleared: {bottleneck}");
        // Much better than central's 2n, but still growing with n (see
        // the E2 sweep); here we just pin that it's a real hot spot, well
        // above the average load.
        let avg = c.loads().average_load();
        assert!(bottleneck as f64 > 3.0 * avg, "hot spot: max {bottleneck} vs avg {avg:.1}");
    }

    #[test]
    fn unknown_initiator_rejected() {
        let mut c = ArrowCounter::new(4).expect("arrow");
        assert!(c.inc(ProcessorId::new(7)).is_err());
    }

    #[test]
    fn all_spanning_trees_count_correctly() {
        for tree in
            [SpanningTree::Heap, SpanningTree::Star, SpanningTree::Path, SpanningTree::Random(5)]
        {
            let mut c = ArrowCounter::with_tree(32, tree, TraceMode::Off, DeliveryPolicy::Fifo)
                .expect("arrow");
            let out = SequentialDriver::run_shuffled(&mut c, 13).expect("sequence");
            assert!(out.values_are_sequential(), "{}", tree.name());
            assert!(arrows_converge(&c), "{}", tree.name());
        }
    }

    #[test]
    fn topology_shapes_the_cost_profile() {
        let run = |tree: SpanningTree| {
            let mut c = ArrowCounter::with_tree(64, tree, TraceMode::Off, DeliveryPolicy::Fifo)
                .expect("arrow");
            SequentialDriver::run_shuffled(&mut c, 21).expect("sequence");
            (c.loads().total_messages(), c.loads().max_load(), c.longest_find_path())
        };
        let (star_msgs, star_max, star_path) = run(SpanningTree::Star);
        let (path_msgs, _path_max, path_path) = run(SpanningTree::Path);
        let (heap_msgs, _heap_max, heap_path) = run(SpanningTree::Heap);
        // Star: every find is at most 2 hops; the center relays nearly
        // everything.
        assert!(star_path <= 2, "star diameter: {star_path}");
        assert!(star_max as f64 > 0.5 * star_msgs as f64, "center relays most traffic");
        // Path trees pay far more messages than heaps; heaps more than
        // stars' totals.
        assert!(path_path > heap_path, "path trees have longer finds");
        assert!(path_msgs > heap_msgs, "path trees cost more total messages");
        assert!(heap_path <= 13, "heap diameter bound");
    }

    #[test]
    fn single_processor_counts_locally() {
        let mut c = ArrowCounter::new(1).expect("arrow");
        for i in 0..5 {
            assert_eq!(c.inc(ProcessorId::new(0)).expect("inc").value, i);
        }
        assert_eq!(c.loads().total_messages(), 0);
    }
}
