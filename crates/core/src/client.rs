//! The generic tree-object client: any [`RootObject`] served through the
//! retirement tree with the paper's O(k) bottleneck guarantee.

use std::sync::Arc;

use distctr_sim::{
    claim, DeliveryPolicy, Entry, FaultEvent, FaultPlan, FaultStats, LoadTracker, Network, OpLoop,
    OpProtocol, OpResult, ProcessorId, SimError, TraceMode,
};

use crate::audit::CounterAudit;
use crate::engine::EngineConfig;
use crate::error::CoreError;
use crate::kmath::{exact_order, leaves_of_order, order_for, MAX_ORDER};
use crate::messages::Msg;
use crate::node::Repair;
use crate::object::RootObject;
use crate::protocol::{PoolPolicy, RetirementPolicy, TreeProtocol};
use crate::topology::{NodeRef, Topology};

/// Builder for a [`TreeClient`].
#[derive(Debug, Clone)]
pub struct TreeClientBuilder<O> {
    k: u32,
    trace: TraceMode,
    policy: DeliveryPolicy,
    retirement: RetirementPolicy,
    pool: PoolPolicy,
    faults: Option<FaultPlan>,
    object: O,
}

impl<O: RootObject> TreeClientBuilder<O> {
    /// Sets the trace mode (default: [`TraceMode::Contacts`]).
    #[must_use]
    pub fn trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the delivery policy (default: FIFO).
    #[must_use]
    pub fn delivery(mut self, policy: DeliveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the retirement policy (default: the paper's `4k` threshold).
    #[must_use]
    pub fn retirement(mut self, retirement: RetirementPolicy) -> Self {
        self.retirement = retirement;
        self
    }

    /// Sets the pool policy (default: the paper's one-shot pools; use
    /// [`PoolPolicy::Recycling`] for workloads longer than one op per
    /// processor).
    #[must_use]
    pub fn pool(mut self, pool: PoolPolicy) -> Self {
        self.pool = pool;
        self
    }

    /// Injects faults from `plan` (message drops, duplications, scheduled
    /// processor crashes) and arms the protocol's crash-recovery
    /// machinery. Drive the client with
    /// [`TreeClient::invoke_fault_tolerant`] so the watchdog can repair
    /// crashes and retry lost operations.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the client.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the topology or network cannot be built.
    pub fn build(self) -> Result<TreeClient<O>, CoreError> {
        let topo = Topology::new(self.k).map_err(CoreError::Order)?;
        let n = usize::try_from(topo.processors()).map_err(|_| {
            CoreError::Order(format!("n = {} does not fit usize", topo.processors()))
        })?;
        let config = EngineConfig {
            threshold: self.retirement.threshold(self.k),
            pool_policy: self.pool,
            // The root's reply cache and the directory's stable copy of it
            // keep the last `REPLY_CACHE_CAP` root responses, with or
            // without faults (dedupe only decides whether a retry is
            // answered from them). The client runs one operation at a
            // time and retries only that one, so the newest entry is the
            // only one a retry can ask for.
            dedupe: self.faults.is_some(),
            persist: true,
        };
        let net = match self.faults {
            Some(plan) => Network::with_faults(n, self.trace, self.policy, plan)?,
            None => Network::with_policy(n, self.trace, self.policy)?,
        };
        let proto = TreeProtocol::new(Arc::new(topo), config, self.object);
        Ok(TreeClient { sim: OpLoop::new(net, proto), watchdog_retries: 0 })
    }
}

/// A sequentially-dependent object served through the paper's retirement
/// tree, starting from the object's [`Default`] state.
///
/// The paper's objects are instances of it:
/// [`TreeCounter`](crate::TreeCounter),
/// [`DistributedFlipBit`](crate::DistributedFlipBit) and
/// [`DistributedPriorityQueue`](crate::DistributedPriorityQueue) are type
/// aliases that add only their object's own operations.
///
/// # Examples
///
/// ```
/// use distctr_core::client::TreeClient;
/// use distctr_core::object::FlipBitObject;
/// use distctr_sim::ProcessorId;
///
/// # fn main() -> Result<(), distctr_core::CoreError> {
/// let mut bit = TreeClient::<FlipBitObject>::new(8)?;
/// assert!(!bit.invoke(ProcessorId::new(3), ())?.value);
/// assert!(bit.invoke(ProcessorId::new(5), ())?.value);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TreeClient<O: RootObject> {
    sim: OpLoop<TreeProtocol<O>>,
    watchdog_retries: u64,
}

impl<O: RootObject> TreeClient<O> {
    /// Watchdog rounds [`TreeClient::invoke_fault_tolerant`] runs before
    /// giving up on an operation.
    pub const MAX_RECOVERY_ATTEMPTS: u32 = 25;

    /// Creates a client for at least `n` processors, rounding `n` up to
    /// the next value of the form `k^(k+1)` exactly as the paper suggests.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Order`] if `n` is 0 or beyond the largest
    /// supported network.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        Self::builder(n)?.build()
    }

    /// Creates a client for an exact tree order `k` (n = k^(k+1)).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Order`] if `k` is 0 or above [`MAX_ORDER`].
    pub fn with_order(k: u32) -> Result<Self, CoreError> {
        if k == 0 || k > MAX_ORDER {
            return Err(CoreError::Order(format!("order k={k} outside 1..={MAX_ORDER}")));
        }
        Self::new(usize::try_from(leaves_of_order(k)).expect("supported orders fit usize"))
    }

    /// Starts a builder for a client of at least `n` processors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Order`] if `n` is 0 or too large.
    pub fn builder(n: usize) -> Result<TreeClientBuilder<O>, CoreError> {
        if n == 0 {
            return Err(CoreError::Order("n must be at least 1".into()));
        }
        let n64 = n as u64;
        if n64 > leaves_of_order(MAX_ORDER) {
            return Err(CoreError::Order(format!("n={n} beyond the largest supported network")));
        }
        let k = if let Some(k) = exact_order(n64) { k } else { order_for(n64) };
        Ok(TreeClientBuilder {
            k,
            trace: TraceMode::Contacts,
            policy: DeliveryPolicy::default(),
            retirement: RetirementPolicy::default(),
            pool: PoolPolicy::default(),
            faults: None,
            object: O::default(),
        })
    }

    /// The tree order `k`.
    #[must_use]
    pub fn order(&self) -> u32 {
        self.sim.proto.topology().order()
    }

    /// Number of processors (rounded up to `k^(k+1)`).
    #[must_use]
    pub fn processors(&self) -> usize {
        self.sim.net.processors()
    }

    /// The tree topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.sim.proto.topology()
    }

    /// The lemma auditor's view of the run so far.
    #[must_use]
    pub fn audit(&self) -> &CounterAudit {
        self.sim.proto.audit()
    }

    /// The hosted object's current state.
    #[must_use]
    pub fn object(&self) -> &O {
        self.sim.proto.object()
    }

    /// The processor currently working for `node`.
    #[must_use]
    pub fn worker_of(&self, node: NodeRef) -> ProcessorId {
        self.sim.proto.worker_of(node)
    }

    /// Per-processor message loads since construction.
    #[must_use]
    pub fn loads(&self) -> &LoadTracker {
        self.sim.net.loads()
    }

    /// Number of operations executed.
    #[must_use]
    pub fn ops_executed(&self) -> usize {
        self.sim.opened()
    }

    /// Per-processor engine fingerprints, in processor order (see
    /// [`crate::protocol::TreeProtocol::engine_fingerprints`]).
    #[must_use]
    pub fn engine_fingerprints(&self) -> Vec<u64> {
        self.sim.proto.engine_fingerprints()
    }

    /// Executes one operation initiated by `initiator`, running the whole
    /// process (including retirement cascades) to quiescence through the
    /// simulator's op loop ([`OpLoop::run`]); the result's `value` is
    /// the object's response.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownProcessor`] if `initiator` is out of range.
    /// * [`SimError::Livelock`] if the protocol fails to
    ///   quiesce.
    ///
    /// # Panics
    ///
    /// Panics if the protocol quiesces without delivering a response to
    /// the initiator — a protocol bug, not a user condition.
    pub fn invoke(
        &mut self,
        initiator: ProcessorId,
        req: O::Request,
    ) -> Result<OpResult<O::Response>, SimError> {
        self.invoke_batch(initiator, 1, req)
    }

    /// Executes a *batch* of `count` identical operations sharing one
    /// tree traversal (one [`Msg::Apply`]): the root applies all of them
    /// atomically and the response is that of the first member — for the
    /// counter, the start of the batch's contiguous range
    /// `[first, first + count)`. The whole batch is one message of the
    /// protocol, so per-member load is amortized to O(k / count).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TreeClient::invoke`].
    pub fn invoke_batch(
        &mut self,
        initiator: ProcessorId,
        count: u64,
        req: O::Request,
    ) -> Result<OpResult<O::Response>, SimError> {
        let count = count.max(1);
        self.sim.run(initiator, |proto, op| {
            let node = proto.topology().leaf_parent(initiator.index() as u64);
            let op_seq = op.index() as u64;
            Entry::Send(
                proto.worker_of(node),
                Msg::Apply { node, origin: initiator, op_seq, count, req },
            )
        })
    }

    /// Whether the client retires workers (false for the static-tree
    /// ablation).
    #[must_use]
    pub fn retirement_enabled(&self) -> bool {
        self.sim.proto.config().threshold.is_some()
    }

    // --- fault tolerance -------------------------------------------------

    /// The fault plan driving the network, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.sim.net.fault_plan()
    }

    /// Every fault the network injected so far, in order.
    #[must_use]
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.sim.net.fault_log()
    }

    /// Summary counts of injected faults.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.sim.net.fault_stats()
    }

    /// Processors currently down.
    #[must_use]
    pub fn crashed_processors(&self) -> Vec<ProcessorId> {
        self.sim.net.crashed_processors()
    }

    /// Whether `p` is down.
    #[must_use]
    pub fn is_crashed(&self, p: ProcessorId) -> bool {
        self.sim.net.is_crashed(p)
    }

    /// Times the watchdog re-ran an operation because a round quiesced
    /// without a response (a slack term of the fault-aware load bound).
    #[must_use]
    pub fn watchdog_retries(&self) -> u64 {
        self.watchdog_retries
    }

    /// Crashes processor `p` immediately (test hook; scheduled crashes
    /// normally come from the [`FaultPlan`]) and arms the recovery
    /// machinery.
    pub fn crash(&mut self, p: ProcessorId) {
        self.sim.net.crash(p);
        self.sim.proto.set_fault_tolerant(true);
    }

    /// Executes one operation on a faulty network: like
    /// [`TreeClient::invoke`], but quiescing without a response triggers
    /// the recovery watchdog instead of a panic. Each round the watchdog
    /// promotes the pool successor of every crashed or stuck worker (a
    /// forced retirement rebuilt from the node's neighbours) and re-sends
    /// the operation; the root's reply cache keeps retries exactly-once.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Unrecoverable`] if the initiator is down, or a node
    ///   on the operation's path lost its worker with no live pool
    ///   successor left (level-k nodes have singleton pools and cannot
    ///   recover).
    /// * [`CoreError::RecoveryFailed`] if
    ///   [`TreeClient::MAX_RECOVERY_ATTEMPTS`] rounds all quiesce without
    ///   a response.
    /// * [`CoreError::Sim`] for simulator errors (livelock, bad
    ///   initiator).
    pub fn invoke_fault_tolerant(
        &mut self,
        initiator: ProcessorId,
        req: O::Request,
    ) -> Result<OpResult<O::Response>, CoreError> {
        self.invoke_batch_fault_tolerant(initiator, 1, req)
    }

    /// Fault-tolerant batch invocation: [`TreeClient::invoke_batch`] with
    /// the recovery watchdog of [`TreeClient::invoke_fault_tolerant`].
    /// Watchdog retries re-send the batch with the same `op_seq` *and*
    /// the same `count`, so the root's reply cache keeps the whole range
    /// exactly-once across crashes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TreeClient::invoke_fault_tolerant`].
    pub fn invoke_batch_fault_tolerant(
        &mut self,
        initiator: ProcessorId,
        count: u64,
        req: O::Request,
    ) -> Result<OpResult<O::Response>, CoreError> {
        let count = count.max(1);
        // The op opens and closes through the op loop; between, the
        // watchdog runs its own repair rounds.
        let op = self.sim.open(initiator)?;
        self.sim.proto.set_fault_tolerant(true);
        self.sim.proto.delivered().clear();
        let path = self.sim.proto.directory().op_path(initiator);
        let leaf_parent = path[0];
        let mut messages = 0u64;
        let mut attempts = 0u32;
        let outcome = 'watchdog: loop {
            if attempts >= Self::MAX_RECOVERY_ATTEMPTS {
                break Err(CoreError::RecoveryFailed { attempts });
            }
            attempts += 1;
            if self.sim.net.is_crashed(initiator) {
                break Err(CoreError::Unrecoverable(format!(
                    "initiator {initiator} has crashed and cannot receive a response"
                )));
            }
            // Inject the directory's repair plan for crashed or stuck
            // workers before (re-)sending the operation into the tree. A
            // stranded node is fatal only on the operation's path, after
            // the promotes planned before it went out; off-path ones are
            // left to their own operations to report.
            for repair in self.sim.proto.directory().repair_plan(|p| self.sim.net.is_crashed(p)) {
                match repair {
                    Repair::Promote { at, promote } | Repair::Rescue { at, promote } => {
                        self.sim.net.inject(op, at, at, promote);
                    }
                    Repair::Stranded { node, worker } if path.contains(&node) => {
                        break 'watchdog Err(CoreError::Unrecoverable(format!(
                            "node ({}, {}) lost worker {worker} and its pool has no live successor",
                            node.level, node.index
                        )));
                    }
                    Repair::Stranded { .. } => {}
                }
            }
            let entry_worker = self.sim.proto.worker_of(leaf_parent);
            if !self.sim.net.is_crashed(entry_worker) {
                let op_seq = op.index() as u64;
                let req = req.clone();
                let entry = Msg::Apply { node: leaf_parent, origin: initiator, op_seq, count, req };
                self.sim.net.inject(op, initiator, entry_worker, entry);
            }
            let stats = match self.sim.net.run_to_quiescence(&mut self.sim.proto) {
                Ok(stats) => stats,
                Err(e) => break Err(e.into()),
            };
            messages += stats.delivered;
            if let Some(value) = claim(self.sim.proto.delivered(), op, initiator) {
                break Ok((value, stats.end_time));
            }
            // Quiescent with no response: the op (or its reply) was lost
            // to a drop or a crash. Repair and retry.
            self.watchdog_retries += 1;
            // A plain retry heals a dropped message; if it did not, some
            // engine on the path may hold a stale routing view (a lost
            // NewWorker after a retirement or recovery leaves it sending
            // to a dead processor forever). Re-advertise the registry's
            // worker of every path node to the engine below it.
            if attempts >= 2 {
                let refresh =
                    self.sim.proto.directory().path_refresh(&path, |p| self.sim.net.is_crashed(p));
                for (at, msg) in refresh {
                    self.sim.net.inject(op, at, at, msg);
                }
            }
        };
        let trace = self.sim.close(op);
        let (value, completed_at) = outcome?;
        Ok(OpResult { value, messages, completed_at, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{FlipBitObject, PqRequest, PqResponse, PriorityQueueObject};
    use crate::{TreeCounter, REPLY_CACHE_CAP};
    use distctr_sim::Counter;

    #[test]
    fn retries_stay_exactly_once_as_the_reply_cache_evicts() {
        const OPS: u64 = 600;
        // Recycling pools keep the root recoverable past the canonical
        // 81 ops.
        let plan = FaultPlan::new(38).drop_prob(0.02).dup_prob(0.05);
        let mut c = TreeCounter::builder(81)
            .expect("builder")
            .pool(PoolPolicy::Recycling)
            .faults(plan)
            .build()
            .expect("counter");
        let mut values = Vec::new();
        let mut cache_checks = 0;
        for i in 0..OPS {
            if i == OPS / 2 {
                let victim = c.worker_of(NodeRef::ROOT);
                c.crash(victim);
            }
            // A crashed processor cannot initiate; its neighbour does.
            let mut initiator = ProcessorId::new(i as usize % 81);
            if c.is_crashed(initiator) {
                initiator = ProcessorId::new((initiator.index() + 1) % 81);
            }
            values.push(c.inc_fault_tolerant(initiator).expect("inc").value);
            // Both copies hold exactly the newest replies, up to the cap;
            // op `s` got value `s`. Right after the crash this is what
            // the restore carried, plus the op that ran on it.
            let newest: Vec<(u64, u64)> =
                ((i + 1).saturating_sub(REPLY_CACHE_CAP as u64)..=i).map(|s| (s, s)).collect();
            let stable: Vec<(u64, u64)> =
                c.sim.proto.directory().stable_replies().copied().collect();
            assert_eq!(stable, newest, "op {i}: stable storage");
            // Between a dropped handoff and the watchdog's repair nobody
            // hosts the root; the registry names the worker it last saw.
            let root = c.sim.proto.engine_of(c.worker_of(NodeRef::ROOT)).hosted(NodeRef::ROOT);
            if let Some(root) = root.filter(|_| !c.is_crashed(c.worker_of(NodeRef::ROOT))) {
                let state = root.root.as_deref().expect("a hosted root holds the root state");
                let cache: Vec<(u64, u64)> = state.reply_cache.iter().copied().collect();
                assert_eq!(cache, newest, "op {i}: the root's reply cache");
                cache_checks += 1;
            }
        }
        assert_eq!(values, (0..OPS).collect::<Vec<_>>(), "exactly once, gap-free");
        let faults = c.fault_stats();
        assert!(faults.drops > 0 && faults.dups > 0, "the plan injected faults: {faults:?}");
        assert!(c.watchdog_retries() > 0, "lost ops were retried");
        assert!(cache_checks > OPS * 9 / 10, "the root was hosted after most ops: {cache_checks}");
    }

    /// Asserts that exactly one live processor holds the object and reply
    /// cache, and that it is the root's current worker. A crashed
    /// processor's memory is out of reach, so it is not counted.
    fn assert_root_state_lives_at_the_root(c: &TreeCounter) {
        let topo = c.topology();
        let holders: Vec<(ProcessorId, NodeRef, usize)> = (0..topo.processors() as usize)
            .map(ProcessorId::new)
            .filter(|&p| !c.is_crashed(p))
            .flat_map(|p| {
                let engine = c.sim.proto.engine_of(p);
                topo.nodes().filter_map(move |node| {
                    let root = engine.hosted(node)?.root.as_deref()?;
                    Some((p, node, root.reply_cache.len()))
                })
            })
            .collect();
        let [(worker, node, cached)] = holders[..] else {
            panic!("one hosted node carries the root state: {holders:?}");
        };
        assert_eq!((worker, node), (c.worker_of(NodeRef::ROOT), NodeRef::ROOT));
        assert!(cached <= REPLY_CACHE_CAP, "{cached} cached replies");
    }

    #[test]
    fn only_the_roots_worker_holds_the_root_state_through_handoffs_and_a_rebuild() {
        let mut c = TreeCounter::with_order(3).expect("k = 3");
        for i in 0..81 {
            c.inc(ProcessorId::new(i)).expect("inc");
        }
        assert!(c.audit().retirements_by_level()[0] > 0, "the root retired");
        assert_root_state_lives_at_the_root(&c);

        // The root's first worker crashes mid-stint, after the first op:
        // its pool successor rebuilds the root and stable storage
        // restores the object.
        let root_worker = c.topology().initial_worker(NodeRef::ROOT);
        let plan = FaultPlan::new(41).crash(root_worker, 10);
        let mut c = TreeCounter::builder(81).expect("builder").faults(plan).build().expect("tree");
        for i in 0..81 {
            let initiator = ProcessorId::new(i);
            if !c.is_crashed(initiator) {
                c.inc_fault_tolerant(initiator).expect("inc");
            }
        }
        assert!(c.is_crashed(root_worker), "the plan crashed the root's worker");
        assert_eq!(c.audit().recoveries_by_level()[0], 1, "the root was rebuilt once");
        assert!(c.audit().retirements_by_level()[0] > 0, "and retired after its rebuild");
        assert_root_state_lives_at_the_root(&c);
    }

    #[test]
    fn flip_bit_through_the_tree() {
        let mut bit = TreeClient::<FlipBitObject>::new(8).expect("client");
        for i in 0..8usize {
            let r = bit.invoke(ProcessorId::new(i), ()).expect("invoke");
            assert_eq!(r.value, i % 2 == 1, "flips alternate");
        }
        assert!(!bit.object().bit(), "8 flips return to false");
        assert!(bit.audit().retirement_lemma_holds());
    }

    #[test]
    fn priority_queue_through_the_tree() {
        let mut pq = TreeClient::<PriorityQueueObject>::new(8).expect("client");
        for (i, key) in [42u64, 7, 19].iter().enumerate() {
            let r = pq.invoke(ProcessorId::new(i), PqRequest::Insert(*key)).expect("insert");
            assert_eq!(r.value, PqResponse::Inserted { len: i as u64 + 1 });
        }
        let r = pq.invoke(ProcessorId::new(5), PqRequest::ExtractMin).expect("extract");
        assert_eq!(r.value, PqResponse::Min(Some(7)));
        assert_eq!(pq.object().len(), 2);
    }

    #[test]
    fn generic_client_keeps_the_bottleneck_guarantee() {
        // The O(k) bottleneck is object-independent: one op per processor
        // on the flip bit stays within 20k, same as the counter.
        let mut bit = TreeClient::<FlipBitObject>::new(81).expect("client");
        for i in 0..81usize {
            bit.invoke(ProcessorId::new(i), ()).expect("invoke");
        }
        assert!(bit.loads().max_load() <= 20 * 3);
        assert!(bit.audit().grow_old_lemma_holds());
        assert!(bit.audit().retirement_counts_within_pools(bit.topology()));
    }

    #[test]
    fn construction_validation() {
        assert!(TreeClient::<FlipBitObject>::new(0).is_err());
        let client = TreeClient::<FlipBitObject>::new(50).expect("rounds up");
        assert_eq!(client.processors(), 81);
        assert_eq!(client.order(), 3);
        assert!(client.retirement_enabled());
    }

    #[test]
    fn unknown_initiator_rejected() {
        let mut bit = TreeClient::<FlipBitObject>::new(8).expect("client");
        let err = bit.invoke(ProcessorId::new(99), ()).unwrap_err();
        assert_eq!(err, SimError::UnknownProcessor { index: 99, processors: 8 });
    }

    #[test]
    fn an_op_that_livelocks_closes_its_trace_and_its_audit_entry() {
        let mut c = TreeCounter::with_order(2).expect("k = 2");
        c.inc(ProcessorId::new(0)).expect("inc");
        c.sim.net.set_message_cap(2);
        let err = c.inc(ProcessorId::new(5)).unwrap_err();
        assert!(matches!(err, SimError::Livelock { cap: 2, .. }), "{err:?}");
        assert!(c.sim.net.finish_op(distctr_sim::OpId::new(1)).is_none(), "the trace is closed");
        assert_eq!(c.audit().ops_seen(), 2, "and so is the audit's entry");
    }
}
