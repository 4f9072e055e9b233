//! The generic tree-object client: any [`RootObject`] served through the
//! retirement tree with the paper's O(k) bottleneck guarantee.

use distctr_sim::{
    DeliveryPolicy, FaultEvent, FaultPlan, FaultStats, LoadTracker, Network, OpId, ProcessorId,
    SimError, SimTime, TraceMode,
};

use crate::audit::CounterAudit;
use crate::error::CoreError;
use crate::kmath::{exact_order, leaves_of_order, order_for, MAX_ORDER};
use crate::messages::Msg;
use crate::object::RootObject;
use crate::protocol::{PoolPolicy, RetirementPolicy, TreeProtocol};
use crate::topology::{NodeRef, Topology};

/// Result of one operation against a tree-hosted object.
#[derive(Debug, Clone)]
pub struct InvokeResult<S> {
    /// The object's response, delivered to the initiator.
    pub response: S,
    /// Messages exchanged during the operation (including retirement
    /// traffic it triggered).
    pub messages: u64,
    /// Simulated completion time.
    pub completed_at: SimTime,
    /// Per-operation trace, when recorded.
    pub trace: Option<distctr_sim::OpTrace>,
}

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
        let fault_tolerant = self.faults.is_some();
        let net = match self.faults {
            Some(plan) => Network::with_faults(n, self.trace, self.policy, plan)?,
            None => Network::with_policy(n, self.trace, self.policy)?,
        };
        let mut proto =
            TreeProtocol::with_pool_policy(topo, self.retirement, self.pool, self.object);
        proto.set_fault_tolerant(fault_tolerant);
        Ok(TreeClient { net, proto, next_op: 0, watchdog_retries: 0 })
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
/// assert!(!bit.invoke(ProcessorId::new(3), ())?.response);
/// assert!(bit.invoke(ProcessorId::new(5), ())?.response);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TreeClient<O: RootObject> {
    net: Network<Msg<O>>,
    proto: TreeProtocol<O>,
    next_op: usize,
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
        self.proto.topology().order()
    }

    /// Number of processors (rounded up to `k^(k+1)`).
    #[must_use]
    pub fn processors(&self) -> usize {
        self.net.processors()
    }

    /// The tree topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.proto.topology()
    }

    /// The lemma auditor's view of the run so far.
    #[must_use]
    pub fn audit(&self) -> &CounterAudit {
        self.proto.audit()
    }

    /// The hosted object's current state.
    #[must_use]
    pub fn object(&self) -> &O {
        self.proto.object()
    }

    /// The processor currently working for `node`.
    #[must_use]
    pub fn worker_of(&self, node: NodeRef) -> ProcessorId {
        self.proto.worker_of(node)
    }

    /// Per-processor message loads since construction.
    #[must_use]
    pub fn loads(&self) -> &LoadTracker {
        self.net.loads()
    }

    /// Number of operations executed.
    #[must_use]
    pub fn ops_executed(&self) -> usize {
        self.next_op
    }

    /// Per-processor engine fingerprints, in processor order (see
    /// [`crate::protocol::TreeProtocol::engine_fingerprints`]).
    #[must_use]
    pub fn engine_fingerprints(&self) -> Vec<u64> {
        self.proto.engine_fingerprints()
    }

    /// Executes one operation initiated by `initiator`, running the whole
    /// process (including retirement cascades) to quiescence.
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
    ) -> Result<InvokeResult<O::Response>, SimError> {
        self.invoke_inner(initiator, None, req)
    }

    /// Executes a *batch* of `count` identical operations sharing one
    /// tree traversal ([`Msg::BatchApply`]): the root applies all of them
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
    ) -> Result<InvokeResult<O::Response>, SimError> {
        self.invoke_inner(initiator, Some(count.max(1)), req)
    }

    fn invoke_inner(
        &mut self,
        initiator: ProcessorId,
        batch: Option<u64>,
        req: O::Request,
    ) -> Result<InvokeResult<O::Response>, SimError> {
        if initiator.index() >= self.net.processors() {
            return Err(SimError::UnknownProcessor {
                index: initiator.index(),
                processors: self.net.processors(),
            });
        }
        let op = OpId::new(self.next_op);
        self.next_op += 1;
        self.proto.audit_mut().begin_op();
        let leaf_parent = self.proto.topology().leaf_parent(initiator.index() as u64);
        let worker = self.proto.worker_of(leaf_parent);
        self.net.inject(
            op,
            initiator,
            worker,
            Self::entry_msg(leaf_parent, initiator, op.index() as u64, batch, req),
        );
        let stats = self.net.run_to_quiescence(&mut self.proto)?;
        self.proto.audit_mut().end_op();
        let trace = self.net.finish_op(op);
        let response = self
            .proto
            .take_pending_response()
            .expect("operation must deliver a response to the initiator before quiescence");
        Ok(InvokeResult {
            response,
            messages: stats.delivered,
            completed_at: stats.end_time,
            trace,
        })
    }

    /// The message that enters an operation (or a batch) into the tree.
    fn entry_msg(
        node: NodeRef,
        origin: ProcessorId,
        op_seq: u64,
        batch: Option<u64>,
        req: O::Request,
    ) -> Msg<O> {
        match batch {
            None => Msg::Apply { node, origin, op_seq, req },
            Some(count) => Msg::BatchApply { node, origin, op_seq, count, req },
        }
    }

    /// Whether the client retires workers (false for the static-tree
    /// ablation).
    #[must_use]
    pub fn retirement_enabled(&self) -> bool {
        self.proto.threshold().is_some()
    }

    // --- fault tolerance -------------------------------------------------

    /// The fault plan driving the network, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.net.fault_plan()
    }

    /// Every fault the network injected so far, in order.
    #[must_use]
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.net.fault_log()
    }

    /// Summary counts of injected faults.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.net.fault_stats()
    }

    /// Processors currently down.
    #[must_use]
    pub fn crashed_processors(&self) -> Vec<ProcessorId> {
        self.net.crashed_processors()
    }

    /// Whether `p` is down.
    #[must_use]
    pub fn is_crashed(&self, p: ProcessorId) -> bool {
        self.net.is_crashed(p)
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
        self.net.crash(p);
        self.proto.set_fault_tolerant(true);
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
    ) -> Result<InvokeResult<O::Response>, CoreError> {
        self.invoke_fault_tolerant_inner(initiator, None, req)
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
    ) -> Result<InvokeResult<O::Response>, CoreError> {
        self.invoke_fault_tolerant_inner(initiator, Some(count.max(1)), req)
    }

    fn invoke_fault_tolerant_inner(
        &mut self,
        initiator: ProcessorId,
        batch: Option<u64>,
        req: O::Request,
    ) -> Result<InvokeResult<O::Response>, CoreError> {
        if initiator.index() >= self.net.processors() {
            return Err(SimError::UnknownProcessor {
                index: initiator.index(),
                processors: self.net.processors(),
            }
            .into());
        }
        self.proto.set_fault_tolerant(true);
        let op = OpId::new(self.next_op);
        self.next_op += 1;
        self.proto.audit_mut().begin_op();
        let leaf_parent = self.proto.topology().leaf_parent(initiator.index() as u64);
        let path = self.op_path(leaf_parent);
        let mut messages = 0u64;
        let mut attempts = 0u32;
        let (response, completed_at) = loop {
            if attempts >= Self::MAX_RECOVERY_ATTEMPTS {
                self.proto.audit_mut().end_op();
                self.net.finish_op(op);
                return Err(CoreError::RecoveryFailed { attempts });
            }
            attempts += 1;
            if self.net.is_crashed(initiator) {
                self.proto.audit_mut().end_op();
                self.net.finish_op(op);
                return Err(CoreError::Unrecoverable(format!(
                    "initiator {initiator} has crashed and cannot receive a response"
                )));
            }
            // Promote successors for crashed/stuck workers before
            // (re-)sending the operation into the tree.
            if let Err(e) = self.promote_successors(op, &path) {
                self.proto.audit_mut().end_op();
                self.net.finish_op(op);
                return Err(e);
            }
            let entry_worker = self.proto.worker_of(leaf_parent);
            if !self.net.is_crashed(entry_worker) {
                self.net.inject(
                    op,
                    initiator,
                    entry_worker,
                    Self::entry_msg(leaf_parent, initiator, op.index() as u64, batch, req.clone()),
                );
            }
            let stats = self.net.run_to_quiescence(&mut self.proto)?;
            messages += stats.delivered;
            if let Some(resp) = self.proto.take_pending_response() {
                break (resp, stats.end_time);
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
                self.refresh_path_routing(op, &path);
            }
        };
        self.proto.audit_mut().end_op();
        let trace = self.net.finish_op(op);
        Ok(InvokeResult { response, messages, completed_at, trace })
    }

    /// Flat indices of the inner nodes the op climbs, leaf-parent to root.
    fn op_path(&self, leaf_parent: NodeRef) -> Vec<usize> {
        let topo = self.proto.topology();
        let mut path = Vec::new();
        let mut cur = Some(leaf_parent);
        while let Some(node) = cur {
            path.push(topo.flat_index(node));
            cur = topo.parent(node);
        }
        path
    }

    /// One watchdog repair pass: for every node whose worker is down,
    /// whose handoff stalled (quiescent while the state-bearing final is
    /// still unaccounted for — the successor either died or never got
    /// it), or whose recovery stalled (quiescent while still collecting
    /// shares), inject a [`Msg::RecoverPromote`] self-message at a live
    /// pool successor. The promote realizes the engine's `SetTimer`
    /// protection: quiescence with the transfer still open *is* the
    /// timeout.
    ///
    /// Nodes with no live successor are fatal only when they sit on the
    /// operation's `path`; off-path stranded nodes are left alone (their
    /// own operations will report the error).
    fn promote_successors(&mut self, op: OpId, path: &[usize]) -> Result<(), CoreError> {
        let node_count =
            usize::try_from(self.proto.topology().inner_node_count()).expect("nodes fit usize");
        // Root first: a crashed parent must be repaired for its child's
        // rebuild queries to be answerable, and flat order is level-major.
        for flat in 0..node_count {
            let node = self.proto.topology().node_at(flat);
            let st = self.proto.node_state(flat);
            let worker_dead = self.net.is_crashed(st.worker);
            // A handoff still open at quiescence lost its final part
            // (with the migrating state aboard) to a drop or a crash:
            // rebuild from the neighbours exactly as after a crash.
            let stalled_handoff = st.handing_off;
            let stalled_recovery = st.recovering;
            if !worker_dead && !stalled_handoff && !stalled_recovery {
                continue;
            }
            let Some(successor) = self.live_successor(node, flat) else {
                // Fatal only if the op needs this node and its worker is
                // actually gone.
                if worker_dead {
                    if path.contains(&flat) {
                        return Err(CoreError::Unrecoverable(format!(
                            "node ({}, {}) lost worker {} and its pool has no live successor",
                            node.level, node.index, st.worker
                        )));
                    }
                    continue;
                }
                if stalled_handoff {
                    // The pool is drained but the *retiring* worker is
                    // still alive: the state-bearing final went to a
                    // corpse, and the old worker no longer serves the
                    // node — it shim-forwards every request at the dead
                    // successor. Promote the old worker itself: it is a
                    // pool member, no longer hosts the node, and the
                    // rebuild clears its own stale forwarding entry.
                    let old_worker = st.worker;
                    let neighbours = self.neighbour_workers(node);
                    self.net.inject(
                        op,
                        old_worker,
                        old_worker,
                        Msg::RecoverPromote { node, neighbours },
                    );
                }
                continue;
            };
            // The promote carries the watchdog's registry view of the
            // node's neighbourhood: the successor's own routing view died
            // with the old worker, so the promote must tell it where to
            // send its rebuild queries.
            let neighbours = self.neighbour_workers(node);
            // The promote models the successor's own watchdog timeout: a
            // self-message, charged to the successor.
            self.net.inject(op, successor, successor, Msg::RecoverPromote { node, neighbours });
        }
        Ok(())
    }

    /// The node's inner neighbours (parent plus inner children) with the
    /// worker each is currently reachable at: its registry worker, or —
    /// when the neighbour is itself mid-recovery (pools overlap along
    /// root paths, so one crash can take out a whole ancestor chain) —
    /// the successor being promoted for it. Any pool member can answer a
    /// rebuild query, since a share's content is the neighbour's own
    /// identity.
    fn neighbour_workers(&self, node: NodeRef) -> Vec<(NodeRef, ProcessorId)> {
        let topo = self.proto.topology();
        topo.parent(node)
            .into_iter()
            .chain(topo.inner_children(node).unwrap_or_default())
            .map(|neighbour| (neighbour, self.reachable_worker(neighbour)))
            .collect()
    }

    /// The processor `node` is currently reachable at: its registry
    /// worker, or — mid-recovery — the successor being promoted for it.
    fn reachable_worker(&self, node: NodeRef) -> ProcessorId {
        let st = self.proto.node_state(self.proto.topology().flat_index(node));
        if st.recovering {
            st.pending_worker.unwrap_or(st.worker)
        } else {
            st.worker
        }
    }

    /// Repairs stale engine routing along the operation's path: for each
    /// path node with a parent, inject a [`Msg::NewWorker`] self-message
    /// at the node's worker re-announcing the parent's current worker.
    /// Engines route with strictly local knowledge, so a `NewWorker`
    /// notification lost to a drop or a crash leaves the engine below
    /// forwarding to a dead processor indefinitely; the registry (which
    /// the driver keeps current from the engines' install/recover
    /// effects) is the directory that re-seeds that knowledge. Costs at
    /// most `k + 1` self-messages per invocation, charged like any other
    /// protocol traffic.
    fn refresh_path_routing(&mut self, op: OpId, path: &[usize]) {
        for &flat in path {
            let node = self.proto.topology().node_at(flat);
            let Some(parent) = self.proto.topology().parent(node) else { continue };
            let worker = self.reachable_worker(node);
            if self.net.is_crashed(worker) {
                continue; // promote_successors owns the dead-worker case
            }
            let new_worker = self.reachable_worker(parent);
            self.net.inject(
                op,
                worker,
                worker,
                Msg::NewWorker { node, retired: parent, new_worker },
            );
        }
    }

    /// The next live processor of `node`'s pool, if one is left. A
    /// recovery or handoff already in flight keeps its successor (the
    /// promote is a restart or rescue, not a new promotion).
    fn live_successor(&self, node: NodeRef, flat: usize) -> Option<ProcessorId> {
        let st = self.proto.node_state(flat);
        if st.recovering || st.handing_off {
            if let Some(p) = st.pending_worker {
                if !self.net.is_crashed(p) {
                    return Some(p);
                }
            }
        }
        let pool = self.proto.topology().pool(node);
        let size = pool.end - pool.start;
        let candidates: Vec<u64> = match self.proto.pool_policy() {
            // One-shot pools never reuse an id: only indices past the
            // cursor are eligible.
            PoolPolicy::OneShot => (st.pool_cursor + 1..size).collect(),
            // Recycling pools wrap; every index but the current one is
            // eligible.
            PoolPolicy::Recycling => (1..size).map(|step| (st.pool_cursor + step) % size).collect(),
        };
        candidates
            .into_iter()
            .map(|i| ProcessorId::new((pool.start + i) as usize))
            .find(|&p| !self.net.is_crashed(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{FlipBitObject, PqRequest, PqResponse, PriorityQueueObject};

    #[test]
    fn flip_bit_through_the_tree() {
        let mut bit = TreeClient::<FlipBitObject>::new(8).expect("client");
        for i in 0..8usize {
            let r = bit.invoke(ProcessorId::new(i), ()).expect("invoke");
            assert_eq!(r.response, i % 2 == 1, "flips alternate");
        }
        assert!(!bit.object().bit(), "8 flips return to false");
        assert!(bit.audit().retirement_lemma_holds());
    }

    #[test]
    fn priority_queue_through_the_tree() {
        let mut pq = TreeClient::<PriorityQueueObject>::new(8).expect("client");
        for (i, key) in [42u64, 7, 19].iter().enumerate() {
            let r = pq.invoke(ProcessorId::new(i), PqRequest::Insert(*key)).expect("insert");
            assert_eq!(r.response, PqResponse::Inserted { len: i as u64 + 1 });
        }
        let r = pq.invoke(ProcessorId::new(5), PqRequest::ExtractMin).expect("extract");
        assert_eq!(r.response, PqResponse::Min(Some(7)));
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
}
