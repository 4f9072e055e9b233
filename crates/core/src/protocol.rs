//! The simulator driver of the protocol engine.
//!
//! All protocol decisions live in [`crate::engine::NodeEngine`]; this
//! module adapts a fleet of per-processor engines (one per simulated
//! processor) to the discrete-event [`Network`](distctr_sim::Network):
//! each delivered message becomes an [`Event::Deliver`] for the
//! receiving processor's engine, and the resulting [`Effect`]s are
//! realized on simulator facilities:
//!
//! * [`Effect::Send`] goes back out through the [`Outbox`] (charged to
//!   the load tracker like any send);
//! * [`Effect::Reply`] parks the response for the client to collect at
//!   quiescence;
//! * [`Effect::Audit`] entries feed the [`CounterAudit`] lemma ledger;
//! * the install/retire/recover and [`Effect::Persist`] effects go to
//!   the fleet's recovery [`Directory`] — the registry of every node's
//!   current worker and the stable-storage shadow of the root's object
//!   and reply cache — and a root recovery is answered with the
//!   [`Event::Restore`] the directory yields.
//!
//! The simulator has no timer wheel: watchdog timeouts are realized at
//! quiescence, where the client injects the directory's repair plan
//! between rounds.
//!
//! ## Stable storage
//!
//! Two explicit stable-storage assumptions make root crashes
//! recoverable: the hosted object's state and the per-operation reply
//! cache survive a crash of the root's worker; the directory's shadow
//! models exactly that. The reply cache, with deduplication enabled in
//! fault-tolerant mode, makes retried operations exactly-once: a re-sent
//! `Apply` for an operation the root already executed returns the cached
//! response instead of applying twice.

use std::sync::Arc;

use distctr_sim::{Outbox, ProcessorId, Protocol};

use crate::audit::CounterAudit;
use crate::engine::{
    seed_initial_hosting, AuditEvent, Effect, Effects, EngineConfig, Event, NodeEngine,
};
pub use crate::engine::{PoolPolicy, RetirementPolicy};
use crate::messages::Msg;
use crate::node::Directory;
use crate::object::{CounterObject, RootObject};
use crate::topology::{NodeRef, Topology};

/// The simulator driver: a fleet of per-processor engines plus the
/// simulator-only facilities (recovery directory, audit ledger, pending
/// response).
#[derive(Debug, Clone)]
pub struct TreeProtocol<O: RootObject = CounterObject> {
    topo: Arc<Topology>,
    engines: Vec<NodeEngine<O>>,
    /// Registry and stable storage (observer state for the client
    /// watchdog; engines never read it).
    directory: Directory<O>,
    threshold: Option<u64>,
    pending_response: Option<O::Response>,
    audit: CounterAudit,
    /// Whether crash-recovery machinery (root reply dedupe) is armed.
    fault_tolerant: bool,
    /// The effects of the delivery being handled: filled by
    /// [`NodeEngine::on_event_into`], drained by `apply_effects`, and
    /// kept between deliveries so a delivery allocates no buffer.
    scratch: Effects<O>,
}

impl<O: RootObject> TreeProtocol<O> {
    /// Builds the initial protocol state for `topo`, hosting `object` at
    /// the root.
    #[must_use]
    pub fn new(topo: Topology, retirement: RetirementPolicy, object: O) -> Self {
        Self::with_pool_policy(topo, retirement, PoolPolicy::OneShot, object)
    }

    /// Builds the protocol with an explicit pool policy.
    #[must_use]
    pub fn with_pool_policy(
        topo: Topology,
        retirement: RetirementPolicy,
        pool_policy: PoolPolicy,
        object: O,
    ) -> Self {
        let topo = Arc::new(topo);
        let threshold = retirement.threshold(topo.order());
        let config = EngineConfig {
            threshold,
            pool_policy,
            // The simulator's stable storage is unbounded; the cache only
            // grows in fault-tolerant mode (dedupe off ⇒ handled fresh).
            reply_cache_cap: usize::MAX,
            dedupe: false,
            persist: true,
        };
        let mut engines: Vec<NodeEngine<O>> = (0..topo.processors() as usize)
            .map(|i| NodeEngine::new(ProcessorId::new(i), Arc::clone(&topo), config))
            .collect();
        seed_initial_hosting(&topo, &mut engines, &object);
        TreeProtocol {
            directory: Directory::new(Arc::clone(&topo), &config, object),
            audit: CounterAudit::new(&topo),
            topo,
            engines,
            threshold,
            pending_response: None,
            fault_tolerant: false,
            scratch: Vec::new(),
        }
    }

    /// The tree topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The lemma auditor.
    #[must_use]
    pub fn audit(&self) -> &CounterAudit {
        &self.audit
    }

    /// Mutable access for op bracketing by the client.
    pub(crate) fn audit_mut(&mut self) -> &mut CounterAudit {
        &mut self.audit
    }

    /// The hosted object's current state (the stable-storage shadow,
    /// which tracks every fresh application at the root).
    #[must_use]
    pub fn object(&self) -> &O {
        self.directory.object()
    }

    /// Current worker of `node`.
    #[must_use]
    pub fn worker_of(&self, node: NodeRef) -> ProcessorId {
        self.directory.node(self.topo.flat_index(node)).worker
    }

    /// The fleet's recovery directory (registry, stable storage and the
    /// watchdog's repair plan).
    #[must_use]
    pub fn directory(&self) -> &Directory<O> {
        &self.directory
    }

    /// The retirement age threshold in force, if any.
    #[must_use]
    pub fn threshold(&self) -> Option<u64> {
        self.threshold
    }

    /// Takes the response delivered to the current operation's initiator.
    pub(crate) fn take_pending_response(&mut self) -> Option<O::Response> {
        self.pending_response.take()
    }

    /// Whether crash-recovery machinery is armed.
    #[must_use]
    pub fn fault_tolerant(&self) -> bool {
        self.fault_tolerant
    }

    /// Arms the crash-recovery machinery: the root caches one response
    /// per operation so watchdog retries are exactly-once.
    pub fn set_fault_tolerant(&mut self, enabled: bool) {
        self.fault_tolerant = enabled;
        for engine in &mut self.engines {
            engine.set_dedupe(enabled);
        }
    }

    /// The engine of processor `p` (read-only; tests and invariants).
    #[must_use]
    pub fn engine_of(&self, p: ProcessorId) -> &NodeEngine<O> {
        &self.engines[p.index()]
    }

    /// Per-processor engine fingerprints, in processor order — the same
    /// values the model checker and the threaded backend fold through
    /// `combined_fingerprint`, so a simulated run's final state can be
    /// compared across drivers and across refactors of the engine's
    /// internal storage.
    #[must_use]
    pub fn engine_fingerprints(&self) -> Vec<u64> {
        self.engines.iter().map(NodeEngine::fingerprint).collect()
    }

    /// How many rebuild shares a recovery of `node` must collect.
    #[must_use]
    pub fn expected_shares(&self, node: NodeRef) -> u32 {
        crate::engine::expected_shares(&self.topo, node)
    }

    /// Realizes one batch of engine effects on the simulator, leaving
    /// `fx` empty.
    fn apply_effects(&mut self, out: &mut Outbox<'_, Msg<O>>, fx: &mut Effects<O>) {
        for effect in fx.drain(..) {
            match effect {
                Effect::Send { to, msg } => out.send(to, msg),
                Effect::Reply { resp, .. } => self.pending_response = Some(resp),
                Effect::Audit(ev) => self.apply_audit(ev),
                effect => {
                    // Stable storage restores a recovered root's object
                    // (and reply history) at the new worker before any
                    // further delivery.
                    if let Some((worker, restore)) = self.directory.observe(effect) {
                        let mut fx2 = Vec::new();
                        self.engines[worker.index()].on_event_into(restore, &mut fx2);
                        self.apply_effects(out, &mut fx2);
                    }
                }
            }
        }
    }

    /// Maps one audit event onto the ledger.
    fn apply_audit(&mut self, ev: AuditEvent) {
        match ev {
            AuditEvent::Handled { node, kind, aged } => {
                let flat = self.topo.flat_index(node);
                self.audit.record_kind(kind);
                self.audit.record_node_msgs(flat, aged);
            }
            AuditEvent::Kind(kind) => self.audit.record_kind(kind),
            AuditEvent::Traffic { node, msgs } => {
                let flat = self.topo.flat_index(node);
                self.audit.record_node_msgs(flat, msgs);
            }
            AuditEvent::ShimForward => self.audit.record_shim_forward(),
            AuditEvent::Retirement { node } => {
                let flat = self.topo.flat_index(node);
                self.audit.record_retirement(node, flat);
            }
            AuditEvent::PoolExhausted { node } => self.audit.record_pool_exhausted(node),
            AuditEvent::StintComplete { node, setup_msgs } => {
                let flat = self.topo.flat_index(node);
                self.audit.record_stint_complete(flat, setup_msgs);
            }
            AuditEvent::Recovery { node } => self.audit.record_recovery(node),
            AuditEvent::RecoveryMsgs { count } => self.audit.record_recovery_msgs(count),
            AuditEvent::Lost => {
                // An operation died inside the protocol (object state
                // missing after an unrecovered crash). The watchdog's
                // retry loop notices the missing response.
            }
        }
    }
}

impl<O: RootObject> Protocol for TreeProtocol<O> {
    type Msg = Msg<O>;

    fn on_deliver(&mut self, out: &mut Outbox<'_, Self::Msg>, _from: ProcessorId, msg: Self::Msg) {
        let mut fx = std::mem::take(&mut self.scratch);
        self.engines[out.me().index()].on_event_into(Event::Deliver { msg }, &mut fx);
        self.apply_effects(out, &mut fx);
        self.scratch = fx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retirement_policy_thresholds() {
        assert_eq!(RetirementPolicy::PaperDefault.threshold(3), Some(12));
        assert_eq!(RetirementPolicy::AfterAge(7).threshold(3), Some(7));
        assert_eq!(RetirementPolicy::AfterAge(0).threshold(3), Some(1), "clamped to 1");
        assert_eq!(RetirementPolicy::Never.threshold(3), None);
        assert_eq!(RetirementPolicy::default(), RetirementPolicy::PaperDefault);
    }

    #[test]
    fn fresh_protocol_has_initial_workers_and_zero_value() {
        let topo = Topology::new(3).expect("k=3");
        let proto: TreeProtocol =
            TreeProtocol::new(topo.clone(), RetirementPolicy::PaperDefault, CounterObject::new());
        assert_eq!(proto.object().value(), 0);
        assert_eq!(proto.threshold(), Some(12));
        for node in topo.nodes() {
            assert_eq!(proto.worker_of(node), topo.initial_worker(node));
            // The engine fleet agrees with the registry.
            assert!(proto.engine_of(topo.initial_worker(node)).hosts(node));
        }
    }

    #[test]
    fn never_policy_disables_threshold() {
        let topo = Topology::new(2).expect("k=2");
        let proto: TreeProtocol =
            TreeProtocol::new(topo, RetirementPolicy::Never, CounterObject::new());
        assert_eq!(proto.threshold(), None);
    }

    #[test]
    fn protocol_hosts_arbitrary_objects() {
        use crate::object::FlipBitObject;
        let topo = Topology::new(2).expect("k=2");
        let proto = TreeProtocol::new(topo, RetirementPolicy::PaperDefault, FlipBitObject::new());
        assert!(!proto.object().bit());
    }

    #[test]
    fn fault_tolerance_toggle_reaches_every_engine() {
        let topo = Topology::new(2).expect("k=2");
        let mut proto: TreeProtocol =
            TreeProtocol::new(topo, RetirementPolicy::PaperDefault, CounterObject::new());
        assert!(!proto.fault_tolerant());
        proto.set_fault_tolerant(true);
        assert!(proto.fault_tolerant());
        assert!(proto.engine_of(ProcessorId::new(3)).config().dedupe);
        proto.set_fault_tolerant(false);
        assert!(!proto.engine_of(ProcessorId::new(0)).config().dedupe);
    }
}
