//! The fleet driver and the one effect loop.
//!
//! All protocol decisions live in [`EngineState`]; a driver feeds its
//! engines events and realizes the [`Effect`]s they return. [`realize`]
//! is that realization, written once for every driver. Sends and
//! completed operations leave through the driver's [`Transport`]; audit
//! events and the registry's recovery effects go to its [`Ledger`]:
//!
//! | driver | transport | ledger |
//! |---|---|---|
//! | simulator | the network's `Outbox`; the fleet's reply buffer, read by the op loop | [`TreeProtocol`] |
//! | model checker (`distctr-check`) | the in-flight multiset; the op's state | [`TreeProtocol`] |
//! | shared memory (`distctr-shm`) | arena mailboxes; op cells | the slot's [`Tally`] |
//! | threads (`distctr-net`) | channels; the results channel | the worker's [`Tally`] |
//!
//! [`TreeProtocol`] is the fleet: one shared [`EngineContext`] and one
//! [`EngineState`] per processor, the recovery [`Directory`] — the
//! registry of every node's current worker and the stable-storage shadow
//! of the root's object and reply cache — and the [`CounterAudit`] lemma
//! ledger. A driver with one processor at a time keeps a [`NodeEngine`]
//! and a [`Tally`], and ignores the recovery effects.
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
//! models exactly that, and a root recovery is answered with the
//! [`Event::Restore`] it yields. The reply cache, with deduplication
//! enabled in fault-tolerant mode, makes retried operations exactly-once:
//! a re-sent `Apply` for an operation the root already executed returns
//! the cached response instead of applying twice.

use std::sync::Arc;

use distctr_sim::{Delivered, OpId, OpProtocol, Outbox, ProcessorId, Protocol};

use crate::audit::{CounterAudit, Tally};
use crate::engine::{
    seed_hosting, seed_initial_hosting, AuditEvent, Effect, Effects, EngineConfig, EngineContext,
    EngineState, EngineView, EngineViewMut, Event, NodeEngine,
};
pub use crate::engine::{PoolPolicy, RetirementPolicy};
use crate::messages::Msg;
use crate::node::Directory;
use crate::object::{CounterObject, RootObject};
use crate::topology::{NodeRef, Topology};

/// Where a driver's effects leave the engines.
pub trait Transport<O: RootObject> {
    /// Processor `from` sends `msg` to `to`.
    fn send(&mut self, from: ProcessorId, to: ProcessorId, msg: Msg<O>);
    /// Operation `op_seq` got its response at its initiator.
    fn complete(&mut self, op_seq: u64, resp: O::Response);
}

/// Where the effect loop records what is not traffic: audit events, and
/// the recovery effects of a fleet's registry.
pub trait Ledger<O: RootObject> {
    /// Records one audit event.
    fn record(&mut self, ev: AuditEvent);
    /// Folds one registry or persistence effect; a driver without a
    /// registry ignores them.
    fn observe<T: Transport<O>>(&mut self, _effect: Effect<O>, _net: &mut T) {}
}

impl<O: RootObject> Ledger<O> for Tally {
    fn record(&mut self, ev: AuditEvent) {
        self.count(&ev);
    }
}

/// The one effect loop: realizes `fx`, the effects processor `at`'s
/// engine just emitted, leaving it empty.
pub fn realize<O: RootObject, T: Transport<O>, L: Ledger<O>>(
    at: ProcessorId,
    fx: &mut Effects<O>,
    net: &mut T,
    ledger: &mut L,
) {
    for effect in fx.drain(..) {
        match effect {
            Effect::Send { to, msg } => net.send(at, to, msg),
            Effect::Reply { op_seq, resp } => net.complete(op_seq, resp),
            Effect::Audit(ev) => ledger.record(ev),
            effect => ledger.observe(effect, net),
        }
    }
}

/// One engine per processor of `topo`, in processor order, seeded with
/// the initial hosting and `object` at the root: for drivers that hold
/// each processor's engine apart (shm slots, net workers).
#[must_use]
pub fn seeded_engines<O: RootObject>(
    topo: &Arc<Topology>,
    config: EngineConfig,
    object: &O,
) -> Vec<NodeEngine<O>> {
    let mut engines: Vec<NodeEngine<O>> = (0..topo.processors() as usize)
        .map(|i| NodeEngine::new(ProcessorId::new(i), Arc::clone(topo), config))
        .collect();
    seed_initial_hosting(topo, &mut engines, object);
    engines
}

/// The fleet driver: the engines' one shared context and one state per
/// processor, the recovery directory and the audit ledger, plus the
/// buffer the simulator's replies land in for its op loop
/// ([`OpProtocol`]).
#[derive(Debug, Clone)]
pub struct TreeProtocol<O: RootObject = CounterObject> {
    /// The topology and configuration, held once for the fleet.
    ctx: EngineContext,
    /// Processor `p`'s engine state at index `p`.
    states: Vec<EngineState<O>>,
    /// Registry and stable storage (observer state for the watchdog;
    /// engines never read it).
    directory: Directory<O>,
    audit: CounterAudit,
    /// Replies delivered to initiators, each marked with its op; the
    /// simulator's op loop claims them.
    replies: Vec<Delivered<O::Response>>,
    /// The effects of the delivery being handled: filled by
    /// [`EngineState::on_event_into`], drained by [`realize`], and kept
    /// between deliveries so a delivery allocates no buffer.
    scratch: Effects<O>,
}

impl<O: RootObject> TreeProtocol<O> {
    /// The fleet of `topo` under `config`, hosting `object` at the root.
    #[must_use]
    pub fn new(topo: Arc<Topology>, config: EngineConfig, object: O) -> Self {
        let audit = CounterAudit::new(Arc::clone(&topo));
        let ctx = EngineContext::new(topo, config);
        let mut states: Vec<EngineState<O>> =
            (0..ctx.topology().processors()).map(|_| EngineState::new()).collect();
        seed_hosting(ctx.topology(), &object, |worker, node, hosted| {
            states[worker.index()].install(&ctx, node, hosted);
        });
        TreeProtocol {
            directory: Directory::new(Arc::clone(ctx.topology()), &config, object),
            ctx,
            states,
            audit,
            // One reply per op: reserved now, the buffer never grows on
            // a fault-free run.
            replies: Vec::with_capacity(1),
            scratch: Vec::new(),
        }
    }

    /// The tree topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.ctx.topology()
    }

    /// The lemma auditor.
    #[must_use]
    pub fn audit(&self) -> &CounterAudit {
        &self.audit
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
        self.directory.node(self.topology().flat_index(node)).worker
    }

    /// The fleet's recovery directory (registry, stable storage and the
    /// watchdog's repair plan).
    #[must_use]
    pub fn directory(&self) -> &Directory<O> {
        &self.directory
    }

    /// The engines' configuration (every engine shares it).
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.ctx.config()
    }

    /// Arms the crash-recovery machinery: the root caches one response
    /// per operation so watchdog retries are exactly-once.
    pub fn set_fault_tolerant(&mut self, enabled: bool) {
        self.ctx.set_dedupe(enabled);
    }

    /// The engine of processor `p` (read-only; tests and invariants).
    #[must_use]
    pub fn engine_of(&self, p: ProcessorId) -> EngineView<'_, O> {
        EngineView::new(&self.ctx, p, &self.states[p.index()])
    }

    /// The engine of processor `p`, for a driver that crashes it or
    /// seeds a bug into it.
    pub fn engine_mut(&mut self, p: ProcessorId) -> EngineViewMut<'_, O> {
        EngineViewMut::new(&self.ctx, &mut self.states[p.index()])
    }

    /// Per-processor engine fingerprints, in processor order — the same
    /// values the model checker and the threaded backend fold through
    /// `combined_fingerprint`, so a simulated run's final state can be
    /// compared across drivers and across refactors of the engine's
    /// internal storage.
    #[must_use]
    pub fn engine_fingerprints(&self) -> Vec<u64> {
        (0..self.states.len()).map(|p| self.engine_of(ProcessorId::new(p)).fingerprint()).collect()
    }

    /// Feeds `event` to processor `at`'s engine and realizes the effects
    /// through `net`.
    pub fn deliver<T: Transport<O>>(&mut self, at: ProcessorId, event: Event<O>, net: &mut T) {
        let mut fx = std::mem::take(&mut self.scratch);
        self.states[at.index()].on_event_into(&self.ctx, at, event, &mut fx);
        realize(at, &mut fx, net, self);
        self.scratch = fx;
    }
}

impl<O: RootObject> Ledger<O> for TreeProtocol<O> {
    fn record(&mut self, ev: AuditEvent) {
        self.audit.record(ev);
    }

    fn observe<T: Transport<O>>(&mut self, effect: Effect<O>, net: &mut T) {
        // Stable storage restores a recovered root's object (and reply
        // history) at the new worker before any further delivery.
        if let Some((worker, restore)) = self.directory.observe(effect) {
            self.deliver(worker, restore, net);
        }
    }
}

/// The simulator's transport: the network's outbox, which charges each
/// send to the delivering processor, and the reply the delivery
/// completed, if any, with its op's sequence number.
struct Sim<'a, 'n, O: RootObject> {
    out: &'a mut Outbox<'n, Msg<O>>,
    reply: Option<(u64, O::Response)>,
}

impl<O: RootObject> Transport<O> for Sim<'_, '_, O> {
    fn send(&mut self, _from: ProcessorId, to: ProcessorId, msg: Msg<O>) {
        self.out.send(to, msg);
    }

    fn complete(&mut self, op_seq: u64, resp: O::Response) {
        self.reply = Some((op_seq, resp));
    }
}

impl<O: RootObject> Protocol for TreeProtocol<O> {
    type Msg = Msg<O>;

    fn on_deliver(&mut self, out: &mut Outbox<'_, Self::Msg>, _from: ProcessorId, msg: Self::Msg) {
        let at = out.me();
        let mut sim = Sim { out, reply: None };
        self.deliver(at, Event::Deliver { msg }, &mut sim);
        if let Some((op_seq, resp)) = sim.reply {
            let op = usize::try_from(op_seq).expect("an op's sequence number is its OpId");
            self.replies.push((Some(OpId::new(op)), at, resp));
        }
    }
}

impl<O: RootObject> OpProtocol for TreeProtocol<O> {
    type Value = O::Response;

    fn delivered(&mut self) -> &mut Vec<Delivered<O::Response>> {
        &mut self.replies
    }

    fn op_opened(&mut self) {
        self.audit.begin_op();
    }

    fn op_closed(&mut self) {
        self.audit.end_op();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet<O: RootObject>(k: u32, retirement: RetirementPolicy, object: O) -> TreeProtocol<O> {
        let topo = Arc::new(Topology::new(k).expect("order"));
        let config = EngineConfig { threshold: retirement.threshold(k), ..EngineConfig::paper(k) };
        TreeProtocol::new(topo, config, object)
    }

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
        let proto = fleet(3, RetirementPolicy::PaperDefault, CounterObject::new());
        let topo = proto.topology().clone();
        assert_eq!(proto.object().value(), 0);
        assert_eq!(proto.config().threshold, Some(12));
        for node in topo.nodes() {
            assert_eq!(proto.worker_of(node), topo.initial_worker(node));
            // The engine fleet agrees with the registry.
            assert!(proto.engine_of(topo.initial_worker(node)).hosts(node));
        }
    }

    #[test]
    fn never_policy_disables_threshold() {
        let proto = fleet(2, RetirementPolicy::Never, CounterObject::new());
        assert_eq!(proto.config().threshold, None);
    }

    #[test]
    fn protocol_hosts_arbitrary_objects() {
        use crate::object::FlipBitObject;
        let proto = fleet(2, RetirementPolicy::PaperDefault, FlipBitObject::new());
        assert!(!proto.object().bit());
    }

    #[test]
    fn fault_tolerance_toggle_reaches_every_engine() {
        let mut proto = fleet(2, RetirementPolicy::PaperDefault, CounterObject::new());
        assert!(!proto.config().dedupe);
        proto.set_fault_tolerant(true);
        assert!(proto.engine_of(ProcessorId::new(3)).config().dedupe);
        proto.set_fault_tolerant(false);
        assert!(!proto.engine_of(ProcessorId::new(0)).config().dedupe);
    }
}
