//! The fleet drivers' recovery directory: the registry of who works for
//! each node, the stable-storage shadow, and the watchdog's repair plan.
//!
//! "Each inner node stores k+2 values: an identifier id that tells which
//! processor currently works for the node, the identifiers of its k
//! children and its parent, and the number of messages that the node sent
//! or received since its current processor works for it — its age."
//!
//! The authoritative copy of those values (the age included) lives
//! inside the engines (see [`crate::engine::NodeEngine`]), migrating
//! with the handoff messages; engines never read the directory. A
//! [`Directory`] is the observer view that a driver seeing the whole
//! fleet keeps beside it — the simulator's
//! [`TreeProtocol`](crate::protocol::TreeProtocol) and the model
//! checker's world each own one. [`Directory::observe`] folds the
//! engines' recovery effects into the registry and the stable-storage
//! shadow; [`Directory::repair_plan`] and [`Directory::path_refresh`]
//! compute the client watchdog's repairs from that view and the caller's
//! crash flags, and the driver only injects them.

use std::collections::VecDeque;
use std::sync::Arc;

use distctr_sim::ProcessorId;

use crate::engine::{Effect, EngineConfig, Event, PoolPolicy};
use crate::messages::Msg;
use crate::object::RootObject;
use crate::serve::push_capped;
use crate::topology::{NodeRef, Topology};

/// Registry record of one inner tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeState {
    /// The processor currently working for this node.
    pub worker: ProcessorId,
    /// How many retirements have happened (worker = pool start + cursor).
    pub pool_cursor: u64,
    /// Whether a handoff to a successor is in flight.
    pub handing_off: bool,
    /// The successor that will take over when the handoff or recovery
    /// completes.
    pub pending_worker: Option<ProcessorId>,
    /// Whether a crash recovery (forced retirement) is in flight: the
    /// pool successor is rebuilding the node's state from its neighbours
    /// because the previous worker died without handing off.
    pub recovering: bool,
}

impl NodeState {
    /// Fresh state for a node whose initial worker is `worker`.
    #[must_use]
    pub fn new(worker: ProcessorId) -> Self {
        NodeState {
            worker,
            pool_cursor: 0,
            handing_off: false,
            pending_worker: None,
            recovering: false,
        }
    }
}

/// One outcome of the watchdog's [`Directory::repair_plan`] for one node.
#[derive(Debug, Clone)]
pub enum Repair<O: RootObject> {
    /// Inject `promote` (a [`Msg::RecoverPromote`]) at the live pool
    /// successor `at`, as a self-message modelling its own timeout.
    Promote {
        /// The successor that rebuilds the node.
        at: ProcessorId,
        /// The promote, carrying the registry's view of the neighbours.
        promote: Msg<O>,
    },
    /// The pool is drained but the *retiring* worker `at` is alive: the
    /// state-bearing final went to a corpse, and the old worker no longer
    /// serves the node — it shim-forwards every request at the dead
    /// successor. Inject `promote` at the old worker itself: it is a pool
    /// member, no longer hosts the node, and the rebuild clears its own
    /// stale forwarding entry.
    Rescue {
        /// The retiring worker that rebuilds the node.
        at: ProcessorId,
        /// The promote, carrying the registry's view of the neighbours.
        promote: Msg<O>,
    },
    /// `node` lost `worker` and its pool has no live member left (level-k
    /// nodes have singleton pools and cannot recover). Fatal only to the
    /// operations whose path crosses `node`.
    Stranded {
        /// The unrecoverable node.
        node: NodeRef,
        /// Its dead worker.
        worker: ProcessorId,
    },
}

/// The recovery directory of one engine fleet; see the module docs.
#[derive(Debug, Clone)]
pub struct Directory<O: RootObject> {
    topo: Arc<Topology>,
    /// One record per inner node, in flat order.
    nodes: Vec<NodeState>,
    pool_policy: PoolPolicy,
    /// Whether the engines persist the root (and a root recovery is
    /// answered with a restore from the shadow).
    persist: bool,
    /// Stable-storage shadow of the root object (updated on every
    /// persist effect; survives any crash by construction).
    stable_object: O,
    /// Stable-storage shadow of the root's reply cache: its last
    /// [`REPLY_CACHE_CAP`](crate::REPLY_CACHE_CAP) entries, oldest first.
    stable_replies: VecDeque<(u64, O::Response)>,
}

impl<O: RootObject> Directory<O> {
    /// The directory of a fleet freshly seeded for `topo` under `config`,
    /// hosting `object` at the root.
    #[must_use]
    pub fn new(topo: Arc<Topology>, config: &EngineConfig, object: O) -> Self {
        let nodes = topo.nodes().map(|n| NodeState::new(topo.initial_worker(n))).collect();
        Directory {
            topo,
            nodes,
            pool_policy: config.pool_policy,
            persist: config.persist,
            stable_object: object,
            stable_replies: VecDeque::new(),
        }
    }

    /// The record of the node with flat index `flat`.
    #[must_use]
    pub fn node(&self, flat: usize) -> &NodeState {
        &self.nodes[flat]
    }

    /// The hosted object as stable storage last saw it.
    #[must_use]
    pub(crate) fn object(&self) -> &O {
        &self.stable_object
    }

    /// The root's replies as stable storage last saw them, oldest first.
    #[cfg(test)]
    pub(crate) fn stable_replies(&self) -> impl Iterator<Item = &(u64, O::Response)> {
        self.stable_replies.iter()
    }

    /// Folds one engine effect into the registry and the stable-storage
    /// shadow; effects that are not recovery transitions pass unseen. A
    /// root recovery under a persisting config returns the
    /// [`Event::Restore`] the driver must feed, before any further
    /// delivery, to the new worker it names.
    pub fn observe(&mut self, effect: Effect<O>) -> Option<(ProcessorId, Event<O>)> {
        match effect {
            // The worker switches only when the successor installs.
            Effect::Retired { node, successor } => {
                let st = self.state_mut(node);
                st.pool_cursor += 1;
                (st.handing_off, st.pending_worker) = (true, Some(successor));
            }
            // Cancels any handoff the dead worker left in flight; a
            // repeated promotion (the retry path when rebuild traffic is
            // itself lost) just re-registers the successor.
            Effect::RecoveryStarted { node, successor } => {
                let st = self.state_mut(node);
                (st.handing_off, st.recovering, st.pending_worker) = (false, true, Some(successor));
            }
            // A handoff leaves a recovery in flight open.
            Effect::Installed { node, worker, pool_cursor } => {
                let st = self.state_mut(node);
                *st =
                    NodeState { pool_cursor, recovering: st.recovering, ..NodeState::new(worker) };
            }
            Effect::Recovered { node, worker, pool_cursor } => {
                *self.state_mut(node) = NodeState { pool_cursor, ..NodeState::new(worker) };
                if node == NodeRef::ROOT && self.persist {
                    let object = self.stable_object.clone();
                    let reply_cache = self.stable_replies.iter().cloned().collect();
                    return Some((worker, Event::Restore { node, object, reply_cache }));
                }
            }
            Effect::Persist { object, op_seq, resp, .. } => {
                self.stable_object = object;
                push_capped(&mut self.stable_replies, (op_seq, resp));
            }
            Effect::Send { .. } | Effect::Reply { .. } | Effect::Audit(_) => {}
        }
        None
    }

    fn state_mut(&mut self, node: NodeRef) -> &mut NodeState {
        &mut self.nodes[self.topo.flat_index(node)]
    }

    /// The inner nodes an operation from `initiator` climbs, leaf-parent
    /// to root.
    #[must_use]
    pub fn op_path(&self, initiator: ProcessorId) -> Vec<NodeRef> {
        let leaf_parent = self.topo.leaf_parent(initiator.index() as u64);
        std::iter::successors(Some(leaf_parent), |&n| self.topo.parent(n)).collect()
    }

    /// The processor `node` is currently reachable at: its registry
    /// worker, or — mid-recovery — the successor being promoted for it.
    #[must_use]
    pub fn reachable_worker(&self, node: NodeRef) -> ProcessorId {
        let st = &self.nodes[self.topo.flat_index(node)];
        if st.recovering {
            st.pending_worker.unwrap_or(st.worker)
        } else {
            st.worker
        }
    }

    /// The node's inner neighbours (parent plus inner children) with the
    /// worker each is currently reachable at. Pools overlap along root
    /// paths, so one crash can take out a whole ancestor chain; any pool
    /// member can answer a rebuild query, since a share's content is the
    /// neighbour's own identity.
    fn neighbour_workers(&self, node: NodeRef) -> Vec<(NodeRef, ProcessorId)> {
        let topo = &self.topo;
        topo.parent(node)
            .into_iter()
            .chain(topo.inner_children(node).into_iter().flatten())
            .map(|neighbour| (neighbour, self.reachable_worker(neighbour)))
            .collect()
    }

    /// The next live processor of `node`'s pool, if one is left. A
    /// recovery or handoff already in flight keeps its successor (the
    /// promote is a restart or rescue, not a new promotion).
    fn live_successor(
        &self,
        node: NodeRef,
        st: &NodeState,
        is_crashed: &impl Fn(ProcessorId) -> bool,
    ) -> Option<ProcessorId> {
        if st.recovering || st.handing_off {
            if let Some(p) = st.pending_worker.filter(|&p| !is_crashed(p)) {
                return Some(p);
            }
        }
        let pool = self.topo.pool(node);
        let size = pool.end - pool.start;
        let steps = match self.pool_policy {
            // One-shot pools never reuse an id: only indices past the
            // cursor are eligible.
            PoolPolicy::OneShot => size.saturating_sub(st.pool_cursor + 1),
            // Recycling pools wrap; every index but the current one is
            // eligible.
            PoolPolicy::Recycling => size.saturating_sub(1),
        };
        (1..=steps)
            .map(|step| ProcessorId::new((pool.start + (st.pool_cursor + step) % size) as usize))
            .find(|&p| !is_crashed(p))
    }

    /// The watchdog's repair pass at quiescence, in flat order (root
    /// first: a crashed parent must be repaired for its children's
    /// rebuild queries to be answerable). Every node whose worker is
    /// down, whose handoff stalled (quiescent while the state-bearing
    /// final is still unaccounted for — the successor either died or
    /// never got it), or whose recovery stalled (quiescent while still
    /// collecting shares) yields a [`Repair`]; quiescence with the
    /// transfer still open *is* the timeout. A stalled recovery with no
    /// live successor and a live worker yields nothing.
    #[must_use]
    pub fn repair_plan(&self, is_crashed: impl Fn(ProcessorId) -> bool) -> Vec<Repair<O>> {
        let mut plan = Vec::new();
        for (flat, st) in self.nodes.iter().enumerate() {
            let worker_dead = is_crashed(st.worker);
            if !worker_dead && !st.handing_off && !st.recovering {
                continue;
            }
            let node = self.topo.node_at(flat);
            // The promote carries the registry's view of the node's
            // neighbourhood: the successor's own routing view died with
            // the old worker, so the promote must tell it where to send
            // its rebuild queries.
            let promote = || Msg::RecoverPromote { node, neighbours: self.neighbour_workers(node) };
            plan.push(match self.live_successor(node, st, &is_crashed) {
                Some(at) => Repair::Promote { at, promote: promote() },
                None if worker_dead => Repair::Stranded { node, worker: st.worker },
                None if st.handing_off => Repair::Rescue { at: st.worker, promote: promote() },
                None => continue,
            });
        }
        plan
    }

    /// Repairs stale engine routing along an operation's `path`: for each
    /// path node with a parent and a live worker, a [`Msg::NewWorker`]
    /// self-message for that worker re-announcing the parent's current
    /// worker. Engines route with strictly local knowledge, so a
    /// `NewWorker` lost to a drop or a crash leaves the engine below
    /// forwarding to a dead processor indefinitely; the directory
    /// re-seeds that knowledge. At most `k + 1` messages per call; a dead
    /// worker is [`Directory::repair_plan`]'s case.
    #[must_use]
    pub fn path_refresh(
        &self,
        path: &[NodeRef],
        is_crashed: impl Fn(ProcessorId) -> bool,
    ) -> Vec<(ProcessorId, Msg<O>)> {
        path.iter()
            .filter_map(|&node| {
                let parent = self.topo.parent(node)?;
                let worker = self.reachable_worker(node);
                let new_worker = self.reachable_worker(parent);
                (!is_crashed(worker))
                    .then_some((worker, Msg::NewWorker { node, retired: parent, new_worker }))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::CounterObject;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn the_registry_follows_retire_recover_and_install() {
        let topo = Arc::new(Topology::new(2).expect("k=2"));
        let mut dir =
            Directory::new(Arc::clone(&topo), &EngineConfig::paper(2), CounterObject::new());
        let (root, w0) = (NodeRef::ROOT, topo.initial_worker(NodeRef::ROOT));
        let state = |worker, pool_cursor, handing_off, pending_worker, recovering| NodeState {
            worker,
            pool_cursor,
            handing_off,
            pending_worker,
            recovering,
        };
        assert_eq!(*dir.node(0), state(w0, 0, false, None, false));
        // The worker switches only when the successor installs.
        dir.observe(Effect::Retired { node: root, successor: p(1) });
        assert_eq!(*dir.node(0), state(w0, 1, true, Some(p(1)), false));
        // The old worker dies mid-handoff; the watchdog promotes p(2),
        // cancelling the handoff. A repeated promotion re-registers it.
        for _ in 0..2 {
            dir.observe(Effect::RecoveryStarted { node: root, successor: p(2) });
            assert_eq!(*dir.node(0), state(w0, 1, false, Some(p(2)), true));
        }
        assert_eq!(dir.reachable_worker(root), p(2), "mid-recovery, reachable at the successor");
        // The stale handoff installs anyway: the recovery stays open.
        dir.observe(Effect::Installed { node: root, worker: p(1), pool_cursor: 1 });
        assert_eq!(*dir.node(0), state(p(1), 1, false, None, true));
        dir.observe(Effect::Recovered { node: root, worker: p(2), pool_cursor: 2 });
        assert_eq!(*dir.node(0), state(p(2), 2, false, None, false));
    }

    /// A plan outcome for one node, reduced to what the table compares.
    #[derive(Debug, PartialEq, Eq)]
    enum Want {
        Promote(u64),
        Rescue(u64),
        Stranded,
    }

    #[test]
    fn the_repair_plan_promotes_rescues_or_strands() {
        let topo = Arc::new(Topology::new(2).expect("k=2"));
        let root = NodeRef::ROOT;
        let leaf_parent = NodeRef { level: 2, index: 0 }; // singleton pool
        let (rp, lp) = (topo.pool(root), topo.pool(leaf_parent));
        assert!(rp.end - rp.start >= 3 && lp.end - lp.start == 1);
        let at = |i: u64| p(i as usize);
        let pool_cursor = rp.end - rp.start - 1;
        let last = at(rp.end - 1);
        // (case, pool policy, effects observed, crashed, node, outcome).
        let cases = [
            (
                "a dead worker with a live successor is promoted there",
                PoolPolicy::OneShot,
                vec![],
                vec![at(rp.start)],
                root,
                Want::Promote(rp.start + 1),
            ),
            (
                "an in-flight pending worker is kept",
                PoolPolicy::OneShot,
                vec![Effect::RecoveryStarted { node: root, successor: at(rp.start + 2) }],
                vec![at(rp.start)],
                root,
                Want::Promote(rp.start + 2),
            ),
            (
                "a drained pool with a live retiring worker is rescued at the old worker",
                PoolPolicy::OneShot,
                vec![Effect::Retired { node: leaf_parent, successor: at(rp.start) }],
                vec![at(rp.start)],
                leaf_parent,
                Want::Rescue(lp.start),
            ),
            (
                "a drained pool with a dead worker is stranded",
                PoolPolicy::OneShot,
                vec![],
                vec![at(lp.start)],
                leaf_parent,
                Want::Stranded,
            ),
            (
                "a recycling pool wraps past its last member",
                PoolPolicy::Recycling,
                vec![Effect::Installed { node: root, worker: last, pool_cursor }],
                vec![last],
                root,
                Want::Promote(rp.start),
            ),
            (
                "a one-shot pool does not wrap",
                PoolPolicy::OneShot,
                vec![Effect::Installed { node: root, worker: last, pool_cursor }],
                vec![last],
                root,
                Want::Stranded,
            ),
        ];
        for (case, pool_policy, effects, crashed, node, want) in cases {
            let config = EngineConfig { pool_policy, ..EngineConfig::paper(2) };
            let mut dir = Directory::new(Arc::clone(&topo), &config, CounterObject::new());
            for effect in effects {
                assert!(dir.observe(effect).is_none(), "{case}");
            }
            let plan = dir.repair_plan(|q| crashed.contains(&q));
            let got: Vec<(NodeRef, Want)> = plan
                .into_iter()
                .map(|repair| match repair {
                    Repair::Promote { at, promote: Msg::RecoverPromote { node, .. } } => {
                        (node, Want::Promote(at.index() as u64))
                    }
                    Repair::Rescue { at, promote: Msg::RecoverPromote { node, .. } } => {
                        (node, Want::Rescue(at.index() as u64))
                    }
                    Repair::Stranded { node, .. } => (node, Want::Stranded),
                    other => panic!("{case}: not a promote: {other:?}"),
                })
                .collect();
            let mine: Vec<&Want> = got.iter().filter(|(n, _)| *n == node).map(|(_, w)| w).collect();
            assert_eq!(mine, [&want], "{case}: {got:?}");
        }
    }

    #[test]
    fn a_root_recovery_restores_from_stable_storage_only_when_persisting() {
        let topo = Arc::new(Topology::new(2).expect("k=2"));
        let worker = p(1);
        for persist in [false, true] {
            let config = EngineConfig { persist, ..EngineConfig::paper(2) };
            let mut dir = Directory::new(Arc::clone(&topo), &config, CounterObject::new());
            let mut object = CounterObject::new();
            object.apply_batch((), 3);
            let persist_fx = Effect::Persist { node: NodeRef::ROOT, object, op_seq: 0, resp: 0 };
            assert!(dir.observe(persist_fx).is_none());
            assert_eq!(dir.object().value(), 3);
            let recovered = Effect::Recovered { node: NodeRef::ROOT, worker, pool_cursor: 1 };
            let restore = dir.observe(recovered);
            assert_eq!(dir.node(0).worker, worker);
            match restore {
                Some((to, Event::Restore { object, reply_cache, .. })) => {
                    assert!(persist);
                    assert_eq!((to, object.value(), reply_cache), (worker, 3, vec![(0, 0)]));
                }
                None => assert!(!persist),
                Some(other) => panic!("not a restore: {other:?}"),
            }
        }
    }

    #[test]
    fn a_root_restore_carries_the_newest_replies_up_to_the_cap() {
        let topo = Arc::new(Topology::new(2).expect("k=2"));
        let config = EngineConfig { persist: true, ..EngineConfig::paper(2) };
        let cap = crate::REPLY_CACHE_CAP as u64;
        let mut dir = Directory::new(Arc::clone(&topo), &config, CounterObject::new());
        let mut object = CounterObject::new();
        for op_seq in 0..cap + 50 {
            let resp = object.apply(());
            let persist =
                Effect::Persist { node: NodeRef::ROOT, object: object.clone(), op_seq, resp };
            assert!(dir.observe(persist).is_none());
            assert!(dir.stable_replies.len() as u64 <= cap, "op {op_seq}: within the cap");
        }
        let recovered = Effect::Recovered { node: NodeRef::ROOT, worker: p(1), pool_cursor: 1 };
        match dir.observe(recovered) {
            Some((_, Event::Restore { object, reply_cache, .. })) => {
                assert_eq!(object.value(), cap + 50);
                let newest: Vec<(u64, u64)> = (50..cap + 50).map(|s| (s, s)).collect();
                assert_eq!(reply_cache, newest, "the last `cap` replies, oldest first");
            }
            other => panic!("not a restore: {other:?}"),
        }
    }
}
