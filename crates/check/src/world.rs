//! The checker's world: a fleet of [`NodeEngine`]s plus the in-flight
//! message multiset, driven one delivery (or crash) at a time.
//!
//! The world is the *driver* seen by the engines — the same role the
//! simulator's `TreeProtocol` and the threaded backend's worker loop
//! play — but written for exhaustive exploration: it is cheap to clone,
//! every transition is explicit, and every observable the invariants
//! need (values, loads, retirements, contact sets, per-node hosting) is
//! tracked as the effects stream by. Fault semantics mirror the other
//! drivers exactly: a crash purges the victim's inbox (dead letters),
//! drops its future traffic, and resets its engine to factory state.
//! The registry, the stable storage and the client watchdog's repair
//! plan are the simulator's own: the world owns one
//! [`Directory`], feeds it the recovery effects, and at quiescence
//! injects what its plan yields.

use std::collections::BTreeSet;
use std::sync::Arc;

use distctr_core::engine::{
    seed_initial_hosting, AuditEvent, Effect, Effects, EngineConfig, Event, Hosted, NodeEngine,
};
use distctr_core::node::{Directory, Repair};
use distctr_core::{CounterMsg, CounterObject, Msg, NodeRef, Topology};
use distctr_sim::ProcessorId;

use crate::config::{CheckConfig, Mutation, Workload};
use crate::schedule::TransKey;

/// Watchdog rounds before an incomplete operation is given up on —
/// mirrors `TreeClient::MAX_RECOVERY_ATTEMPTS`.
pub const MAX_WATCHDOG_ROUNDS: u32 = 25;

/// One message in flight. The `seq` is assigned at send time in
/// deterministic emission order, so a schedule of seqs identifies the
/// same message across replays of the same prefix.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub seq: u64,
    pub from: ProcessorId,
    pub to: ProcessorId,
    /// Workload op this message is causally attributed to (contact
    /// sets); `None` only for traffic predating op injection.
    pub op: Option<usize>,
    pub msg: CounterMsg,
}

/// The checker's view of one workload operation.
#[derive(Debug, Clone)]
pub struct OpState {
    /// Initiating processor.
    pub initiator: usize,
    /// Increments this op performs: 1 for a unit inc, `m > 1` for a
    /// batch reserving the contiguous range `[value, value + m)`.
    pub count: u64,
    /// Whether the op has been injected yet (sequential workloads defer).
    pub injected: bool,
    /// Step at which the op was first injected.
    pub started_step: Option<u64>,
    /// Step at which the initiator received the response.
    pub completed_step: Option<u64>,
    /// The response value.
    pub value: Option<u64>,
    /// Watchdog re-injections.
    pub attempts: u32,
    /// The watchdog proved the op unrecoverable (initiator dead, or a
    /// path node's pool ran out of live successors).
    pub abandoned: bool,
}

impl OpState {
    /// Injected, not answered, and not given up on.
    fn is_open(&self) -> bool {
        self.injected && self.completed_step.is_none() && !self.abandoned
    }
}

/// What a quiescent state turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiescence {
    /// The world injected more work (next sequential op, or a watchdog
    /// repair round); exploration continues.
    Continued,
    /// Terminal: nothing in flight and nothing left to inject — the
    /// state invariants are evaluated here.
    Final,
}

/// The explorable state: engines + in-flight messages + fault state +
/// observables. Cloned at every branch point.
#[derive(Debug, Clone)]
pub struct World {
    cfg: Arc<CheckConfig>,
    topo: Arc<Topology>,
    engine_cfg: EngineConfig,
    engines: Vec<NodeEngine<CounterObject>>,
    in_flight: Vec<InFlight>,
    next_seq: u64,
    now: u64,
    deliveries: u64,
    crashed: Vec<bool>,
    crash_budget_left: u32,
    scripted_fired: Vec<bool>,
    directory: Directory<CounterObject>,
    next_op: usize,
    ops: Vec<OpState>,
    watchdog_rounds: u32,
    loads: Vec<u64>,
    contact: Vec<BTreeSet<usize>>,
    retire_events: Vec<(usize, u64)>,
    installs: Vec<(usize, u64)>,
    root_holders: BTreeSet<usize>,
    retirements: u64,
    shim_forwards: u64,
    recovery_msgs: u64,
    recoveries: u64,
    dead_letters: u64,
    lost: u64,
}

impl World {
    /// A fresh world for `cfg`: topology built, hosting seeded,
    /// concurrent workloads already in flight.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is malformed (size beyond the
    /// supported orders, initiator or crash candidate out of range).
    #[must_use]
    pub fn new(cfg: &CheckConfig) -> Self {
        let topo = Arc::new(Topology::new(cfg.order()).expect("supported order"));
        let n = usize::try_from(topo.processors()).expect("n fits usize");
        let engine_cfg = cfg.engine_config();
        let mut engines: Vec<NodeEngine<CounterObject>> = (0..n)
            .map(|p| NodeEngine::new(ProcessorId::new(p), Arc::clone(&topo), engine_cfg))
            .collect();
        let object = CounterObject::new();
        seed_initial_hosting(&topo, &mut engines, &object);
        let directory = Directory::new(Arc::clone(&topo), &engine_cfg, object);
        let warm = cfg.warmup_ops.len();
        let all_initiators: Vec<usize> =
            cfg.warmup_ops.iter().chain(cfg.workload.initiators()).copied().collect();
        for (i, &p) in all_initiators.iter().enumerate() {
            assert!(p < n, "initiator {p} out of range (op {i}, n = {n})");
        }
        for &p in &cfg.crash_candidates {
            assert!(p < n, "crash candidate {p} out of range (n = {n})");
        }
        let ops = all_initiators
            .iter()
            .enumerate()
            .map(|(i, &p)| OpState {
                initiator: p,
                // Batch counts pair with *workload* ops; warm-up ops
                // (indices below `warm`) are always unit increments.
                count: i
                    .checked_sub(warm)
                    .and_then(|w| cfg.op_counts.get(w).copied())
                    .unwrap_or(1)
                    .max(1),
                injected: false,
                started_step: None,
                completed_step: None,
                value: None,
                attempts: 0,
                abandoned: false,
            })
            .collect();
        let root0 = topo.initial_worker(NodeRef::ROOT).index();
        let mut world = World {
            cfg: Arc::new(cfg.clone()),
            topo,
            engine_cfg,
            engines,
            in_flight: Vec::new(),
            next_seq: 0,
            now: 0,
            deliveries: 0,
            crashed: vec![false; n],
            crash_budget_left: cfg.crash_budget,
            scripted_fired: vec![false; cfg.scripted_crashes.len()],
            directory,
            next_op: 0,
            ops,
            watchdog_rounds: 0,
            loads: vec![0; n],
            contact: vec![BTreeSet::new(); all_initiators.len()],
            retire_events: Vec::new(),
            installs: Vec::new(),
            root_holders: BTreeSet::from([root0]),
            retirements: 0,
            shim_forwards: 0,
            recovery_msgs: 0,
            recoveries: 0,
            dead_letters: 0,
            lost: 0,
        };
        world.fire_scripted_crashes(); // plans with after_deliveries = 0
                                       // Warm-up: deterministic sequential FIFO rounds, no branching.
        for i in 0..warm {
            world.inject_op(i);
            while !world.is_quiescent() {
                world.deliver_oldest();
            }
        }
        if matches!(world.cfg.workload, Workload::Concurrent(_)) {
            for i in warm..world.ops.len() {
                world.inject_op(i);
            }
        } else if warm < world.ops.len() {
            world.inject_op(warm);
        }
        world
    }

    // --- exploration interface ------------------------------------------

    /// Nothing in flight?
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The transitions available from this state, in deterministic
    /// order: one delivery per in-flight message, then (budget and
    /// candidates permitting) one crash per live candidate. Deliveries
    /// come first so a truncated depth-first search reaches crash
    /// branches through their *smallest* subtrees (crashes near trace
    /// ends) and sweeps the crash-victim × crash-timing space while
    /// backtracking, instead of drowning in the first victim's
    /// recovery permutations.
    pub(crate) fn enabled(&self) -> Vec<TransKey> {
        let mut v: Vec<TransKey> = self
            .in_flight
            .iter()
            .map(|m| TransKey::Deliver { seq: m.seq, to: m.to.index() })
            .collect();
        if self.crash_budget_left > 0 {
            v.extend(
                self.cfg
                    .crash_candidates
                    .iter()
                    .filter(|&&p| !self.crashed[p])
                    .map(|&p| TransKey::Crash { p }),
            );
        }
        v
    }

    /// Executes one transition. Returns `false` if it is not currently
    /// feasible (replay of a minimized schedule skips such choices).
    pub(crate) fn execute(&mut self, key: TransKey) -> bool {
        match key {
            TransKey::Deliver { seq, .. } => {
                let Some(idx) = self.in_flight.iter().position(|m| m.seq == seq) else {
                    return false;
                };
                self.deliver_at(idx);
                true
            }
            TransKey::Crash { p } => {
                if self.crashed[p] {
                    return false;
                }
                self.crash_budget_left = self.crash_budget_left.saturating_sub(1);
                self.crash(p);
                true
            }
        }
    }

    /// Delivers the oldest in-flight message (deterministic drain order
    /// for replay tails).
    pub(crate) fn deliver_oldest(&mut self) {
        let idx = self
            .in_flight
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.seq)
            .map(|(i, _)| i)
            .expect("not quiescent");
        self.deliver_at(idx);
    }

    /// Handles a quiescent state: next sequential op, watchdog repair,
    /// or terminal.
    pub(crate) fn on_quiescence(&mut self) -> Quiescence {
        debug_assert!(self.is_quiescent());
        if self.ops.iter().any(OpState::is_open) {
            if self.cfg.watchdog && self.watchdog_rounds < MAX_WATCHDOG_ROUNDS {
                self.watchdog_rounds += 1;
                if self.watchdog_round() {
                    return Quiescence::Continued;
                }
            }
            return Quiescence::Final;
        }
        while self.next_op < self.ops.len() {
            let i = self.next_op;
            self.inject_op(i);
            if !self.is_quiescent() {
                return Quiescence::Continued;
            }
        }
        Quiescence::Final
    }

    /// A deterministic fingerprint of the protocol state: every engine's
    /// [`NodeEngine::fingerprint`] plus the crash pattern. Comparable
    /// across drivers via [`combined_fingerprint`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let fps: Vec<u64> = self.engine_fingerprints();
        combined_fingerprint(&fps, &self.crashed)
    }

    /// Per-processor engine fingerprints.
    #[must_use]
    pub fn engine_fingerprints(&self) -> Vec<u64> {
        self.engines.iter().map(NodeEngine::fingerprint).collect()
    }

    /// The whole-system fingerprint: [`World::fingerprint`] (engines +
    /// crash pattern) extended with the client-visible operation state
    /// (injection, value, retry count, abandonment). Two quiescent
    /// states that agree on protocol internals but differ in what the
    /// clients observed are different system states; this is the
    /// fingerprint the checker's distinct-quiescent-state count uses.
    #[must_use]
    pub fn full_fingerprint(&self) -> u64 {
        let mut h = self.fingerprint();
        for o in &self.ops {
            let v = o.value.map_or(0, |v| v + 2) + u64::from(o.injected);
            for word in [v, u64::from(o.attempts), u64::from(o.abandoned)] {
                h ^= word.wrapping_add(0x9e37_79b9_7f4a_7c15);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    // --- observables for invariants -------------------------------------

    /// The configuration this world runs.
    #[must_use]
    pub fn config(&self) -> &CheckConfig {
        &self.cfg
    }

    /// The tree topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Per-op states, in workload order.
    #[must_use]
    pub fn ops(&self) -> &[OpState] {
        &self.ops
    }

    /// Per-processor message loads (sends + receives).
    #[must_use]
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Crash flags per processor.
    #[must_use]
    pub fn crashed(&self) -> &[bool] {
        &self.crashed
    }

    /// Contact set of op `i`: processors that sent or received any of
    /// its (causally attributed) messages.
    #[must_use]
    pub fn contact_set(&self, i: usize) -> &BTreeSet<usize> {
        &self.contact[i]
    }

    /// Every `Retired` effect seen, as `(flat node index, pool cursor of
    /// the retiring stint)`.
    #[must_use]
    pub fn retire_events(&self) -> &[(usize, u64)] {
        &self.retire_events
    }

    /// Every `Installed` effect seen, as `(flat node index, pool
    /// cursor)`.
    #[must_use]
    pub fn installs(&self) -> &[(usize, u64)] {
        &self.installs
    }

    /// Every processor that held the root node at any point in the run
    /// — the "hot spot" chain the bottleneck argument is about. Grows
    /// by one per root handoff or recovery.
    #[must_use]
    pub fn root_holders(&self) -> &BTreeSet<usize> {
        &self.root_holders
    }

    /// Live engines currently hosting `node`.
    #[must_use]
    pub fn hosts_of(&self, node: NodeRef) -> Vec<usize> {
        self.engines
            .iter()
            .enumerate()
            .filter(|(p, e)| !self.crashed[*p] && e.hosts(node))
            .map(|(p, _)| p)
            .collect()
    }

    /// Recovery slack terms of the fault-aware load bound, mirroring the
    /// chaos grid's accounting: audited recovery messages, completed
    /// recoveries, and watchdog re-injections.
    #[must_use]
    pub fn fault_slack(&self) -> u64 {
        let k = u64::from(self.topo.order());
        let retries: u64 = self.ops.iter().map(|o| u64::from(o.attempts.saturating_sub(1))).sum();
        self.recovery_msgs + self.recoveries * (k + 1) + retries * 2 * (k + 2)
    }

    /// Ordinary retirements so far (audit events).
    #[must_use]
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    /// Messages dropped for lost state or routing (audit events).
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Messages addressed to crashed processors.
    #[must_use]
    pub fn dead_letters(&self) -> u64 {
        self.dead_letters
    }

    /// Network-wide deliveries so far.
    #[must_use]
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    // --- internals -------------------------------------------------------

    fn inject_op(&mut self, i: usize) {
        debug_assert_eq!(i, self.next_op);
        self.next_op += 1;
        let op = &mut self.ops[i];
        op.injected = true;
        op.started_step = Some(self.now);
        op.attempts = 1;
        let initiator = op.initiator;
        if self.crashed[initiator] {
            self.ops[i].abandoned = true;
            return;
        }
        let entry = self.directory.reachable_worker(self.topo.leaf_parent(initiator as u64));
        self.send_entry(i, entry);
    }

    /// Sends op `i` into the tree at `entry`: one `Apply` carrying the
    /// op's count. A watchdog re-injection repeats the *same* op_seq and
    /// count, so the root's reply cache answers retries with the
    /// original range.
    fn send_entry(&mut self, i: usize, entry: ProcessorId) {
        let OpState { initiator, count, .. } = self.ops[i];
        let node = self.topo.leaf_parent(initiator as u64);
        let origin = ProcessorId::new(initiator);
        let msg = Msg::Apply { node, origin, op_seq: i as u64, count, req: () };
        self.send(origin, entry, Some(i), msg);
    }

    fn deliver_at(&mut self, idx: usize) {
        let m = self.in_flight.remove(idx);
        debug_assert!(!self.crashed[m.to.index()], "no deliveries to crashed processors");
        self.now += 1;
        self.deliveries += 1;
        self.loads[m.to.index()] += 1;
        if let Some(op) = m.op {
            self.contact[op].insert(m.from.index());
            self.contact[op].insert(m.to.index());
        }
        let mut fx = Vec::new();
        self.engines[m.to.index()].on_event_into(Event::Deliver { msg: m.msg }, &mut fx);
        self.apply_effects(m.to, m.op, fx);
        self.fire_scripted_crashes();
    }

    fn apply_effects(&mut self, at: ProcessorId, op: Option<usize>, fx: Effects<CounterObject>) {
        // Seeded-bug hook: a `Retired` effect resurrects the node at the
        // retiring worker, rebuilt from the state the handoff carries.
        let resurrections: Vec<(NodeRef, Hosted<CounterObject>)> =
            if self.cfg.mutation == Some(Mutation::ResurrectRetired) {
                fx.iter()
                    .filter_map(|e| match e {
                        Effect::Send { msg: Msg::HandoffFinal { transfer }, .. } => Some((
                            transfer.node,
                            Hosted {
                                age: 0,
                                pool_cursor: transfer.pool_cursor.saturating_sub(1),
                                parent_worker: transfer.parent_worker,
                                child_workers: transfer.child_workers.clone(),
                                object: transfer.object.clone(),
                                reply_cache: transfer.reply_cache.clone(),
                            },
                        )),
                        _ => None,
                    })
                    .collect()
            } else {
                Vec::new()
            };
        for effect in fx {
            match effect {
                Effect::Send { to, msg } => self.send(at, to, op, msg),
                Effect::Reply { op_seq, resp } => {
                    let o = &mut self.ops[usize::try_from(op_seq).expect("op fits usize")];
                    if o.completed_step.is_none() {
                        o.completed_step = Some(self.now);
                        o.value = Some(resp);
                    }
                }
                Effect::Audit(ev) => match ev {
                    AuditEvent::Retirement { .. } => self.retirements += 1,
                    AuditEvent::ShimForward => self.shim_forwards += 1,
                    AuditEvent::RecoveryMsgs { count } => self.recovery_msgs += count,
                    AuditEvent::Lost => self.lost += 1,
                    _ => {}
                },
                effect => {
                    self.record(&effect);
                    // Stable storage restores a recovered root's object
                    // at the new worker, as in the simulator driver.
                    if let Some((worker, restore)) = self.directory.observe(effect) {
                        let mut fx2 = Vec::new();
                        self.engines[worker.index()].on_event_into(restore, &mut fx2);
                        self.apply_effects(worker, op, fx2);
                    }
                }
            }
        }
        for (node, hosted) in resurrections {
            self.engines[at.index()].install(node, hosted);
        }
    }

    /// The checker's own observers of the recovery effects, recorded
    /// before the directory sees them.
    fn record(&mut self, effect: &Effect<CounterObject>) {
        match *effect {
            Effect::Retired { node, .. } => {
                let flat = self.topo.flat_index(node);
                self.retire_events.push((flat, self.directory.node(flat).pool_cursor));
            }
            Effect::Installed { node, pool_cursor, .. } => {
                self.installs.push((self.topo.flat_index(node), pool_cursor));
            }
            Effect::Recovered { .. } => self.recoveries += 1,
            _ => {}
        }
        if let Effect::Installed { node: NodeRef::ROOT, worker, .. }
        | Effect::Recovered { node: NodeRef::ROOT, worker, .. } = *effect
        {
            self.root_holders.insert(worker.index());
        }
    }

    fn send(&mut self, from: ProcessorId, to: ProcessorId, op: Option<usize>, msg: CounterMsg) {
        self.loads[from.index()] += 1;
        if self.crashed[to.index()] {
            self.dead_letters += 1;
            return;
        }
        self.in_flight.push(InFlight { seq: self.next_seq, from, to, op, msg });
        self.next_seq += 1;
    }

    pub(crate) fn crash(&mut self, p: usize) {
        if self.crashed[p] {
            return;
        }
        self.crashed[p] = true;
        let before = self.in_flight.len();
        self.in_flight.retain(|m| m.to.index() != p);
        self.dead_letters += (before - self.in_flight.len()) as u64;
        // Fail-silent, no stable state: the engine restarts blank, like
        // the threaded backend's crashed worker.
        self.engines[p] =
            NodeEngine::new(ProcessorId::new(p), Arc::clone(&self.topo), self.engine_cfg);
    }

    fn fire_scripted_crashes(&mut self) {
        for i in 0..self.cfg.scripted_crashes.len() {
            let (p, after) = self.cfg.scripted_crashes[i];
            if !self.scripted_fired[i] && self.deliveries >= after {
                self.scripted_fired[i] = true;
                self.crash(p);
            }
        }
    }

    // --- watchdog --------------------------------------------------------

    /// One repair pass at quiescence, as the sim client's watchdog: inject
    /// the directory's repair plan (a stranded node abandons every open
    /// operation whose path crosses it), re-send every incomplete
    /// operation, and from the second attempt on re-advertise its path
    /// routing. Returns whether anything was injected.
    fn watchdog_round(&mut self) -> bool {
        let mut injected = false;
        for repair in self.directory.repair_plan(|p| self.crashed[p.index()]) {
            match repair {
                Repair::Promote { at, promote } | Repair::Rescue { at, promote } => {
                    let first_open = self.ops.iter().position(OpState::is_open);
                    self.send(at, at, first_open, promote);
                    injected = true;
                }
                Repair::Stranded { node, .. } => {
                    for o in &mut self.ops {
                        let initiator = ProcessorId::new(o.initiator);
                        if o.is_open() && self.directory.op_path(initiator).contains(&node) {
                            o.abandoned = true;
                        }
                    }
                }
            }
        }
        for i in 0..self.ops.len() {
            if !self.ops[i].is_open() {
                continue;
            }
            let initiator = ProcessorId::new(self.ops[i].initiator);
            if self.crashed[initiator.index()] {
                self.ops[i].abandoned = true;
                continue;
            }
            self.ops[i].attempts += 1;
            let path = self.directory.op_path(initiator);
            let entry = self.directory.reachable_worker(path[0]);
            if !self.crashed[entry.index()] {
                self.send_entry(i, entry);
                injected = true;
            }
            if self.ops[i].attempts >= 2 {
                for (at, msg) in self.directory.path_refresh(&path, |p| self.crashed[p.index()]) {
                    self.send(at, at, Some(i), msg);
                    injected = true;
                }
            }
        }
        injected
    }
}

/// Folds per-engine fingerprints and the crash pattern into one state
/// fingerprint — the same combination for every driver, so the threaded
/// backend's final state can be checked for membership in the checker's
/// quiescent set.
#[must_use]
pub fn combined_fingerprint(engine_fps: &[u64], crashed: &[bool]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &fp) in engine_fps.iter().enumerate() {
        h ^= fp.wrapping_add(i as u64);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    for &c in crashed {
        h ^= u64::from(c) + 1;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
