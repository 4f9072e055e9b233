//! The checker's world: the simulator's fleet driver over an in-flight
//! message multiset, driven one delivery (or crash) at a time.
//!
//! The world owns a [`TreeProtocol`] — the engines, the recovery
//! directory and the [`CounterAudit`] ledger the simulator drives — and
//! every delivery runs the fleet's one effect loop. What the world adds is
//! its transport, written for exhaustive exploration: the in-flight
//! multiset, whose every transition is explicit and which is cheap to
//! clone, plus the loads and op states its sends and replies charge.
//! Fault semantics mirror the other drivers exactly: a crash purges the
//! victim's inbox (dead letters), drops its future traffic, and resets
//! its engine to factory state. At quiescence the world injects what the
//! directory's repair plan yields, as the sim client's watchdog does.

use std::collections::BTreeSet;
use std::sync::Arc;

use distctr_core::audit::CounterAudit;
use distctr_core::engine::{Event, Hosted};
use distctr_core::node::Repair;
use distctr_core::protocol::{Transport, TreeProtocol};
use distctr_core::{CounterMsg, CounterObject, Msg, NodeRef, Topology};
use distctr_sim::{LoadTracker, ProcessorId};

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

/// The checker's transport: the in-flight multiset, plus what the effect
/// loop's sends and replies change — loads, dead letters, op states.
#[derive(Debug, Clone)]
struct Wire {
    msgs: Vec<InFlight>,
    next_seq: u64,
    /// Transitions so far: the step an op starts or completes at.
    now: u64,
    crashed: Vec<bool>,
    loads: LoadTracker,
    dead_letters: u64,
    ops: Vec<OpState>,
    /// The op that the sends being realized are attributed to.
    op: Option<usize>,
    /// Seeded bug [`Mutation::ResurrectRetired`] is armed.
    resurrect: bool,
    /// The handoff finals sent by the delivery being realized, as
    /// `(sender, node, state to resurrect under the seeded bug)`.
    finals: Vec<(ProcessorId, NodeRef, Option<Hosted<CounterObject>>)>,
}

impl Wire {
    /// Sends `msg` attributed to `op`.
    fn post(&mut self, from: ProcessorId, to: ProcessorId, op: Option<usize>, msg: CounterMsg) {
        self.op = op;
        self.send(from, to, msg);
    }

    /// Sends op `i` into the tree at `entry`: one `Apply` carrying the
    /// op's count. A watchdog re-injection repeats the *same* op_seq and
    /// count, so the root's reply cache answers retries with the
    /// original range.
    fn send_entry(&mut self, topo: &Topology, i: usize, entry: ProcessorId) {
        let OpState { initiator, count, .. } = self.ops[i];
        let node = topo.leaf_parent(initiator as u64);
        let origin = ProcessorId::new(initiator);
        let msg = Msg::Apply { node, origin, op_seq: i as u64, count, req: () };
        self.post(origin, entry, Some(i), msg);
    }
}

impl Transport<CounterObject> for Wire {
    /// Charged to the sender before the dead-letter check: a send to a
    /// crashed processor still costs its sender.
    fn send(&mut self, from: ProcessorId, to: ProcessorId, msg: CounterMsg) {
        self.loads.record_send(from);
        if let Msg::HandoffFinal { transfer } = &msg {
            // The seeded bug keeps the node at the retiring worker,
            // rebuilt from the state the handoff carries.
            let zombie = self.resurrect.then(|| Hosted {
                age: 0,
                pool_cursor: transfer.pool_cursor.saturating_sub(1),
                parent_worker: transfer.parent_worker,
                child_workers: transfer.child_workers.clone(),
                root: transfer.root.clone(),
            });
            self.finals.push((from, transfer.node, zombie));
        }
        if self.crashed[to.index()] {
            self.dead_letters += 1;
            return;
        }
        self.msgs.push(InFlight { seq: self.next_seq, from, to, op: self.op, msg });
        self.next_seq += 1;
    }

    fn complete(&mut self, op_seq: u64, resp: u64) {
        let o = &mut self.ops[usize::try_from(op_seq).expect("op fits usize")];
        if o.completed_step.is_none() {
            o.completed_step = Some(self.now);
            o.value = Some(resp);
        }
    }
}

/// The explorable state: the fleet, its transport, fault state and
/// observables. Cloned at every branch point.
#[derive(Debug, Clone)]
pub struct World {
    cfg: Arc<CheckConfig>,
    fleet: TreeProtocol<CounterObject>,
    wire: Wire,
    deliveries: u64,
    crash_budget_left: u32,
    scripted_fired: Vec<bool>,
    next_op: usize,
    watchdog_rounds: u32,
    contact: Vec<BTreeSet<usize>>,
    retire_events: Vec<(usize, u64)>,
    installs: Vec<(usize, u64)>,
    root_holders: BTreeSet<usize>,
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
            fleet: TreeProtocol::new(topo, cfg.engine_config(), CounterObject::new()),
            wire: Wire {
                msgs: Vec::new(),
                next_seq: 0,
                now: 0,
                crashed: vec![false; n],
                loads: LoadTracker::new(n),
                dead_letters: 0,
                ops,
                op: None,
                resurrect: cfg.mutation == Some(Mutation::ResurrectRetired),
                finals: Vec::new(),
            },
            deliveries: 0,
            crash_budget_left: cfg.crash_budget,
            scripted_fired: vec![false; cfg.scripted_crashes.len()],
            next_op: 0,
            watchdog_rounds: 0,
            contact: vec![BTreeSet::new(); all_initiators.len()],
            retire_events: Vec::new(),
            installs: Vec::new(),
            root_holders: BTreeSet::from([root0]),
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
            for i in warm..world.wire.ops.len() {
                world.inject_op(i);
            }
        } else if warm < world.wire.ops.len() {
            world.inject_op(warm);
        }
        world
    }

    // --- exploration interface ------------------------------------------

    /// Nothing in flight?
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.wire.msgs.is_empty()
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
            .wire
            .msgs
            .iter()
            .map(|m| TransKey::Deliver { seq: m.seq, to: m.to.index() })
            .collect();
        if self.crash_budget_left > 0 {
            v.extend(
                self.cfg
                    .crash_candidates
                    .iter()
                    .filter(|&&p| !self.wire.crashed[p])
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
                let Some(idx) = self.wire.msgs.iter().position(|m| m.seq == seq) else {
                    return false;
                };
                self.deliver_at(idx);
                true
            }
            TransKey::Crash { p } => {
                if self.wire.crashed[p] {
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
            .wire
            .msgs
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
        if self.wire.ops.iter().any(OpState::is_open) {
            if self.cfg.watchdog && self.watchdog_rounds < MAX_WATCHDOG_ROUNDS {
                self.watchdog_rounds += 1;
                if self.watchdog_round() {
                    return Quiescence::Continued;
                }
            }
            return Quiescence::Final;
        }
        while self.next_op < self.wire.ops.len() {
            let i = self.next_op;
            self.inject_op(i);
            if !self.is_quiescent() {
                return Quiescence::Continued;
            }
        }
        Quiescence::Final
    }

    /// A deterministic fingerprint of the protocol state: every engine's
    /// [`NodeEngine::fingerprint`](distctr_core::NodeEngine::fingerprint)
    /// plus the crash pattern. Comparable across drivers via
    /// [`combined_fingerprint`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        combined_fingerprint(&self.engine_fingerprints(), &self.wire.crashed)
    }

    /// Per-processor engine fingerprints.
    #[must_use]
    pub fn engine_fingerprints(&self) -> Vec<u64> {
        self.fleet.engine_fingerprints()
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
        for o in &self.wire.ops {
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
        self.fleet.topology()
    }

    /// Per-op states, in workload order.
    #[must_use]
    pub fn ops(&self) -> &[OpState] {
        &self.wire.ops
    }

    /// Per-processor message loads (sends + receives).
    #[must_use]
    pub fn loads(&self) -> &LoadTracker {
        &self.wire.loads
    }

    /// The fleet's audit ledger.
    #[must_use]
    pub fn audit(&self) -> &CounterAudit {
        self.fleet.audit()
    }

    /// Crash flags per processor.
    #[must_use]
    pub fn crashed(&self) -> &[bool] {
        &self.wire.crashed
    }

    /// Contact set of op `i`: processors that sent or received any of
    /// its (causally attributed) messages.
    #[must_use]
    pub fn contact_set(&self, i: usize) -> &BTreeSet<usize> {
        &self.contact[i]
    }

    /// Every retirement, as `(flat node index, pool cursor of the
    /// retiring stint)`.
    #[must_use]
    pub fn retire_events(&self) -> &[(usize, u64)] {
        &self.retire_events
    }

    /// Every handoff installed, as `(flat node index, pool cursor)`.
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
        (0..self.wire.crashed.len())
            .filter(|&p| {
                !self.wire.crashed[p] && self.fleet.engine_of(ProcessorId::new(p)).hosts(node)
            })
            .collect()
    }

    /// Recovery slack terms of the fault-aware load bound, mirroring the
    /// chaos grid's accounting: the audit's recovery slack plus the
    /// watchdog's re-injections.
    #[must_use]
    pub fn fault_slack(&self) -> u64 {
        let k = u64::from(self.topology().order());
        let retries: u64 =
            self.wire.ops.iter().map(|o| u64::from(o.attempts.saturating_sub(1))).sum();
        self.audit().fault_slack() + retries * 2 * (k + 2)
    }

    /// Ordinary retirements so far (audit events).
    #[must_use]
    pub fn retirements(&self) -> u64 {
        self.audit().tally().retirements
    }

    /// Messages addressed to crashed processors.
    #[must_use]
    pub fn dead_letters(&self) -> u64 {
        self.wire.dead_letters
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
        let op = &mut self.wire.ops[i];
        op.injected = true;
        op.started_step = Some(self.wire.now);
        op.attempts = 1;
        let initiator = op.initiator;
        if self.wire.crashed[initiator] {
            self.wire.ops[i].abandoned = true;
            return;
        }
        let topo = self.fleet.topology();
        let entry = self.fleet.directory().reachable_worker(topo.leaf_parent(initiator as u64));
        self.wire.send_entry(topo, i, entry);
    }

    fn deliver_at(&mut self, idx: usize) {
        let m = self.wire.msgs.remove(idx);
        debug_assert!(!self.wire.crashed[m.to.index()], "no deliveries to crashed processors");
        self.wire.now += 1;
        self.deliveries += 1;
        self.wire.loads.record_receive(m.to);
        if let Some(op) = m.op {
            self.contact[op].insert(m.from.index());
            self.contact[op].insert(m.to.index());
        }
        // A delivered final always installs its node.
        if let Msg::HandoffFinal { transfer } = &m.msg {
            self.installs.push((self.topology().flat_index(transfer.node), transfer.pool_cursor));
        }
        self.wire.op = m.op;
        self.fleet.deliver(m.to, Event::Deliver { msg: m.msg }, &mut self.wire);
        // Each final sent went with one retirement, whose stint's pool
        // cursor the directory has just advanced past; a node retires
        // at most once per delivery, and nothing else in it moves that
        // cursor after the retirement.
        for (from, node, zombie) in std::mem::take(&mut self.wire.finals) {
            let flat = self.topology().flat_index(node);
            let cursor = self.fleet.directory().node(flat).pool_cursor;
            self.retire_events.push((flat, cursor.checked_sub(1).expect("retirement advanced it")));
            if let Some(hosted) = zombie {
                self.fleet.engine_mut(from).install(node, hosted);
            }
        }
        self.root_holders.insert(self.fleet.worker_of(NodeRef::ROOT).index());
        self.fire_scripted_crashes();
    }

    pub(crate) fn crash(&mut self, p: usize) {
        let wire = &mut self.wire;
        if wire.crashed[p] {
            return;
        }
        wire.crashed[p] = true;
        let before = wire.msgs.len();
        wire.msgs.retain(|m| m.to.index() != p);
        wire.dead_letters += (before - wire.msgs.len()) as u64;
        // Fail-silent, no stable state: the engine restarts blank, like
        // the threaded backend's crashed worker.
        self.fleet.engine_mut(ProcessorId::new(p)).reset();
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
        let (topo, directory, wire) =
            (self.fleet.topology(), self.fleet.directory(), &mut self.wire);
        for repair in directory.repair_plan(|p| wire.crashed[p.index()]) {
            match repair {
                Repair::Promote { at, promote } | Repair::Rescue { at, promote } => {
                    let first_open = wire.ops.iter().position(OpState::is_open);
                    wire.post(at, at, first_open, promote);
                    injected = true;
                }
                Repair::Stranded { node, .. } => {
                    for o in &mut wire.ops {
                        let initiator = ProcessorId::new(o.initiator);
                        if o.is_open() && directory.op_path(initiator).contains(&node) {
                            o.abandoned = true;
                        }
                    }
                }
            }
        }
        for i in 0..wire.ops.len() {
            if !wire.ops[i].is_open() {
                continue;
            }
            let initiator = ProcessorId::new(wire.ops[i].initiator);
            if wire.crashed[initiator.index()] {
                wire.ops[i].abandoned = true;
                continue;
            }
            wire.ops[i].attempts += 1;
            let path = directory.op_path(initiator);
            let entry = directory.reachable_worker(path[0]);
            if !wire.crashed[entry.index()] {
                wire.send_entry(topo, i, entry);
                injected = true;
            }
            if wire.ops[i].attempts >= 2 {
                for (at, msg) in directory.path_refresh(&path, |p| wire.crashed[p.index()]) {
                    wire.post(at, at, Some(i), msg);
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

#[cfg(test)]
impl World {
    /// Per-op states, writable: lets a test pose a history directly.
    pub(crate) fn ops_mut(&mut self) -> &mut [OpState] {
        &mut self.wire.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::sweep_cells;

    /// The ledger of each sweep cell driven FIFO to its final state — and
    /// of the crash cell with processor 0 crashing after four deliveries —
    /// as `[max load, load sum, retirements, shim forwards, recovery
    /// messages, recoveries, lost, dead letters, fault slack]`.
    const FIFO_LEDGERS: [[u64; 9]; 5] = [
        [10, 16, 0, 0, 0, 0, 0, 0, 0],
        [22, 42, 1, 0, 0, 0, 0, 0, 0],
        [24, 52, 1, 1, 0, 0, 0, 0, 0],
        [8, 16, 0, 0, 0, 0, 0, 0, 0],
        [40, 100, 1, 1, 38, 2, 0, 4, 60],
    ];

    #[test]
    fn a_fifo_run_of_each_sweep_cell_repeats_its_ledger() {
        let mut cells = sweep_cells();
        let crash_cell = cells[3].1.clone().scripted_crash(0, 4);
        cells.push(("n=8 crash after 4 deliveries", crash_cell));
        for ((name, cfg), want) in cells.into_iter().zip(FIFO_LEDGERS) {
            let mut w = World::new(&cfg);
            loop {
                while !w.is_quiescent() {
                    w.deliver_oldest();
                }
                if w.on_quiescence() == Quiescence::Final {
                    break;
                }
            }
            let (loads, audit) = (w.loads(), w.audit());
            let got = [
                loads.max_load(),
                loads.to_vec().iter().sum(),
                w.retirements(),
                audit.shim_forwards(),
                audit.recovery_msgs(),
                audit.recoveries(),
                audit.tally().lost,
                w.dead_letters(),
                w.fault_slack(),
            ];
            assert_eq!(got, want, "{name}");
        }
    }
}
