//! Per-operation communication traces.
//!
//! An `inc` operation "initiates a process, i.e. a partially ordered set
//! of events in the distributed system" (paper §2). The tracer records
//! that process for each operation:
//!
//! * the **contact set** `I_p` — every processor that sends or receives a
//!   message during the operation (the object of the Hot Spot Lemma);
//! * the **communication DAG** (paper Figure 1) — a node per communication
//!   event labelled with its processor, an arc per message;
//! * the message count of the operation.

use crate::dag::CommDag;
use crate::id::{OpId, ProcessorId};
use crate::time::SimTime;

/// How much per-operation information the network records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing per-op (cheapest; global loads still tracked).
    Off,
    /// Record contact sets and message counts but no DAG.
    #[default]
    Contacts,
    /// Record contact sets, message counts and the full communication DAG.
    Full,
}

/// The set `I_p` of processors that communicated during one operation.
///
/// # Examples
///
/// ```
/// use distctr_sim::{ContactSet, ProcessorId};
/// let a: ContactSet = [0, 1, 2].into_iter().map(ProcessorId::new).collect();
/// let b: ContactSet = [2, 3].into_iter().map(ProcessorId::new).collect();
/// assert!(a.intersects(&b), "Hot Spot Lemma requires a shared processor");
/// assert_eq!(a.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContactSet {
    /// Sorted by id, no duplicates. An operation contacts O(k)
    /// processors, so a flat run beats a tree of nodes.
    members: Vec<ProcessorId>,
}

impl ContactSet {
    /// Creates an empty contact set.
    #[must_use]
    pub fn new() -> Self {
        ContactSet::default()
    }

    /// Adds a processor to the set.
    pub fn insert(&mut self, p: ProcessorId) {
        if let Err(at) = self.members.binary_search(&p) {
            self.members.insert(at, p);
        }
    }

    /// Whether `p` communicated during the operation.
    #[must_use]
    pub fn contains(&self, p: ProcessorId) -> bool {
        self.members.binary_search(&p).is_ok()
    }

    /// Number of distinct processors involved.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no processor communicated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether the two sets share at least one processor — the conclusion
    /// of the Hot Spot Lemma for consecutive operations.
    #[must_use]
    pub fn intersects(&self, other: &ContactSet) -> bool {
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        small.members.iter().any(|&p| large.contains(p))
    }

    /// The processors in both sets, in id order.
    #[must_use]
    pub fn intersection(&self, other: &ContactSet) -> Vec<ProcessorId> {
        self.members.iter().copied().filter(|&p| other.contains(p)).collect()
    }

    /// Iterates over members in id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        self.members.iter().copied()
    }
}

impl FromIterator<ProcessorId> for ContactSet {
    fn from_iter<I: IntoIterator<Item = ProcessorId>>(iter: I) -> Self {
        let mut set = ContactSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<ProcessorId> for ContactSet {
    fn extend<I: IntoIterator<Item = ProcessorId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

/// The Hot Spot Lemma checked over an execution: "let p and q be two
/// processors that increment the counter in direct succession. Then
/// `I_p ∩ I_q ≠ ∅` must hold." Given the operations' contact sets in
/// execution order, returns the index `i` of **every** consecutive pair
/// `(i, i + 1)` that shares no processor; empty when the lemma holds.
///
/// # Examples
///
/// ```
/// use distctr_sim::{hot_spot_violations, ContactSet, ProcessorId};
/// let set = |ids: &[usize]| ids.iter().map(|&i| ProcessorId::new(i)).collect::<ContactSet>();
/// let (a, b, c) = (set(&[0, 1]), set(&[1, 2]), set(&[5]));
/// assert!(hot_spot_violations([&a, &b]).is_empty());
/// assert_eq!(hot_spot_violations([&a, &b, &c]), vec![1], "ops 1 and 2 are disjoint");
/// ```
#[must_use]
pub fn hot_spot_violations<'a>(contacts: impl IntoIterator<Item = &'a ContactSet>) -> Vec<usize> {
    let mut contacts = contacts.into_iter();
    let mut violations = Vec::new();
    let Some(mut prev) = contacts.next() else {
        return violations;
    };
    for (i, next) in contacts.enumerate() {
        if !prev.intersects(next) {
            violations.push(i);
        }
        prev = next;
    }
    violations
}

/// Everything recorded about one operation's process.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTrace {
    /// The operation.
    pub op: OpId,
    /// The processor that initiated it.
    pub initiator: ProcessorId,
    /// Messages sent during the operation (each counted once).
    pub messages: u64,
    /// The contact set `I_p`.
    pub contacts: ContactSet,
    /// The communication DAG, if [`TraceMode::Full`].
    pub dag: Option<CommDag>,
    /// Simulated time the operation was initiated.
    pub started_at: SimTime,
    /// Simulated time of the operation's last recorded delivery (its
    /// completion under run-to-quiescence semantics).
    pub completed_at: SimTime,
}

impl OpTrace {
    /// Length of the operation's communication list measured as the paper
    /// does — "the number of arcs in the list", which equals the number of
    /// messages of the operation.
    #[must_use]
    pub fn list_len(&self) -> u64 {
        self.messages
    }
}

#[derive(Debug, Clone)]
struct OpBuilder {
    op: OpId,
    initiator: ProcessorId,
    messages: u64,
    /// The initiator, every recipient and every sender that injected
    /// into the open op so far, unsorted and with repeats;
    /// [`TraceRecorder::finish_op`] turns it into the contact set.
    contacts: Vec<ProcessorId>,
    dag: Option<CommDag>,
    /// DAG node id of the initiation event, under [`TraceMode::Full`].
    source: Option<u32>,
    started_at: SimTime,
    last_event_at: SimTime,
}

/// Records per-operation traces as the network runs.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    mode: TraceMode,
    /// Operations being recorded: one, or a handful under overlapped
    /// schedules, so lookups scan it.
    open: Vec<OpBuilder>,
    /// The contact buffer of the last finished op, emptied, for the next
    /// op to fill.
    spare: Vec<ProcessorId>,
}

impl TraceRecorder {
    /// Creates a recorder in the given mode.
    #[must_use]
    pub fn new(mode: TraceMode) -> Self {
        TraceRecorder { mode, open: Vec::new(), spare: Vec::new() }
    }

    /// The recording mode.
    #[must_use]
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Begins recording operation `op` initiated at `initiator` at
    /// simulated time `now`; returns the DAG node id of the initiation
    /// event (the DAG's source) when a full trace is kept.
    pub fn begin_op(&mut self, op: OpId, initiator: ProcessorId, now: SimTime) -> Option<u32> {
        if self.mode == TraceMode::Off {
            return None;
        }
        let mut dag = None;
        let mut source = None;
        if self.mode == TraceMode::Full {
            let mut d = CommDag::new();
            source = Some(d.add_node(initiator));
            dag = Some(d);
        }
        let mut contacts = std::mem::take(&mut self.spare);
        contacts.push(initiator);
        let builder = OpBuilder {
            op,
            initiator,
            messages: 0,
            contacts,
            dag,
            source,
            started_at: now,
            last_event_at: now,
        };
        // Beginning an operation again restarts its recording.
        match self.builder(op) {
            Some(b) => *b = builder,
            None => self.open.push(builder),
        }
        source
    }

    /// Whether `op` is currently being recorded.
    #[must_use]
    pub fn is_open(&self, op: OpId) -> bool {
        self.open.iter().any(|b| b.op == op)
    }

    /// The DAG node id of `op`'s initiation event, while `op` is being
    /// recorded under [`TraceMode::Full`].
    #[must_use]
    pub fn source(&self, op: OpId) -> Option<u32> {
        self.open.iter().find(|b| b.op == op).and_then(|b| b.source)
    }

    /// Number of operations being recorded.
    #[cfg(test)]
    pub(crate) fn open_ops(&self) -> usize {
        self.open.len()
    }

    fn builder(&mut self, op: OpId) -> Option<&mut OpBuilder> {
        self.open.iter_mut().find(|b| b.op == op)
    }

    /// Records a message of `op`. Returns nothing; the arc is completed
    /// by [`TraceRecorder::record_delivery`].
    ///
    /// The sender is not added to the contacts: a message sent while a
    /// delivery is handled leaves the processor that delivery has just
    /// recorded, and an injected one leaves the op's initiator or a
    /// processor recorded through [`TraceRecorder::record_contact`].
    pub fn record_send(&mut self, op: OpId) {
        if let Some(b) = self.builder(op) {
            b.messages += 1;
        }
    }

    /// Adds `p` to the contacts of `op`, if `op` is being recorded: the
    /// sender of a message injected into an op already open.
    pub fn record_contact(&mut self, op: OpId, p: ProcessorId) {
        if let Some(b) = self.builder(op) {
            b.contacts.push(p);
        }
    }

    /// Records delivery of a message of `op` to `to` at time `now`, sent
    /// from the DAG event `from_event` (None when the op is untraced or
    /// the send predates tracing). Returns the new event's DAG node id
    /// under [`TraceMode::Full`].
    pub fn record_delivery(
        &mut self,
        op: OpId,
        from: ProcessorId,
        to: ProcessorId,
        from_event: Option<u32>,
        now: SimTime,
    ) -> Option<u32> {
        let b = self.builder(op)?;
        b.contacts.push(to);
        b.last_event_at = b.last_event_at.max_with(now);
        let dag = b.dag.as_mut()?;
        // A message whose send event is unknown (sent before tracing began
        // for this op) gets a fresh source node so the arc still exists.
        let src = from_event.unwrap_or_else(|| dag.add_node(from));
        let node = dag.add_node(to);
        dag.add_arc(src, node);
        Some(node)
    }

    /// Finishes recording `op` and returns its trace, if it was recorded.
    pub fn finish_op(&mut self, op: OpId) -> Option<OpTrace> {
        let at = self.open.iter().position(|b| b.op == op)?;
        let mut b = self.open.swap_remove(at);
        b.contacts.sort_unstable();
        b.contacts.dedup();
        // An exact-size copy; the buffer is kept for the next op.
        let contacts = ContactSet { members: b.contacts.to_vec() };
        b.contacts.clear();
        self.spare = b.contacts;
        Some(OpTrace {
            op,
            initiator: b.initiator,
            messages: b.messages,
            contacts,
            dag: b.dag,
            started_at: b.started_at,
            completed_at: b.last_event_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn contact_set_basics() {
        let mut c = ContactSet::new();
        assert!(c.is_empty());
        c.insert(p(2));
        c.insert(p(0));
        c.insert(p(2));
        assert_eq!(c.len(), 2);
        assert!(c.contains(p(0)) && c.contains(p(2)) && !c.contains(p(1)));
        let order: Vec<_> = c.iter().collect();
        assert_eq!(order, vec![p(0), p(2)], "iteration is id-ordered");
    }

    #[test]
    fn contact_set_intersection() {
        let a: ContactSet = [0, 1, 5].into_iter().map(p).collect();
        let b: ContactSet = [5, 9].into_iter().map(p).collect();
        let c: ContactSet = [2, 3].into_iter().map(p).collect();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a), "intersection is symmetric");
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b), vec![p(5)]);
        assert!(a.intersection(&c).is_empty());
    }

    fn set(ids: &[usize]) -> ContactSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    #[test]
    fn chain_holds_for_overlapping_sequence() {
        let (a, b, c) = (set(&[0, 1]), set(&[1, 2]), set(&[2, 3]));
        assert!(hot_spot_violations([&a, &b, &c]).is_empty());
    }

    #[test]
    fn chain_violation_is_located() {
        let (a, b, c) = (set(&[0, 1]), set(&[1, 2]), set(&[5, 6]));
        assert_eq!(hot_spot_violations([&a, &b, &c]), vec![1]);
    }

    #[test]
    fn chain_trivially_holds_for_short_sequences() {
        assert!(hot_spot_violations([]).is_empty());
        assert!(hot_spot_violations([&set(&[0])]).is_empty());
    }

    #[test]
    fn nonadjacent_sets_may_be_disjoint() {
        // The lemma only constrains *consecutive* operations.
        let (a, b, c) = (set(&[0, 1]), set(&[1, 5]), set(&[5, 9]));
        assert!(hot_spot_violations([&a, &b, &c]).is_empty());
        assert!(!a.intersects(&c));
    }

    #[test]
    fn every_violating_pair_is_reported() {
        // Two disjoint pairs, (0, 1) and (2, 3), around an intersecting one.
        let (a, b, c, d) = (set(&[0]), set(&[1, 2]), set(&[2]), set(&[3]));
        assert_eq!(hot_spot_violations([&a, &b, &c, &d]), vec![0, 2]);
    }

    #[test]
    fn contact_set_agrees_with_a_btree_set_on_random_inserts() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0_47AC);
        for round in 0..200 {
            // Narrow ranges make duplicates and shared members common.
            let range = 1 + round % 40;
            let mut sets = [ContactSet::new(), ContactSet::new()];
            let mut refs = [BTreeSet::new(), BTreeSet::new()];
            for _ in 0..rng.gen_range(0..60) {
                let side = rng.gen_range(0..2);
                let member = p(rng.gen_range(0..range));
                sets[side].insert(member);
                refs[side].insert(member);
            }
            for (set, reference) in sets.iter().zip(&refs) {
                assert_eq!(set.len(), reference.len());
                assert_eq!(set.is_empty(), reference.is_empty());
                assert!(set.iter().eq(reference.iter().copied()), "iteration is id-ordered");
                for i in 0..range {
                    assert_eq!(set.contains(p(i)), reference.contains(&p(i)));
                }
                let collected: ContactSet = reference.iter().rev().copied().collect();
                assert_eq!(&collected, set, "equality ignores insertion order");
            }
            let shared: Vec<ProcessorId> = refs[0].intersection(&refs[1]).copied().collect();
            assert_eq!(sets[0].intersection(&sets[1]), shared);
            assert_eq!(sets[1].intersection(&sets[0]), shared);
            assert_eq!(sets[0].intersects(&sets[1]), !shared.is_empty());
            assert_eq!(sets[1].intersects(&sets[0]), !shared.is_empty());
        }
    }

    #[test]
    fn two_open_ops_record_apart_and_finish_in_either_order() {
        let mut r = TraceRecorder::new(TraceMode::Contacts);
        let (a, b) = (OpId::new(7), OpId::new(8));
        r.begin_op(a, p(0), SimTime::ZERO);
        r.begin_op(b, p(5), SimTime::from_ticks(2));
        assert!(r.is_open(a) && r.is_open(b));
        r.record_send(a);
        r.record_send(b);
        r.record_send(b);
        r.record_delivery(b, p(5), p(6), None, SimTime::from_ticks(3));
        r.record_delivery(a, p(0), p(1), None, SimTime::from_ticks(4));
        // The op opened first finishes first; the other stays open.
        let ta = r.finish_op(a).expect("a recorded");
        assert!(!r.is_open(a) && r.is_open(b));
        assert_eq!(r.finish_op(a), None, "an op finishes once");
        r.record_delivery(b, p(6), p(7), None, SimTime::from_ticks(9));
        let tb = r.finish_op(b).expect("b recorded");
        assert_eq!((ta.op, ta.initiator, ta.messages), (a, p(0), 1));
        assert_eq!(ta.contacts, [0, 1].into_iter().map(p).collect());
        assert_eq!((ta.started_at, ta.completed_at), (SimTime::ZERO, SimTime::from_ticks(4)));
        assert_eq!((tb.op, tb.initiator, tb.messages), (b, p(5), 2));
        assert_eq!(tb.contacts, [5, 6, 7].into_iter().map(p).collect());
        assert_eq!(
            (tb.started_at, tb.completed_at),
            (SimTime::from_ticks(2), SimTime::from_ticks(9))
        );
        // The other order: the op opened last finishes first.
        r.begin_op(a, p(0), SimTime::ZERO);
        r.begin_op(b, p(5), SimTime::ZERO);
        r.record_send(a);
        assert_eq!(r.finish_op(b).expect("b recorded").messages, 0);
        assert_eq!(r.finish_op(a).expect("a recorded").messages, 1);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut r = TraceRecorder::new(TraceMode::Off);
        assert_eq!(r.begin_op(OpId::new(0), p(0), SimTime::ZERO), None);
        r.record_send(OpId::new(0));
        assert_eq!(r.finish_op(OpId::new(0)), None);
    }

    #[test]
    fn recorder_contacts_mode_tracks_sets_without_dag() {
        let mut r = TraceRecorder::new(TraceMode::Contacts);
        let op = OpId::new(1);
        assert_eq!(r.begin_op(op, p(0), SimTime::ZERO), None, "no DAG source in contacts mode");
        r.record_send(op);
        r.record_delivery(op, p(0), p(1), None, SimTime::from_ticks(4));
        let t = r.finish_op(op).expect("trace recorded");
        assert_eq!(t.messages, 1);
        assert_eq!(t.list_len(), 1);
        assert!(t.contacts.contains(p(0)) && t.contacts.contains(p(1)));
        assert!(t.dag.is_none());
        assert_eq!(t.initiator, p(0));
    }

    #[test]
    fn recorder_full_mode_builds_dag() {
        let mut r = TraceRecorder::new(TraceMode::Full);
        let op = OpId::new(2);
        let src = r.begin_op(op, p(0), SimTime::ZERO).expect("source node");
        r.record_send(op);
        let e1 =
            r.record_delivery(op, p(0), p(1), Some(src), SimTime::from_ticks(1)).expect("event");
        r.record_send(op);
        let _e2 =
            r.record_delivery(op, p(1), p(2), Some(e1), SimTime::from_ticks(2)).expect("event");
        let t = r.finish_op(op).expect("trace");
        let dag = t.dag.expect("full mode keeps DAG");
        assert_eq!(dag.node_count(), 3);
        assert_eq!(dag.arc_count(), 2);
        assert_eq!(t.messages, 2);
    }

    #[test]
    fn delivery_without_known_sender_event_synthesizes_source() {
        let mut r = TraceRecorder::new(TraceMode::Full);
        let op = OpId::new(3);
        r.begin_op(op, p(0), SimTime::ZERO);
        r.record_send(op);
        r.record_delivery(op, p(5), p(6), None, SimTime::from_ticks(3));
        let t = r.finish_op(op).expect("trace");
        let dag = t.dag.expect("dag");
        // source + delivery node + synthesized sender node
        assert_eq!(dag.node_count(), 3);
        assert_eq!(dag.arc_count(), 1);
    }

    #[test]
    fn unknown_op_is_ignored() {
        let mut r = TraceRecorder::new(TraceMode::Full);
        r.record_send(OpId::new(9));
        r.record_contact(OpId::new(9), p(2));
        assert_eq!(r.record_delivery(OpId::new(9), p(0), p(1), None, SimTime::ZERO), None);
        assert!(!r.is_open(OpId::new(9)));
    }
}
