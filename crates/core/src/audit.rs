//! Executable lemma audits.
//!
//! The upper-bound section of the paper proves five lemmas about the
//! retirement tree. Each is a *checkable invariant* of a run, and the
//! auditor records exactly the quantities they bound:
//!
//! * **Retirement Lemma** — no node retires more than once during any
//!   single inc operation.
//! * **Grow Old Lemma** — an inner node that does not retire during an
//!   operation sends and receives at most 4 messages in it.
//! * **Number of Retirements Lemma** — a level-`i` node retires at most
//!   `pool_size(i) - 1` times over the whole sequence.
//! * **Inner Node Work Lemma** — O(k) messages per worker stint.
//! * **Leaf Node Work Lemma** — O(1) messages per leaf (verified from the
//!   global load tracker by the experiments).

use std::sync::Arc;

use crate::engine::AuditEvent;
use crate::topology::{NodeRef, Topology};

/// What one operation did to one node (flat index `flat`).
#[derive(Debug, Clone, Copy)]
struct OpNode {
    flat: usize,
    msgs: u64,
    retirements: u64,
}

/// The counts of the audit stream that every driver keeps: ordinary
/// retirements, shim forwards and lost messages. [`CounterAudit`] keeps
/// one for a whole fleet; a driver that sees one processor at a time (a
/// shared-memory slot, a worker thread) keeps one per processor, and its
/// readers sum them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ordinary retirements begun.
    pub retirements: u64,
    /// Messages a retired worker's shim forwarded to its successor.
    pub shim_forwards: u64,
    /// Messages dropped for lost routing or object state.
    pub lost: u64,
}

impl Tally {
    /// Counts `ev` if it is one of the tallied kinds.
    pub fn count(&mut self, ev: &AuditEvent) {
        match ev {
            AuditEvent::Retirement { .. } => self.retirements += 1,
            AuditEvent::ShimForward => self.shim_forwards += 1,
            AuditEvent::Lost => self.lost += 1,
            _ => {}
        }
    }
}

/// Counters and extrema collected while a [`TreeCounter`](crate::TreeCounter)
/// runs, sufficient to check every lemma of the paper's upper bound.
#[derive(Debug, Clone)]
pub struct CounterAudit {
    topo: Arc<Topology>,
    tally: Tally,
    retirements_by_node: Vec<u64>,
    retirements_by_level: Vec<u64>,
    pool_exhausted_by_level: Vec<u64>,
    recoveries_by_level: Vec<u64>,
    recovery_msgs: u64,
    stints_completed: u64,
    max_stint_msgs: u64,
    stint_msgs: Vec<u64>,
    /// Sorted by kind name; nine kinds at most, so recording scans it.
    msgs_by_kind: Vec<(&'static str, u64)>,
    /// Per-operation scratch, folded at `end_op`: the nodes this
    /// operation touched. An operation touches O(k) nodes, so recording
    /// scans the list instead of hashing into a map.
    op_nodes: Vec<OpNode>,
    max_nonretiring_msgs_per_op: u64,
    max_retirements_per_node_per_op: u64,
    ops_seen: u64,
}

impl CounterAudit {
    /// Creates an auditor for a tree with the given topology, sharing the
    /// fleet's copy of it.
    #[must_use]
    pub fn new(topo: Arc<Topology>) -> Self {
        let nodes = usize::try_from(topo.inner_node_count()).expect("node count fits usize");
        let levels = topo.order() as usize + 1;
        CounterAudit {
            topo,
            tally: Tally::default(),
            retirements_by_node: vec![0; nodes],
            retirements_by_level: vec![0; levels],
            pool_exhausted_by_level: vec![0; levels],
            recoveries_by_level: vec![0; levels],
            recovery_msgs: 0,
            stints_completed: 0,
            max_stint_msgs: 0,
            stint_msgs: vec![0; nodes],
            msgs_by_kind: Vec::new(),
            op_nodes: Vec::new(),
            max_nonretiring_msgs_per_op: 0,
            max_retirements_per_node_per_op: 0,
            ops_seen: 0,
        }
    }

    /// Marks the start of an inc operation.
    pub fn begin_op(&mut self) {
        self.op_nodes.clear();
    }

    /// This operation's entry for the node with flat index `flat`.
    fn op_node(&mut self, flat: usize) -> &mut OpNode {
        let at = self.op_nodes.iter().position(|n| n.flat == flat).unwrap_or_else(|| {
            self.op_nodes.push(OpNode { flat, msgs: 0, retirements: 0 });
            self.op_nodes.len() - 1
        });
        &mut self.op_nodes[at]
    }

    /// Folds the finished operation's per-node counts into the extrema.
    pub fn end_op(&mut self) {
        self.ops_seen += 1;
        for n in &self.op_nodes {
            if n.retirements == 0 {
                self.max_nonretiring_msgs_per_op = self.max_nonretiring_msgs_per_op.max(n.msgs);
            } else {
                self.max_retirements_per_node_per_op =
                    self.max_retirements_per_node_per_op.max(n.retirements);
            }
        }
    }

    /// Records one audit event the engines emitted.
    pub fn record(&mut self, ev: AuditEvent) {
        self.tally.count(&ev);
        match ev {
            AuditEvent::Handled { node, kind, aged } => {
                self.record_kind(kind);
                self.record_node_msgs(node, aged);
            }
            AuditEvent::Kind(kind) => self.record_kind(kind),
            AuditEvent::Traffic { node, msgs } => self.record_node_msgs(node, msgs),
            AuditEvent::Retirement { node } => {
                let flat = self.topo.flat_index(node);
                self.retirements_by_node[flat] += 1;
                self.retirements_by_level[node.level as usize] += 1;
                self.op_node(flat).retirements += 1;
            }
            // Expected never under the paper's dimensioning; counted per
            // level so tests can assert that.
            AuditEvent::PoolExhausted { node } => {
                self.pool_exhausted_by_level[node.level as usize] += 1;
            }
            // The predecessor's stint ended: fold its count into the
            // maximum. The successor's setup messages (k+1 handoff parts,
            // or the rebuild shares) belong to the new stint, so the
            // Inner Node Work Lemma audit sees the full O(k) per stint.
            AuditEvent::StintComplete { node, setup_msgs } => {
                let flat = self.topo.flat_index(node);
                self.max_stint_msgs = self.max_stint_msgs.max(self.stint_msgs[flat]);
                self.stint_msgs[flat] = setup_msgs;
                self.stints_completed += 1;
            }
            AuditEvent::Recovery { node } => self.recoveries_by_level[node.level as usize] += 1,
            // Recovery messages do not age nodes; they are the explicit
            // slack term of the fault-aware load bound (see
            // [`CounterAudit::fault_slack`]).
            AuditEvent::RecoveryMsgs { count } => self.recovery_msgs += count,
            AuditEvent::ShimForward | AuditEvent::Lost => {}
        }
    }

    /// Charges `count` operational messages (which age the node) to
    /// `node`'s current stint and to this operation.
    fn record_node_msgs(&mut self, node: NodeRef, count: u64) {
        let flat = self.topo.flat_index(node);
        self.op_node(flat).msgs += count;
        self.stint_msgs[flat] += count;
    }

    fn record_kind(&mut self, kind: &'static str) {
        match self.msgs_by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, count)) => *count += 1,
            None => {
                let at = self.msgs_by_kind.partition_point(|(k, _)| *k < kind);
                self.msgs_by_kind.insert(at, (kind, 1));
            }
        }
    }

    // --- lemma views -----------------------------------------------------

    /// Tree order `k`.
    #[must_use]
    pub fn order(&self) -> u32 {
        self.topo.order()
    }

    /// Operations audited so far.
    #[must_use]
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Total retirements per level, root first.
    #[must_use]
    pub fn retirements_by_level(&self) -> &[u64] {
        &self.retirements_by_level
    }

    /// Retirements of the node with flat index `flat`.
    #[must_use]
    pub fn retirements_of(&self, flat: usize) -> u64 {
        self.retirements_by_node[flat]
    }

    /// Largest per-node retirement count on `level`, given the topology.
    ///
    /// # Panics
    ///
    /// Panics if `level` is beyond the tree's inner levels `0..=k`.
    #[must_use]
    pub fn max_retirements_on_level(&self, topo: &Topology, level: u32) -> u64 {
        // A level's nodes are one run of flat indices.
        let first = topo.flat_index(NodeRef { level, index: 0 });
        let width = usize::try_from(topo.nodes_on_level(level)).expect("level width fits usize");
        self.retirements_by_node[first..first + width].iter().copied().max().unwrap_or(0)
    }

    /// Pool-exhaustion events per level (all zero in a correct run).
    #[must_use]
    pub fn pool_exhausted_by_level(&self) -> &[u64] {
        &self.pool_exhausted_by_level
    }

    /// Total shim forwards.
    #[must_use]
    pub fn shim_forwards(&self) -> u64 {
        self.tally.shim_forwards
    }

    /// The fleet-wide counts of retirements, shim forwards and lost
    /// messages.
    #[must_use]
    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// Completed crash recoveries per level, root first.
    #[must_use]
    pub fn recoveries_by_level(&self) -> &[u64] {
        &self.recoveries_by_level
    }

    /// Total completed crash recoveries.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries_by_level.iter().sum()
    }

    /// Total recovery protocol messages (promotes, rebuild queries and
    /// rebuild shares).
    #[must_use]
    pub fn recovery_msgs(&self) -> u64 {
        self.recovery_msgs
    }

    /// The audit-observable slack of the fault-aware load bound.
    ///
    /// Under faults the paper's per-processor bound `c·k` holds up to
    /// explicit recovery overhead: every recovery protocol message, plus
    /// the `k + 1` new-worker notifications each completed recovery sends
    /// as ordinary (aging) traffic. The chaos harness adds the
    /// network-level terms the auditor cannot see — duplicate deliveries
    /// and watchdog retries — from the fault log; see `tests/chaos.rs`.
    #[must_use]
    pub fn fault_slack(&self) -> u64 {
        self.recovery_msgs + self.recoveries() * (u64::from(self.order()) + 1)
    }

    /// Completed worker stints.
    #[must_use]
    pub fn stints_completed(&self) -> u64 {
        self.stints_completed
    }

    /// Largest number of operational messages in any completed stint.
    #[must_use]
    pub fn max_stint_msgs(&self) -> u64 {
        self.max_stint_msgs
    }

    /// Largest number of messages handled in one op by a node that did
    /// not retire during that op.
    #[must_use]
    pub fn max_nonretiring_msgs_per_op(&self) -> u64 {
        self.max_nonretiring_msgs_per_op
    }

    /// Largest number of times any node retired within one op.
    #[must_use]
    pub fn max_retirements_per_node_per_op(&self) -> u64 {
        self.max_retirements_per_node_per_op
    }

    /// Message counts by protocol kind, in kind-name order.
    #[must_use]
    pub fn msgs_by_kind(&self) -> &[(&'static str, u64)] {
        &self.msgs_by_kind
    }

    /// Grow Old Lemma: every non-retiring node handled ≤ 4 messages per op.
    #[must_use]
    pub fn grow_old_lemma_holds(&self) -> bool {
        self.max_nonretiring_msgs_per_op <= 4
    }

    /// Retirement Lemma: no node retired twice within one op.
    #[must_use]
    pub fn retirement_lemma_holds(&self) -> bool {
        self.max_retirements_per_node_per_op <= 1
    }

    /// Number of Retirements Lemma: every level-`i` node retired at most
    /// `pool_size(i) - 1` times, and no pool was ever exhausted.
    #[must_use]
    pub fn retirement_counts_within_pools(&self, topo: &Topology) -> bool {
        self.pool_exhausted_by_level.iter().all(|&e| e == 0)
            && (0..=topo.order()).all(|level| {
                self.max_retirements_on_level(topo, level)
                    <= topo.pool_size(level).saturating_sub(1)
            })
    }

    /// Inner Node Work Lemma: every completed stint handled at most
    /// `bound` messages; the paper's bound is O(k), and `8k + 8` is a
    /// generous concrete constant the experiments check.
    #[must_use]
    pub fn stint_work_within(&self, bound: u64) -> bool {
        self.max_stint_msgs <= bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(2).expect("k=2"))
    }

    /// `msgs` aging messages charged to the node with flat index `flat`.
    fn traffic(t: &Topology, flat: usize, msgs: u64) -> AuditEvent {
        AuditEvent::Traffic { node: t.node_at(flat), msgs }
    }

    fn retirement(node: NodeRef) -> AuditEvent {
        AuditEvent::Retirement { node }
    }

    #[test]
    fn fresh_audit_passes_all_lemmas() {
        let t = topo();
        let a = CounterAudit::new(Arc::clone(&t));
        assert!(a.grow_old_lemma_holds());
        assert!(a.retirement_lemma_holds());
        assert!(a.retirement_counts_within_pools(&t));
        assert!(a.stint_work_within(0));
        assert_eq!(a.ops_seen(), 0);
        assert_eq!(a.order(), 2);
    }

    #[test]
    fn nonretiring_message_extremum() {
        let t = topo();
        let mut a = CounterAudit::new(Arc::clone(&t));
        a.begin_op();
        a.record(traffic(&t, 0, 3));
        a.record(traffic(&t, 1, 5)); // node 1 retires, so excluded
        a.record(retirement(t.node_at(1)));
        a.end_op();
        assert_eq!(a.max_nonretiring_msgs_per_op(), 3);
        assert!(a.grow_old_lemma_holds());
        a.begin_op();
        a.record(traffic(&t, 2, 6));
        a.end_op();
        assert_eq!(a.max_nonretiring_msgs_per_op(), 6);
        assert!(!a.grow_old_lemma_holds());
    }

    #[test]
    fn double_retirement_detected() {
        let t = topo();
        let mut a = CounterAudit::new(Arc::clone(&t));
        a.begin_op();
        a.record(retirement(t.node_at(0)));
        a.end_op();
        assert!(a.retirement_lemma_holds());
        a.begin_op();
        a.record(retirement(t.node_at(0)));
        a.record(retirement(t.node_at(0)));
        a.end_op();
        assert!(!a.retirement_lemma_holds());
        assert_eq!(a.retirements_of(0), 3);
        assert_eq!(a.retirements_by_level()[0], 3);
    }

    #[test]
    fn stint_accounting_folds_on_completion() {
        let t = topo();
        let mut a = CounterAudit::new(Arc::clone(&t));
        a.begin_op();
        a.record(traffic(&t, 0, 9));
        a.record(AuditEvent::StintComplete { node: t.node_at(0), setup_msgs: 3 });
        a.end_op();
        assert_eq!(a.max_stint_msgs(), 9);
        assert_eq!(a.stints_completed(), 1);
        assert!(a.stint_work_within(9));
        assert!(!a.stint_work_within(8));
        // New stint starts charged with its handoff parts.
        a.begin_op();
        a.record(traffic(&t, 0, 1));
        a.record(AuditEvent::StintComplete { node: t.node_at(0), setup_msgs: 3 });
        a.end_op();
        assert_eq!(a.max_stint_msgs(), 9);
    }

    #[test]
    fn pool_exhaustion_fails_retirement_count_check() {
        let t = topo();
        let mut a = CounterAudit::new(Arc::clone(&t));
        assert!(a.retirement_counts_within_pools(&t));
        a.record(AuditEvent::PoolExhausted { node: NodeRef { level: 2, index: 0 } });
        assert!(!a.retirement_counts_within_pools(&t));
        assert_eq!(a.pool_exhausted_by_level(), &[0, 0, 1]);
    }

    #[test]
    fn retirement_level_maxima() {
        let t = topo();
        let mut a = CounterAudit::new(Arc::clone(&t));
        let level1 = NodeRef { level: 1, index: 1 };
        a.begin_op();
        a.record(retirement(level1));
        a.end_op();
        assert_eq!(a.max_retirements_on_level(&t, 1), 1);
        assert_eq!(a.max_retirements_on_level(&t, 0), 0);
        // k=2: level-1 pool has 2 ids -> at most 1 retirement. Still ok.
        assert!(a.retirement_counts_within_pools(&t));
    }

    #[test]
    fn recovery_counters_feed_the_fault_slack() {
        let t = topo();
        let mut a = CounterAudit::new(Arc::clone(&t));
        assert_eq!(a.recoveries(), 0);
        assert_eq!(a.fault_slack(), 0);
        a.record(AuditEvent::RecoveryMsgs { count: 4 }); // promote + query + 2 shares
        a.record(AuditEvent::Recovery { node: t.node_at(1) });
        assert_eq!(a.recoveries(), 1);
        assert_eq!(a.recoveries_by_level(), &[0, 1, 0]);
        assert_eq!(a.recovery_msgs(), 4);
        // k=2: slack = 4 recovery msgs + (k+1) notifications.
        assert_eq!(a.fault_slack(), 4 + 3);
        // Recoveries are not retirements: the paper lemmas stay clean.
        assert!(a.retirement_lemma_holds());
        assert!(a.retirement_counts_within_pools(&t));
    }

    #[test]
    fn kind_and_shim_counters() {
        let t = topo();
        let mut a = CounterAudit::new(Arc::clone(&t));
        a.record(AuditEvent::Kind("inc"));
        a.record(AuditEvent::Kind("inc"));
        a.record(AuditEvent::Kind("value"));
        a.record(AuditEvent::ShimForward);
        a.record(AuditEvent::Lost);
        a.record(AuditEvent::Kind("apply"));
        assert_eq!(a.msgs_by_kind(), &[("apply", 1), ("inc", 2), ("value", 1)], "name order");
        assert_eq!(a.shim_forwards(), 1);
        assert_eq!(a.tally(), Tally { retirements: 0, shim_forwards: 1, lost: 1 });
    }
}
