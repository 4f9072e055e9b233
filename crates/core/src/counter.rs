//! The public distributed counter: the paper's matching upper bound.
//!
//! [`TreeCounter`] is not a type of its own: it is the generic
//! [`TreeClient`] hosting a [`CounterObject`], and this module adds only
//! what is particular to the counter — the paper's `inc` (through the
//! simulator's [`Counter`] trait), batched and fault-tolerant `inc`s, and
//! the value. Each `inc` is one of the client's invocations with the unit
//! request, returned as is: the client's result type is the simulator's
//! [`OpResult`](distctr_sim::OpResult), and [`IncResult`] is its `u64`
//! instance. Every processor's total message load over the canonical
//! workload (each processor increments exactly once) is O(k), where
//! `n = k^(k+1)` — the Bottleneck Theorem, which the audits and
//! experiments verify on real runs.

use distctr_sim::{Counter, IncResult, LoadTracker, ProcessorId, SimError};

use crate::client::{TreeClient, TreeClientBuilder};
use crate::error::CoreError;
use crate::object::CounterObject;

/// Builder for [`TreeCounter`] with non-default delivery policy, trace
/// mode or retirement policy.
///
/// # Examples
///
/// ```
/// use distctr_core::{TreeCounter, RetirementPolicy};
/// use distctr_sim::{DeliveryPolicy, TraceMode};
///
/// # fn main() -> Result<(), distctr_core::CoreError> {
/// let counter = TreeCounter::builder(81)?
///     .delivery(DeliveryPolicy::random_delay(7, 4))
///     .trace(TraceMode::Full)
///     .retirement(RetirementPolicy::PaperDefault)
///     .build()?;
/// assert_eq!(counter.order(), 3);
/// # Ok(())
/// # }
/// ```
pub type TreeCounterBuilder = TreeClientBuilder<CounterObject>;

/// The retirement-based k-ary communication-tree counter.
///
/// # Examples
///
/// ```
/// use distctr_core::TreeCounter;
/// use distctr_sim::{Counter, ProcessorId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 81 = 3^4 processors, tree order k = 3.
/// let mut counter = TreeCounter::new(81)?;
/// let first = counter.inc(ProcessorId::new(17))?;
/// let second = counter.inc(ProcessorId::new(63))?;
/// assert_eq!(first.value, 0);
/// assert_eq!(second.value, 1);
/// # Ok(())
/// # }
/// ```
pub type TreeCounter = TreeClient<CounterObject>;

impl TreeClient<CounterObject> {
    /// The counter's current value (stored at the root).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.object().value()
    }

    /// One `inc` on a faulty network: quiescing without a response
    /// triggers the recovery watchdog (crashed workers are replaced by
    /// their pool successors, the operation is retried exactly-once) —
    /// see [`TreeClient::invoke_fault_tolerant`].
    ///
    /// # Errors
    ///
    /// See [`TreeClient::invoke_fault_tolerant`].
    pub fn inc_fault_tolerant(&mut self, initiator: ProcessorId) -> Result<IncResult, CoreError> {
        self.invoke_fault_tolerant(initiator, ())
    }

    /// A batch of `count` incs sharing one tree traversal
    /// (one [`Msg::Apply`](crate::messages::Msg::Apply)): the
    /// returned value is the start of the contiguous range
    /// `[value, value + count)` the batch owns. One message of protocol
    /// load regardless of `count` — see [`TreeClient::invoke_batch`].
    ///
    /// # Errors
    ///
    /// See [`TreeClient::invoke`].
    pub fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<IncResult, SimError> {
        self.invoke_batch(initiator, count, ())
    }

    /// [`TreeCounter::inc_batch`] with the recovery watchdog of
    /// [`TreeCounter::inc_fault_tolerant`]: retries repeat the same
    /// sequence number and count, so the range stays exactly-once.
    ///
    /// # Errors
    ///
    /// See [`TreeClient::invoke_fault_tolerant`].
    pub fn inc_batch_fault_tolerant(
        &mut self,
        initiator: ProcessorId,
        count: u64,
    ) -> Result<IncResult, CoreError> {
        self.invoke_batch_fault_tolerant(initiator, count, ())
    }
}

impl Counter for TreeClient<CounterObject> {
    fn name(&self) -> &'static str {
        if self.retirement_enabled() {
            "retirement-tree"
        } else {
            "static-tree"
        }
    }

    fn processors(&self) -> usize {
        TreeClient::processors(self)
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<IncResult, SimError> {
        self.invoke(initiator, ())
    }

    fn loads(&self) -> &LoadTracker {
        TreeClient::loads(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmath::MAX_ORDER;
    use crate::protocol::RetirementPolicy;
    use crate::topology::NodeRef;
    use distctr_sim::{FaultPlan, SequentialDriver};

    #[test]
    fn rounding_rule_matches_paper() {
        let c = TreeCounter::new(50).expect("n=50 rounds to 81");
        assert_eq!(c.order(), 3);
        assert_eq!(c.processors(), 81);
        let c = TreeCounter::new(81).expect("exact");
        assert_eq!(c.processors(), 81);
        let c = TreeCounter::new(82).expect("rounds to 1024");
        assert_eq!(c.order(), 4);
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(TreeCounter::new(0), Err(CoreError::Order(_))));
        assert!(matches!(TreeCounter::with_order(0), Err(CoreError::Order(_))));
        assert!(matches!(TreeCounter::with_order(MAX_ORDER + 1), Err(CoreError::Order(_))));
    }

    #[test]
    fn single_inc_returns_zero_and_increments() {
        let mut c = TreeCounter::with_order(2).expect("k=2");
        let r = c.inc(ProcessorId::new(5)).expect("inc");
        assert_eq!(r.value, 0);
        assert_eq!(c.value(), 1);
        assert!(r.messages >= 4, "leaf->L2->L1->root->leaf takes at least 4 messages");
        let trace = r.trace.expect("contacts traced by default");
        assert!(trace.contacts.contains(ProcessorId::new(5)));
    }

    #[test]
    fn values_are_sequential_for_identity_permutation() {
        let mut c = TreeCounter::with_order(2).expect("k=2");
        let out = SequentialDriver::run_identity(&mut c).expect("sequence");
        assert!(out.values_are_sequential());
        assert_eq!(c.value(), 8);
        assert_eq!(c.ops_executed(), 8);
    }

    #[test]
    fn unknown_initiator_rejected() {
        let mut c = TreeCounter::with_order(2).expect("k=2");
        let err = c.inc(ProcessorId::new(99)).unwrap_err();
        assert_eq!(err, SimError::UnknownProcessor { index: 99, processors: 8 });
    }

    #[test]
    fn name_reflects_retirement_policy() {
        let c = TreeCounter::with_order(2).expect("k=2");
        assert_eq!(c.name(), "retirement-tree");
        let s = TreeCounter::builder(8)
            .expect("builder")
            .retirement(RetirementPolicy::Never)
            .build()
            .expect("static");
        assert_eq!(s.name(), "static-tree");
    }

    #[test]
    fn all_lemmas_hold_on_canonical_workload_k3() {
        let mut c = TreeCounter::with_order(3).expect("k=3");
        let out = SequentialDriver::run_shuffled(&mut c, 42).expect("sequence");
        assert!(out.values_are_sequential());
        let audit = c.audit();
        assert!(audit.grow_old_lemma_holds(), "Grow Old Lemma");
        assert!(audit.retirement_lemma_holds(), "Retirement Lemma");
        assert!(
            audit.retirement_counts_within_pools(c.topology()),
            "Number of Retirements Lemma; per-level: {:?}, exhausted: {:?}",
            audit.retirements_by_level(),
            audit.pool_exhausted_by_level()
        );
        let k = c.order() as u64;
        assert!(
            audit.stint_work_within(8 * k + 8),
            "Inner Node Work Lemma: max stint {} vs 8k+8 = {}",
            audit.max_stint_msgs(),
            8 * k + 8
        );
    }

    #[test]
    fn bottleneck_is_big_o_of_k_not_n() {
        // The headline: the max per-processor load is O(k). The constant
        // is sizeable (a processor can serve the root once and one other
        // inner node once, each stint costing ~6k messages), so we check
        // against 20k — and against n once n is large enough for the
        // asymptotics to separate.
        for k in [3u32, 4] {
            let mut c = TreeCounter::with_order(k).expect("tree");
            SequentialDriver::run_identity(&mut c).expect("sequence");
            let bottleneck = c.loads().max_load();
            let n = c.processors() as u64;
            assert!(
                bottleneck <= 20 * u64::from(k),
                "k={k}: bottleneck {bottleneck} exceeds 20k = {}",
                20 * k
            );
            if k >= 4 {
                assert!(
                    bottleneck < n / 4,
                    "k={k}: bottleneck {bottleneck} should be far below n = {n}"
                );
            }
        }
    }

    #[test]
    fn static_tree_root_is_bottlenecked() {
        let mut s = TreeCounter::builder(8)
            .expect("builder")
            .retirement(RetirementPolicy::Never)
            .build()
            .expect("static");
        SequentialDriver::run_identity(&mut s).expect("sequence");
        // Root worker receives every inc and sends every value: load 2n at
        // the root's processor (plus its own leaf traffic).
        assert!(s.loads().max_load() >= 2 * 8);
        assert_eq!(s.audit().stints_completed(), 0, "no retirement ever");
    }

    /// The paper's tree with retirement disabled: the static-tree ablation.
    fn static_tree(n: usize) -> TreeCounter {
        TreeCounter::builder(n)
            .expect("builder")
            .retirement(RetirementPolicy::Never)
            .build()
            .expect("static")
    }

    #[test]
    fn static_tree_counts_in_order_with_a_theta_n_root_at_n81() {
        let mut c = static_tree(81);
        let out = SequentialDriver::run_identity(&mut c).expect("sequence");
        assert!(out.values_are_sequential());
        // Root worker: 1 receive + 1 send per op = 2n, plus its own leaf
        // and level-1 duties.
        let n = c.processors() as u64;
        assert!(c.loads().max_load() >= 2 * n, "static root is a Θ(n) hot spot");
        assert_eq!(c.audit().stints_completed(), 0);
    }

    #[test]
    fn static_tree_op_costs_the_tree_height_plus_one_reply() {
        let mut c = static_tree(81);
        let r = c.inc(ProcessorId::new(40)).expect("inc");
        // Climb k+1 hops (leaf -> level k ... -> root) + 1 value reply.
        assert_eq!(r.messages, (u64::from(c.order()) + 1) + 1);
    }

    #[test]
    fn static_tree_exposes_its_topology() {
        let c = static_tree(8);
        assert_eq!(c.order(), 2);
        assert_eq!(c.topology().processors(), 8);
    }

    #[test]
    fn crash_recovery_promotes_the_pool_successor() {
        let mut c = TreeCounter::with_order(3).expect("k=3");
        let root = NodeRef::ROOT;
        let old_worker = c.worker_of(root);
        c.crash(old_worker);
        // Initiator 80 is far from the root's pool; its first attempt
        // dead-letters at the root, the watchdog promotes the pool
        // successor, and the retry goes through.
        let r = c.inc_fault_tolerant(ProcessorId::new(80)).expect("recovered inc");
        assert_eq!(r.value, 0);
        assert_eq!(c.value(), 1);
        assert_ne!(c.worker_of(root), old_worker, "successor installed");
        // Pools overlap along root paths, so P0's crash takes out the
        // root and the level-1 node it also served — both recover.
        assert!(c.audit().recoveries() >= 1);
        assert_eq!(c.audit().recoveries_by_level()[0], 1);
        assert!(c.watchdog_retries() >= 1);
        assert!(c.audit().recovery_msgs() >= 1 + 3 + 3, "promote + k queries + k shares");
        // Later operations run normally on the recovered tree.
        let r = c.inc_fault_tolerant(ProcessorId::new(7)).expect("second inc");
        assert_eq!(r.value, 1);
    }

    #[test]
    fn duplicated_applies_stay_exactly_once() {
        // Every message duplicated: without the root's reply cache the
        // counter would double-count.
        let mut c = TreeCounter::builder(8)
            .expect("builder")
            .faults(FaultPlan::new(7).dup_prob(1.0))
            .build()
            .expect("counter");
        for i in 0..4usize {
            let r = c.inc_fault_tolerant(ProcessorId::new(i)).expect("inc");
            assert_eq!(r.value, i as u64, "values stay sequential under duplication");
        }
        assert_eq!(c.value(), 4);
        assert!(c.fault_stats().dups > 0, "duplication actually happened");
    }

    #[test]
    fn crashing_a_singleton_pool_on_the_path_is_unrecoverable() {
        let mut c = TreeCounter::with_order(3).expect("k=3");
        // Processor 54 is the lone pool member of level-3 node (3, 0),
        // serving leaves 0..2.
        let leaf_parent = c.topology().leaf_parent(0);
        let worker = c.worker_of(leaf_parent);
        c.crash(worker);
        let err = c.inc_fault_tolerant(ProcessorId::new(0)).unwrap_err();
        assert!(matches!(err, CoreError::Unrecoverable(_)), "{err}");
        // Leaves under a different level-3 node are unaffected.
        let r = c.inc_fault_tolerant(ProcessorId::new(40)).expect("other subtree");
        assert_eq!(r.value, 0);
    }

    #[test]
    fn crashed_initiator_is_rejected() {
        let mut c = TreeCounter::with_order(2).expect("k=2");
        c.crash(ProcessorId::new(5));
        let err = c.inc_fault_tolerant(ProcessorId::new(5)).unwrap_err();
        assert!(matches!(err, CoreError::Unrecoverable(_)), "{err}");
    }

    #[test]
    fn clone_forks_full_counter_state() {
        let mut c = TreeCounter::with_order(2).expect("k=2");
        c.inc(ProcessorId::new(0)).expect("inc");
        let mut fork = c.clone();
        let a = c.inc(ProcessorId::new(1)).expect("inc");
        let b = fork.inc(ProcessorId::new(1)).expect("inc");
        assert_eq!(a.value, b.value, "fork replays identically");
        assert_eq!(a.messages, b.messages);
    }
}
