//! Integration: the Lower Bound Theorem checked against every counter
//! implementation in the workspace.

use distctr_baselines::{
    CentralCounter, CombiningTreeCounter, CountingNetworkCounter, DiffractingTreeCounter,
};
use distctr_bound::{audit_weights, Adversary};
use distctr_core::{RetirementPolicy, TreeCounter};
use distctr_sim::{Counter, ProcessorId, TraceMode};

fn assert_theorem<C: Counter + Clone>(mut counter: C) {
    let name = counter.name();
    let outcome = Adversary::exhaustive().run(&mut counter).expect("adversary runs");
    assert!(
        outcome.consistent_with_theorem(),
        "{name}: bottleneck {} must be >= k = {} and >= pigeonhole {}",
        outcome.bottleneck.1,
        outcome.lower_bound_k,
        outcome.pigeonhole
    );
}

#[test]
fn lower_bound_holds_for_every_implementation_n8() {
    assert_theorem(TreeCounter::new(8).expect("tree"));
    assert_theorem(
        TreeCounter::builder(8)
            .expect("builder")
            .retirement(RetirementPolicy::Never)
            .build()
            .expect("static"),
    );
    assert_theorem(CentralCounter::new(8).expect("central"));
    assert_theorem(CombiningTreeCounter::new(8).expect("combining"));
    assert_theorem(CountingNetworkCounter::new(8, 4).expect("counting"));
    assert_theorem(DiffractingTreeCounter::new(8, 2).expect("diffracting"));
}

#[test]
fn lower_bound_holds_for_tree_counter_n81() {
    // The interesting case: the matching upper bound still clears the
    // lower bound, with bottleneck Θ(k) sandwiched in [k, 20k].
    let mut counter = TreeCounter::new(81).expect("tree");
    let outcome = Adversary::sampled(8, 17).run(&mut counter).expect("adversary");
    assert!(outcome.consistent_with_theorem());
    assert!(outcome.bottleneck.1 >= 3, "k = 3 for n = 81");
    assert!(outcome.bottleneck.1 <= 60, "still O(k): {}", outcome.bottleneck.1);
}

#[test]
fn adversary_never_beats_what_it_measures() {
    // The adversary's committed list lengths must sum to the counter's
    // total message count.
    let mut counter = CentralCounter::new(8).expect("central");
    let outcome = Adversary::exhaustive().run(&mut counter).expect("adversary");
    let total: u64 = outcome.list_lens.iter().sum();
    assert_eq!(total, counter.loads().total_messages());
}

#[test]
fn weight_audit_hot_spot_premise_across_implementations() {
    // The hot-spot premise must hold for every correct implementation.
    let order: Vec<ProcessorId> = (0..8).map(ProcessorId::new).collect();

    let mut tree =
        TreeCounter::builder(8).expect("builder").trace(TraceMode::Full).build().expect("tree");
    let audit = audit_weights(&mut tree, &order).expect("audit");
    assert!(audit.hot_spot_premise_holds(), "tree: {}/{}", audit.hot_spot_hits, audit.steps);

    let mut central =
        CentralCounter::with_policy(8, TraceMode::Full, distctr_sim::DeliveryPolicy::Fifo)
            .expect("central");
    let audit = audit_weights(&mut central, &order).expect("audit");
    assert!(audit.hot_spot_premise_holds(), "central: {}/{}", audit.hot_spot_hits, audit.steps);

    let mut network = CountingNetworkCounter::with_policy(
        8,
        4,
        TraceMode::Full,
        distctr_sim::DeliveryPolicy::Fifo,
    )
    .expect("counting");
    let audit = audit_weights(&mut network, &order).expect("audit");
    assert!(audit.hot_spot_premise_holds(), "counting: {}/{}", audit.hot_spot_hits, audit.steps);
}

#[test]
fn adversary_bottleneck_at_least_random_order_bottleneck_for_central() {
    // For the centralized counter the bottleneck is workload-independent
    // (2n + 2); the adversary must find at least as much as a random run.
    let mut adversarial = CentralCounter::new(8).expect("central");
    let outcome = Adversary::exhaustive().run(&mut adversarial).expect("adversary");
    let mut random = CentralCounter::new(8).expect("central");
    distctr_sim::SequentialDriver::run_shuffled(&mut random, 3).expect("random");
    assert!(outcome.bottleneck.1 >= random.loads().max_load());
}
