//! Cross-crate integration: every implementation counts correctly under
//! every delivery policy, and the Hot Spot Lemma holds on all recorded
//! traces.

use distctr::prelude::*;
use distctr::sim::hot_spot_violations;

fn all_counters(n: usize, trace: TraceMode, policy: DeliveryPolicy) -> Vec<Box<dyn Counter>> {
    let width = ((n as f64).sqrt() as usize).next_power_of_two().max(2);
    vec![
        Box::new(
            TreeCounter::builder(n)
                .expect("builder")
                .trace(trace)
                .delivery(policy.clone())
                .build()
                .expect("tree"),
        ),
        Box::new(
            TreeCounter::builder(n)
                .expect("builder")
                .trace(trace)
                .delivery(policy.clone())
                .retirement(RetirementPolicy::Never)
                .build()
                .expect("static"),
        ),
        Box::new(CentralCounter::with_policy(n, trace, policy.clone()).expect("central")),
        Box::new(CombiningTreeCounter::with_policy(n, trace, policy.clone()).expect("combining")),
        Box::new(
            CountingNetworkCounter::with_policy(n, width, trace, policy.clone()).expect("counting"),
        ),
        Box::new(
            DiffractingTreeCounter::with_policy(n, width.trailing_zeros(), trace, policy)
                .expect("diffracting"),
        ),
    ]
}

#[test]
fn every_implementation_counts_sequentially_under_every_policy() {
    for n in [8usize, 27] {
        for policy in DeliveryPolicy::test_suite() {
            for mut counter in all_counters(n, TraceMode::Off, policy.clone()) {
                let outcome =
                    SequentialDriver::run_shuffled(counter.as_mut(), 42).expect("sequence runs");
                assert!(
                    outcome.values_are_sequential(),
                    "{} under {} at n={n}",
                    counter.name(),
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn hot_spot_lemma_on_every_implementation_and_policy() {
    for policy in DeliveryPolicy::test_suite() {
        for mut counter in all_counters(16, TraceMode::Contacts, policy.clone()) {
            let outcome =
                SequentialDriver::run_shuffled(counter.as_mut(), 7).expect("sequence runs");
            let violations = hot_spot_violations(
                outcome
                    .results
                    .iter()
                    .map(|r| &r.trace.as_ref().expect("contacts recorded").contacts),
            );
            assert!(
                violations.is_empty(),
                "Hot Spot Lemma violated by {} under {} between ops i and i + 1 for i in {violations:?}",
                counter.name(),
                policy.name()
            );
        }
    }
}

#[test]
fn identity_and_reverse_permutations_work() {
    for mut counter in all_counters(16, TraceMode::Off, DeliveryPolicy::Fifo) {
        let out = SequentialDriver::run_identity(counter.as_mut()).expect("identity runs");
        assert!(out.values_are_sequential(), "{} identity", counter.name());
    }
    for mut counter in all_counters(16, TraceMode::Off, DeliveryPolicy::Fifo) {
        // Trees round n up to k^(k+1); build the permutation over the
        // counter's actual processor count.
        let order: Vec<ProcessorId> =
            (0..counter.processors()).rev().map(ProcessorId::new).collect();
        let out =
            SequentialDriver::run_permutation(counter.as_mut(), &order).expect("reverse runs");
        assert!(out.values_are_sequential(), "{} reverse", counter.name());
    }
}

#[test]
fn loads_are_policy_independent_for_deterministic_protocols() {
    // FIFO and LIFO are both deterministic schedules; the *total* message
    // count of the tree counter may differ (retirement cascades can
    // interleave differently), but correctness and the O(k) bottleneck
    // ceiling hold under both.
    for policy in [DeliveryPolicy::Fifo, DeliveryPolicy::Lifo] {
        let mut counter =
            TreeCounter::builder(81).expect("builder").delivery(policy).build().expect("tree");
        let out = SequentialDriver::run_identity(&mut counter).expect("runs");
        assert!(out.values_are_sequential());
        assert!(counter.loads().max_load() <= 20 * 3);
    }
}

#[test]
fn concurrent_implementations_are_gap_free_under_every_policy() {
    let n = 16usize;
    for policy in DeliveryPolicy::test_suite() {
        let mut counters: Vec<Box<dyn ConcurrentCounter>> = vec![
            Box::new(CentralCounter::with_policy(n, TraceMode::Off, policy.clone()).expect("c")),
            Box::new(
                CombiningTreeCounter::with_policy(n, TraceMode::Off, policy.clone()).expect("c"),
            ),
            Box::new(
                CountingNetworkCounter::with_policy(n, 4, TraceMode::Off, policy.clone())
                    .expect("c"),
            ),
            Box::new(
                DiffractingTreeCounter::with_policy(n, 2, TraceMode::Off, policy.clone())
                    .expect("c"),
            ),
        ];
        for counter in &mut counters {
            let values =
                ConcurrentDriver::run_batches(counter.as_mut(), 5, 13).expect("batches run");
            assert!(
                ConcurrentDriver::values_are_gap_free(&values),
                "{} under {}",
                counter.name(),
                policy.name()
            );
        }
    }
}
