//! Differential testing: under the paper's sequential model, every
//! counter implementation must produce the *identical* observable
//! behaviour — values 0, 1, 2, ... in operation order — regardless of
//! algorithm, delivery policy, seed or initiator permutation. Any
//! divergence between two implementations is a bug in one of them.

use distctr::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn all_counters(n: usize, policy: DeliveryPolicy) -> Vec<Box<dyn Counter>> {
    let width = ((n as f64).sqrt() as usize).next_power_of_two().max(2);
    vec![
        Box::new(
            TreeCounter::builder(n)
                .expect("builder")
                .trace(TraceMode::Off)
                .delivery(policy.clone())
                .build()
                .expect("tree"),
        ),
        Box::new(
            TreeCounter::builder(n)
                .expect("builder")
                .trace(TraceMode::Off)
                .delivery(policy.clone())
                .retirement(RetirementPolicy::Never)
                .build()
                .expect("static"),
        ),
        Box::new(CentralCounter::with_policy(n, TraceMode::Off, policy.clone()).expect("central")),
        Box::new(
            CombiningTreeCounter::with_policy(n, TraceMode::Off, policy.clone())
                .expect("combining"),
        ),
        Box::new(
            CountingNetworkCounter::with_policy(n, width, TraceMode::Off, policy.clone())
                .expect("counting"),
        ),
        Box::new(
            DiffractingTreeCounter::with_policy(n, width.trailing_zeros(), TraceMode::Off, policy)
                .expect("diffracting"),
        ),
    ]
}

#[test]
fn every_pair_of_implementations_agrees_on_every_schedule() {
    let n = 16usize;
    for seed in 0..5u64 {
        // One shared initiator order per seed (trees round n up, so draw
        // the order per counter from its own size with the same seed).
        for policy in DeliveryPolicy::test_suite() {
            let mut value_sequences: Vec<(String, Vec<u64>)> = Vec::new();
            for mut counter in all_counters(n, policy.clone()) {
                let mut order: Vec<ProcessorId> =
                    (0..counter.processors()).map(ProcessorId::new).collect();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                order.shuffle(&mut rng);
                order.truncate(n); // same op count everywhere
                let mut values = Vec::with_capacity(n);
                for &p in &order {
                    values.push(counter.inc(p).expect("inc runs").value);
                }
                value_sequences.push((counter.name().to_string(), values));
            }
            let (ref_name, ref_values) = &value_sequences[0];
            for (name, values) in &value_sequences[1..] {
                assert_eq!(
                    values,
                    ref_values,
                    "{name} diverges from {ref_name} (seed {seed}, policy {})",
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn observable_state_is_delay_independent_per_implementation() {
    // For each implementation: the same op order under FIFO vs LIFO vs
    // random delays yields the same value sequence (sequential ops hide
    // all asynchrony).
    let n = 16usize;
    for idx in 0..6usize {
        let mut sequences = Vec::new();
        for policy in DeliveryPolicy::test_suite() {
            let mut counter = all_counters(n, policy).remove(idx);
            let mut values = Vec::new();
            for i in 0..n {
                values.push(
                    counter
                        .inc(ProcessorId::new(i % counter.processors()))
                        .expect("inc runs")
                        .value,
                );
            }
            sequences.push((counter.name().to_string(), values));
        }
        let (name, first) = &sequences[0];
        for (_, other) in &sequences[1..] {
            assert_eq!(other, first, "{name} must be delay-independent");
        }
    }
}

#[test]
#[ignore = "slow: k = 6 means n = 279,936 processors; run with --ignored --release"]
fn tree_counter_at_quarter_million_processors() {
    // The largest exact tree order that fits comfortably: k = 6,
    // n = 279,936. The Bottleneck Theorem holds with the same constant.
    let n = 279_936usize;
    let mut counter =
        TreeCounter::builder(n).expect("builder").trace(TraceMode::Off).build().expect("tree");
    let out = SequentialDriver::run_shuffled(&mut counter, 6).expect("sequence runs");
    assert!(out.values_are_sequential());
    let bottleneck = counter.loads().max_load();
    assert!(bottleneck >= 6, "lower bound k = 6");
    assert!(bottleneck <= 20 * 6, "O(k) bound: {bottleneck}");
    let audit = counter.audit();
    assert!(audit.grow_old_lemma_holds());
    assert!(audit.retirement_lemma_holds());
    assert!(audit.retirement_counts_within_pools(counter.topology()));
    assert!(counter.loads().gini() < 0.8, "load is spread, not concentrated");
}
