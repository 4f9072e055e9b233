//! Property-based tests (proptest) over the core invariants: counting
//! correctness for arbitrary permutations and seeds, Hot Spot chains,
//! DAG/list modelling, lemma audits, and bound arithmetic.

use distctr::bound::theory;
use distctr::prelude::*;
use distctr::sim::{hot_spot_violations, CommList};
use proptest::prelude::*;

fn arbitrary_permutation(n: usize) -> impl Strategy<Value = Vec<ProcessorId>> {
    Just((0..n).collect::<Vec<usize>>())
        .prop_shuffle()
        .prop_map(|v| v.into_iter().map(ProcessorId::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tree_counter_counts_any_permutation(order in arbitrary_permutation(27)) {
        let mut counter = TreeCounter::new(27).expect("tree");
        // n = 27 rounds up to 81; restrict ops to the requested 27
        // initiators — a prefix workload is also legal (ops need not
        // come from all processors).
        for (i, &p) in order.iter().enumerate() {
            let r = counter.inc(p).expect("inc runs");
            prop_assert_eq!(r.value, i as u64);
        }
    }

    #[test]
    fn tree_counter_lemmas_hold_for_any_seed(seed in any::<u64>()) {
        let mut counter = TreeCounter::new(81).expect("tree");
        let out = SequentialDriver::run_shuffled(&mut counter, seed).expect("runs");
        prop_assert!(out.values_are_sequential());
        prop_assert!(counter.audit().grow_old_lemma_holds());
        prop_assert!(counter.audit().retirement_lemma_holds());
        prop_assert!(counter.audit().retirement_counts_within_pools(counter.topology()));
        prop_assert!(counter.loads().max_load() <= 20 * 3);
        prop_assert!(counter.loads().max_load() >= 3);
    }

    #[test]
    fn tree_counter_correct_under_random_delays(seed in any::<u64>(), max_delay in 1u64..16) {
        let mut counter = TreeCounter::builder(27)
            .expect("builder")
            .delivery(DeliveryPolicy::random_delay(seed, max_delay))
            .build()
            .expect("tree");
        let out = SequentialDriver::run_shuffled(&mut counter, seed ^ 0xABCD).expect("runs");
        prop_assert!(out.values_are_sequential());
        prop_assert!(counter.audit().retirement_lemma_holds());
    }

    #[test]
    fn hot_spot_chain_for_random_workloads(seed in any::<u64>()) {
        let mut counter = TreeCounter::new(27).expect("tree");
        let out = SequentialDriver::run_shuffled(&mut counter, seed).expect("runs");
        let violations =
            hot_spot_violations(out.results.iter().map(|r| &r.trace.as_ref().expect("contacts").contacts));
        prop_assert!(violations.is_empty(), "Hot Spot Lemma violated between ops i and i + 1 for i in {violations:?}");
    }

    #[test]
    fn comm_lists_model_their_dags(seed in any::<u64>(), initiator in 0usize..27) {
        let mut counter = TreeCounter::builder(27)
            .expect("builder")
            .trace(TraceMode::Full)
            .build()
            .expect("tree");
        // A few warmup ops so traces include retirement traffic.
        SequentialDriver::run_shuffled(&mut counter, seed).expect("warmup");
        let r = counter.inc(ProcessorId::new(initiator)).expect("inc");
        let trace = r.trace.expect("full trace");
        let dag = trace.dag.expect("dag");
        let list = CommList::from_dag(&dag);
        prop_assert!(list.models(&dag));
        prop_assert_eq!(list.len_arcs(), dag.arc_count() as u64 - (dag.sources().len() as u64 - 1),
            "every arc corresponds to one list step up to extra sources");
    }

    #[test]
    fn bound_arithmetic_is_consistent(n in 1u64..3_000_000) {
        let k = theory::lower_bound_k(n);
        prop_assert!(distctr::core::kmath::leaves_of_order(k) <= n || k == 1);
        if k < distctr::core::kmath::MAX_ORDER {
            prop_assert!(distctr::core::kmath::leaves_of_order(k + 1) > n);
        }
        let x = theory::lower_bound_continuous(n as f64);
        prop_assert!(x >= f64::from(k) - 1e-9, "continuous >= discrete: {x} vs {k}");
        prop_assert!(x < f64::from(k + 1) + 1e-9, "continuous < k+1: {x} vs {}", k + 1);
    }

    #[test]
    fn amgm_inequality_for_any_lengths(lens in prop::collection::vec(0u64..40, 1..64)) {
        prop_assert!(theory::amgm_holds(&lens));
    }

    #[test]
    fn gap_freedom_for_random_batch_splits(batch in 1usize..17, seed in any::<u64>()) {
        let mut counter = CombiningTreeCounter::new(16).expect("combining");
        let values = ConcurrentDriver::run_batches(&mut counter, batch, seed).expect("runs");
        prop_assert!(ConcurrentDriver::values_are_gap_free(&values));
    }

    #[test]
    fn counting_network_gap_free_for_any_batching(batch in 1usize..17, seed in any::<u64>()) {
        let mut counter = CountingNetworkCounter::new(16, 8).expect("counting");
        let values = ConcurrentDriver::run_batches(&mut counter, batch, seed).expect("runs");
        prop_assert!(ConcurrentDriver::values_are_gap_free(&values));
        prop_assert!(distctr::baselines::has_step_property(&counter.exit_counts_by_rank()));
    }

    #[test]
    fn diffracting_tree_gap_free_for_any_batching(batch in 1usize..17, seed in any::<u64>()) {
        let mut counter = DiffractingTreeCounter::new(16, 3).expect("diffracting");
        let values = ConcurrentDriver::run_batches(&mut counter, batch, seed).expect("runs");
        prop_assert!(ConcurrentDriver::values_are_gap_free(&values));
    }
}
