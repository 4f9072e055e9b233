//! Integration tests: every lemma of the paper's upper-bound section,
//! verified on full canonical workloads across tree orders and delivery
//! policies.

use distctr_core::{RetirementPolicy, TreeCounter};
use distctr_sim::{Counter, DeliveryPolicy, ProcessorId, SequentialDriver, TraceMode};

fn canonical_run(k: u32, policy: DeliveryPolicy, seed: u64) -> TreeCounter {
    let n = distctr_core::kmath::leaves_of_order(k) as usize;
    let mut c = TreeCounter::builder(n)
        .expect("builder")
        .delivery(policy)
        .trace(TraceMode::Contacts)
        .build()
        .expect("counter");
    let out = SequentialDriver::run_shuffled(&mut c, seed).expect("sequence");
    assert!(out.values_are_sequential(), "counter must be correct before lemma checks");
    c
}

#[test]
fn all_lemmas_hold_across_orders_and_policies() {
    for k in 2..=4u32 {
        for policy in DeliveryPolicy::test_suite() {
            let name = policy.name();
            let c = canonical_run(k, policy, 1000 + k as u64);
            let audit = c.audit();
            assert!(audit.grow_old_lemma_holds(), "Grow Old (k={k}, {name})");
            assert!(audit.retirement_lemma_holds(), "Retirement (k={k}, {name})");
            assert!(
                audit.retirement_counts_within_pools(c.topology()),
                "Number of Retirements (k={k}, {name}): by-level {:?}, exhausted {:?}",
                audit.retirements_by_level(),
                audit.pool_exhausted_by_level()
            );
            assert!(
                audit.stint_work_within(8 * k as u64 + 8),
                "Inner Node Work (k={k}, {name}): {}",
                audit.max_stint_msgs()
            );
        }
    }
}

#[test]
fn number_of_retirements_matches_level_formula() {
    // Lemma: a level-i node retires at most k^(k-i) - 1 times; the root at
    // most k^k - 1 times.
    for k in 2..=4u32 {
        let c = canonical_run(k, DeliveryPolicy::Fifo, 7);
        let topo = c.topology();
        let audit = c.audit();
        for level in 0..=k {
            let max = audit.max_retirements_on_level(topo, level);
            let bound = topo.pool_size(level) - 1;
            assert!(max <= bound, "k={k} level={level}: max retirements {max} > bound {bound}");
        }
        // Level-k nodes never retire (singleton pools).
        assert_eq!(audit.max_retirements_on_level(topo, k), 0);
    }
}

#[test]
fn leaf_node_work_lemma() {
    // A leaf that never serves an inner node exchanges exactly 2 messages:
    // its inc request and the value reply (level-k parents never retire,
    // so no NewWorkerLeaf traffic).
    for k in 2..=3u32 {
        let c = canonical_run(k, DeliveryPolicy::Fifo, 11);
        let topo = c.topology();
        let n = c.processors();
        // Processors whose id is in no inner node's pool are pure leaves.
        let mut in_pool = vec![false; n];
        for node in topo.nodes() {
            for id in topo.pool(node) {
                in_pool[id as usize] = true;
            }
        }
        let mut pure_leaves = 0;
        for (p, covered) in in_pool.iter().enumerate() {
            if !covered {
                pure_leaves += 1;
                assert_eq!(
                    c.loads().load_of(ProcessorId::new(p)),
                    2,
                    "pure leaf P{p} exchanges exactly 2 messages (k={k})"
                );
            }
        }
        // Levels 1..=k pools cover all ids, so there are no pure leaves by
        // construction — the lemma instead bounds every processor's leaf
        // *component* at 2, which the bottleneck test covers. Assert the
        // pool-coverage fact so this test stays honest.
        assert_eq!(pure_leaves, 0, "pools cover every id (k={k})");
    }
}

#[test]
fn leaf_component_is_two_messages() {
    // Isolate leaf traffic: run with retirement disabled and look at
    // processors that serve no inner node initially. Under the static
    // tree, a non-worker processor's whole load is its leaf component.
    let k = 3u32;
    let n = distctr_core::kmath::leaves_of_order(k) as usize;
    let mut c = TreeCounter::builder(n)
        .expect("builder")
        .retirement(RetirementPolicy::Never)
        .build()
        .expect("counter");
    SequentialDriver::run_identity(&mut c).expect("sequence");
    let topo = c.topology();
    let mut is_initial_worker = vec![false; n];
    for node in topo.nodes() {
        is_initial_worker[topo.initial_worker(node).index()] = true;
    }
    for (p, is_worker) in is_initial_worker.iter().enumerate() {
        if !is_worker {
            assert_eq!(
                c.loads().load_of(ProcessorId::new(p)),
                2,
                "leaf component of P{p} is exactly 2 messages"
            );
        }
    }
}

#[test]
fn hot_spot_lemma_on_tree_traces() {
    // Consecutive operations' contact sets intersect.
    let mut c = TreeCounter::with_order(3).expect("k=3");
    let out = SequentialDriver::run_shuffled(&mut c, 5).expect("sequence");
    let traces: Vec<_> =
        out.results.iter().map(|r| r.trace.as_ref().expect("contacts traced")).collect();
    for pair in traces.windows(2) {
        assert!(
            pair[0].contacts.intersects(&pair[1].contacts),
            "Hot Spot Lemma violated between {} and {}",
            pair[0].op,
            pair[1].op
        );
    }
}

#[test]
fn bottleneck_theorem_scales_with_k_not_n() {
    // O(k) bottleneck: as n grows by ~20x (k: 3 -> 4), the bottleneck
    // grows by at most ~2x.
    let b3 = {
        let c = canonical_run(3, DeliveryPolicy::Fifo, 3);
        c.loads().max_load()
    };
    let b4 = {
        let c = canonical_run(4, DeliveryPolicy::Fifo, 4);
        c.loads().max_load()
    };
    assert!(b4 <= 2 * b3, "bottleneck nearly flat: k=3 -> {b3}, k=4 -> {b4}");
    assert!(b4 <= 20 * 4, "O(k) with constant 20: {b4}");
}

#[test]
#[ignore = "slow: n = 15625 full sequence; run with --ignored"]
fn bottleneck_theorem_at_k5() {
    let c = canonical_run(5, DeliveryPolicy::Fifo, 5);
    let audit = c.audit();
    assert!(audit.grow_old_lemma_holds());
    assert!(audit.retirement_lemma_holds());
    assert!(audit.retirement_counts_within_pools(c.topology()));
    assert!(c.loads().max_load() <= 20 * 5, "bottleneck {}", c.loads().max_load());
}

#[test]
fn recycling_pools_sustain_multi_round_workloads() {
    use distctr_core::PoolPolicy;
    let k = 3u32;
    let n = distctr_core::kmath::leaves_of_order(k) as usize;
    let rounds = 4u64;

    let run = |pool: PoolPolicy| {
        let mut c = TreeCounter::builder(n)
            .expect("builder")
            .trace(TraceMode::Off)
            .pool(pool)
            .build()
            .expect("tree");
        for round in 0..rounds {
            let out = SequentialDriver::run_shuffled(&mut c, round).expect("round runs");
            assert!(out.values_are_sequential() || round > 0, "values keep counting");
        }
        assert_eq!(c.value(), rounds * n as u64, "all ops counted");
        (c.loads().max_load(), c.audit().retirement_lemma_holds())
    };

    let (one_shot, one_shot_lemma) = run(PoolPolicy::OneShot);
    let (recycling, recycling_lemma) = run(PoolPolicy::Recycling);
    assert!(one_shot_lemma && recycling_lemma, "per-op lemmas hold under both policies");
    // One-shot pools drain after ~1 round; the permanent workers then eat
    // Θ(n) per extra round. Recycling keeps the bottleneck at ~O(k) per
    // round.
    assert!(
        2 * recycling < one_shot,
        "recycling sustains the spread: {recycling} vs one-shot {one_shot}"
    );
    assert!(
        recycling <= rounds * 20 * u64::from(k),
        "recycling stays within 20k per round: {recycling}"
    );
}

#[test]
fn messages_stay_logarithmic_in_n() {
    // O(log n)-bit messages: sample every message kind and check sizes.
    use distctr_core::{CounterMsg, NodeRef};
    let node = NodeRef { level: 2, index: 3 };
    for k in [2u32, 4, 6] {
        let n = distctr_core::kmath::leaves_of_order(k);
        let value_bits = 64 - n.leading_zeros() + 1;
        let budget = 8 * (64 - n.leading_zeros()) + 16;
        // A unit op, and a batch as large as the processor count.
        for count in [1, n] {
            let origin = ProcessorId::new(0);
            let msg: CounterMsg =
                distctr_core::Msg::Apply { node, origin, op_seq: 0, count, req: () };
            let bits = msg.wire_size_bits(n, k, 0, value_bits);
            assert!(bits <= budget, "k={k}, count {count}: {bits} bits within O(log n) {budget}");
        }
    }
}

/// What the audit ledger recorded, in the order the pins below list it.
type Ledger = (Vec<(&'static str, u64)>, u64, u64, u64, Vec<u64>);

fn ledger(c: &TreeCounter) -> Ledger {
    let audit = c.audit();
    (
        audit.msgs_by_kind().to_vec(),
        audit.max_nonretiring_msgs_per_op(),
        audit.max_retirements_per_node_per_op(),
        audit.max_stint_msgs(),
        audit.retirements_by_level().to_vec(),
    )
}

#[test]
fn the_audit_ledger_is_pinned_on_three_passes() {
    // Recorded when the ledger was kept in hash maps: the bookkeeping
    // may change its storage, never a count.
    // A unit op is a batch of one, so the pass may run through either.
    let canonical = |k: u32, batches_of_one: bool| {
        let mut c = TreeCounter::with_order(k).expect("counter");
        for i in 0..c.processors() {
            let p = ProcessorId::new(i);
            let inc = if batches_of_one { c.inc_batch(p, 1) } else { c.inc(p) };
            assert_eq!(inc.expect("inc").value, i as u64);
        }
        c
    };
    let kinds = |apply, handoff, handoff_final, new_worker, reply| {
        vec![
            ("apply", apply),
            ("handoff", handoff),
            ("handoff-final", handoff_final),
            ("new-worker", new_worker),
            ("reply", reply),
        ]
    };
    let k3 = (kinds(324, 111, 37, 135, 81), 4, 1, 25, vec![13, 15, 9, 0]);
    assert_eq!(ledger(&canonical(3, false)), k3, "k = 3, id order");
    assert_eq!(ledger(&canonical(3, true)), k3, "k = 3, id order, batches of one");
    assert_eq!(
        ledger(&canonical(4, false)),
        (kinds(5120, 2416, 604, 2888, 1024), 4, 1, 32, vec![132, 168, 176, 128, 0]),
        "k = 4, id order"
    );
    let mut shuffled = TreeCounter::with_order(4).expect("counter");
    let out = SequentialDriver::run_shuffled(&mut shuffled, 0xD15C).expect("sequence");
    assert!(out.values_are_sequential());
    assert_eq!(
        ledger(&shuffled),
        (kinds(5120, 2348, 587, 2801, 1024), 4, 1, 32, vec![134, 165, 160, 128, 0]),
        "k = 4, shuffled by seed 0xD15C"
    );
}
