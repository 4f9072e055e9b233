//! End-to-end tests of the model checker: soundness on the healthy
//! protocol, and bug-finding with minimized counterexample replay on a
//! deliberately seeded double-retirement mutation (mutation testing for
//! the checker itself — the acceptance gate of the `crates/check`
//! tentpole).

use distctr_check::{
    replay, replay_with, Budget, CheckConfig, Checker, Invariant, Mutation, NoDoubleRetirement,
    Schedule,
};
use distctr_core::engine::EngineConfig;
use distctr_core::protocol::PoolPolicy;

/// An engine configuration that retires a node on its very first apply
/// (threshold 2; every counter apply ages a node by 2), so small
/// workloads exercise the full handoff machinery.
fn eager_retirement() -> EngineConfig {
    EngineConfig {
        threshold: Some(2),
        pool_policy: PoolPolicy::OneShot,
        dedupe: false,
        persist: false,
    }
}

#[test]
fn healthy_concurrent_ops_hold_on_every_order() {
    let outcome = Checker::new(CheckConfig::new(8).concurrent_ops(&[0, 4])).run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
    assert!(!outcome.stats.truncated);
    assert!(outcome.stats.quiescent_leaves >= 2, "two ops admit several orders");
    assert!(outcome.stats.sleep_skips > 0, "sleep sets must prune commuting deliveries");
}

#[test]
fn healthy_retirement_cascade_holds_on_every_order() {
    // Warmed so the explored ops straddle the root's retirement.
    let cfg = CheckConfig::new(8).warmup(&[0, 2, 4]).concurrent_ops(&[1, 6]);
    let outcome =
        Checker::new(cfg).budget(Budget { max_transitions: 60_000, ..Budget::default() }).run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
}

#[test]
fn healthy_crash_exploration_with_watchdog_holds() {
    let cfg = CheckConfig::new(8).sequential_ops(&[0, 4]).fault_tolerant().explore_crashes(&[0], 1);
    let outcome =
        Checker::new(cfg).budget(Budget { max_transitions: 30_000, ..Budget::default() }).run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
    assert!(outcome.stats.quiescent_leaves > 0);
}

#[test]
fn batched_ops_partition_the_range_under_crashes_on_every_order() {
    // The batch-aware correctness condition (`range-partition`: every
    // completed op owns [v, v + m), ranges disjoint, full completion
    // tiles [0, total)) holds across every delivery order and every
    // single-crash timing, on each supported scale.
    for n in [2usize, 4, 8] {
        let candidate = n - 1;
        let cfg = CheckConfig::new(n)
            .sequential_ops(&[0, n / 2])
            .batch_counts(&[4, 3])
            .fault_tolerant()
            .explore_crashes(&[candidate], 1);
        let outcome =
            Checker::new(cfg).budget(Budget { max_transitions: 40_000, ..Budget::default() }).run();
        assert!(outcome.holds(), "violation at n = {n}: {:?}", outcome.violation);
        assert!(outcome.stats.quiescent_leaves > 0, "explored to quiescence at n = {n}");
    }
}

#[test]
fn a_mixed_batch_and_unit_workload_stays_exact_on_every_order() {
    // Concurrent unit + batch ops: the batch's range and the unit incs
    // interleave arbitrarily, but the handed-out ranges always
    // partition [0, 6).
    let cfg = CheckConfig::new(8).concurrent_ops(&[0, 4, 6]).batch_counts(&[1, 4, 1]);
    let outcome =
        Checker::new(cfg).budget(Budget { max_transitions: 60_000, ..Budget::default() }).run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
    assert!(outcome.stats.quiescent_leaves >= 2, "the interleavings are genuinely explored");
}

#[test]
fn seeded_double_retirement_bug_is_found_and_minimized() {
    // The ResurrectRetired mutation re-installs every retiring node at
    // its old worker: the node is served twice, and enough traffic
    // retires the resurrected copy from an already-used pool slot.
    let cfg = CheckConfig::new(8)
        .concurrent_ops(&[0, 1])
        .engine(eager_retirement())
        .mutation(Mutation::ResurrectRetired);
    let outcome = Checker::new(cfg.clone()).run();
    let v = outcome.violation.expect("the seeded bug must be found");
    assert!(
        v.invariant == "unique-hosting" || v.invariant == "no-double-retirement",
        "caught by a hosting/retirement invariant, got {}",
        v.invariant
    );
    assert!(v.minimized.choices.len() <= v.schedule.choices.len());

    // The minimized schedule reproduces the same violation...
    let re = replay(&cfg, &v.minimized);
    assert_eq!(re.violation.expect("must reproduce").invariant, v.invariant);

    // ...survives serialization...
    let parsed = Schedule::parse(&v.minimized.serialize()).expect("round-trips");
    assert_eq!(parsed, v.minimized);

    // ...and the generated test snippet embeds config + schedule.
    let snippet = v.minimized.to_test_snippet(&cfg, &v.invariant);
    assert!(snippet.contains("CheckConfig::new(8)"));
    assert!(snippet.contains(&v.invariant));
}

#[test]
fn double_retirement_specifically_reproduces_from_minimized_schedule() {
    // Restricting the invariant set forces the checker past the
    // earlier unique-hosting symptom to the double retirement itself:
    // the resurrected node must retire a second time, which takes a
    // larger workload.
    let invariants = || -> Vec<Box<dyn Invariant>> { vec![Box::new(NoDoubleRetirement)] };
    let cfg = CheckConfig::new(8)
        .concurrent_ops(&[0, 1, 2, 3])
        .engine(eager_retirement())
        .mutation(Mutation::ResurrectRetired);
    let outcome = Checker::new(cfg.clone())
        .invariants(invariants())
        .budget(Budget { max_transitions: 200_000, ..Budget::default() })
        .run();
    let v = outcome.violation.expect("the double retirement must be found");
    assert_eq!(v.invariant, "no-double-retirement");
    let re = replay_with(&cfg, &v.minimized, &invariants());
    assert_eq!(re.violation.expect("must reproduce").invariant, "no-double-retirement");
}

#[test]
fn healthy_protocol_never_trips_the_mutation_invariants() {
    // Sanity for the mutation tests above: the same workload without
    // the mutation is clean under the same eager-retirement config.
    let cfg = CheckConfig::new(8).concurrent_ops(&[0, 1]).engine(eager_retirement());
    let outcome = Checker::new(cfg).run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
}

#[test]
fn replay_skips_infeasible_choices_and_reports_values() {
    let cfg = CheckConfig::new(8).concurrent_ops(&[0, 4]);
    // Sequence numbers that never exist are skipped; the drain tail
    // completes both ops regardless.
    let schedule = Schedule::parse("d999 d1000").expect("well-formed");
    let outcome = replay(&cfg, &schedule);
    assert!(outcome.violation.is_none());
    assert_eq!(outcome.skipped, 2);
    let mut values: Vec<u64> = outcome.values.iter().map(|v| v.expect("completed")).collect();
    values.sort_unstable();
    assert_eq!(values, vec![0, 1]);
}

#[test]
fn identical_replays_agree_on_fingerprint() {
    let cfg = CheckConfig::new(8).warmup(&[0]).concurrent_ops(&[1, 6]);
    let a = replay(&cfg, &Schedule::default());
    let b = replay(&cfg, &Schedule::default());
    assert_eq!(a.fingerprint, b.fingerprint, "replay must be deterministic");
}

#[test]
fn schedule_parse_rejects_garbage() {
    assert!(Schedule::parse("d12 x3").is_err());
    assert!(Schedule::parse("dx").is_err());
    assert!(Schedule::parse("").expect("empty is fine").choices.is_empty());
}
