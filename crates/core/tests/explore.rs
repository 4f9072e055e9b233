//! Exhaustive schedule exploration of the tree protocol: the lemmas hold
//! on *every* delivery order the asynchronous model admits, not just the
//! sampled policies.
//!
//! The explorer is `distctr-check`, the engine-level model checker: it
//! drives `NodeEngine`s directly, prunes commuting deliveries with
//! sleep sets, and evaluates the full invariant set (values, loads,
//! retirement integrity, hot-spot geometry, pairwise linearizability)
//! at every quiescent state.

use distctr_check::{replay, Budget, CheckConfig, Checker, Schedule};

/// A single inc is a chain — each delivery enables exactly the next —
/// so it admits exactly one schedule, and that schedule returns 0.
#[test]
fn every_schedule_of_a_single_inc_is_correct() {
    let cfg = CheckConfig::new(8).sequential_ops(&[5]);
    let outcome = Checker::new(cfg.clone()).run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
    assert!(!outcome.stats.truncated);
    assert_eq!(outcome.stats.quiescent_leaves, 1, "the inc path is a chain: one schedule only");
    assert_eq!(replay(&cfg, &Schedule::default()).values, vec![Some(0)]);
}

#[test]
fn every_schedule_of_a_retirement_cascade_keeps_the_lemmas() {
    // Eight sequential ops on the k = 2 tree cross the paper-default
    // retirement threshold at every level: the checker explores the
    // delivery orders of each op from each reachable quiescent state
    // (retirement cascades fan out handoff parts and NewWorker
    // notifications, which admit many orders), evaluating the full
    // default invariant set everywhere. The budget truncates the
    // combinatorial tail; tens of thousands of transitions is still a
    // far wider sweep than any sampled policy.
    let cfg = CheckConfig::new(8).sequential_ops(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let outcome = Checker::new(cfg.clone())
        .budget(Budget { max_transitions: 120_000, ..Budget::default() })
        .run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
    assert!(outcome.stats.quiescent_leaves >= 1);

    // The deterministic mainline (empty schedule = pure FIFO drain)
    // really exercised a cascade and counted every op.
    let mainline = replay(&cfg, &Schedule::default());
    assert!(mainline.violation.is_none(), "{:?}", mainline.violation);
    assert!(mainline.retirements >= 1, "the sequence must trigger a retirement cascade");
    let values: Vec<u64> = mainline.values.iter().map(|v| v.expect("all ops complete")).collect();
    assert_eq!(values, (0..8).collect::<Vec<u64>>(), "mainline counted all ops in order");
}

#[test]
fn concurrent_ops_across_the_cascade_window_keep_the_lemmas() {
    // Cross-operation concurrency the old per-op DFS could not model:
    // a warmed tree with two increments in flight at once, straddling
    // the root's retirement.
    let cfg = CheckConfig::new(8).warmup(&[0, 2, 4]).concurrent_ops(&[1, 6]);
    let outcome =
        Checker::new(cfg).budget(Budget { max_transitions: 60_000, ..Budget::default() }).run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
    assert!(outcome.stats.sleep_skips > 0, "sleep sets prune commuting deliveries");
}
