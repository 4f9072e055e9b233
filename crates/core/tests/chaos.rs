//! Chaos harness (experiment E18): a seeded grid of message drops,
//! duplication and scheduled worker crashes, asserting that the
//! fault-tolerant counter keeps its two contracts under fire:
//!
//! 1. **Sequential values** — every completed `inc` returns exactly the
//!    next integer, no gaps, no repeats, even when messages vanish, get
//!    delivered twice, or workers die mid-handoff;
//! 2. **Bounded loads** — the per-processor bottleneck stays within the
//!    paper's `20k` plus an explicit, documented recovery slack.
//!
//! Every cell is driven purely by `(seed, FaultPlan)`; the replay test
//! asserts a rerun reproduces the fault log, loads and audit bit for
//! bit.
//!
//! Crash-target geometry for `n = 81` (`k = 3`): processors `54..81`
//! are singleton level-3 pools (a crash there is unrecoverable by
//! design), so the chaos grid draws its targets from the recoverable
//! range `0..54` — and, to guarantee recovery actually triggers, from
//! the *initial workers* in that range (`0` for the root, `27 + 3·b`
//! for level-2 nodes). Initiators are drawn from `54..81`, which the
//! plans never crash.

use distctr_core::TreeCounter;
use distctr_sim::{FaultEvent, FaultPlan, ProcessorId, TraceMode};

const N: usize = 81;
const K: u64 = 3;
const OPS: u64 = 30;

/// The documented recovery slack `c·k` beyond the failure-free `20k`
/// bound (see DESIGN.md §7). Each term is measured, not guessed:
///
/// * `fault_slack()` — rebuild traffic plus `k + 1` messages per
///   recovery, charged by the audit to the processors that ran it;
/// * one extra receive per duplicated delivery;
/// * one replayed root path, `2(k + 2)` messages, per watchdog retry.
fn load_bound(c: &TreeCounter) -> u64 {
    20 * K + c.audit().fault_slack() + c.fault_stats().dups + c.watchdog_retries() * 2 * (K + 2)
}

/// Everything observable about one chaos run; `PartialEq` so replay
/// equality is a single assert.
#[derive(Debug, PartialEq)]
struct Outcome {
    values: Vec<u64>,
    loads: Vec<u64>,
    recoveries: u64,
    watchdog_retries: u64,
    fault_log: Vec<FaultEvent>,
    crashed: Vec<ProcessorId>,
}

fn run_cell(plan: &FaultPlan, ops: u64) -> Outcome {
    let mut c = TreeCounter::builder(N)
        .expect("builder")
        .trace(TraceMode::Off)
        .faults(plan.clone())
        .build()
        .expect("counter");
    let mut values = Vec::with_capacity(ops as usize);
    for i in 0..ops {
        // Initiators come from the never-crashed range 54..81.
        let initiator = ProcessorId::new(54 + ((i * 7) % 27) as usize);
        let v = c.inc_fault_tolerant(initiator).expect("recoverable cell").value;
        values.push(v);
    }
    let bound = load_bound(&c);
    let max = c.loads().max_load();
    assert!(max <= bound, "bottleneck {max} exceeds 20k + recovery slack = {bound} under {plan:?}");
    Outcome {
        values,
        loads: c.loads().to_vec(),
        recoveries: c.audit().recoveries(),
        watchdog_retries: c.watchdog_retries(),
        fault_log: c.fault_log().to_vec(),
        crashed: c.crashed_processors(),
    }
}

/// A plan with up to `crashes ≤ k` scheduled kills, all aimed at
/// initial workers of recoverable (multi-member) pools: the root's
/// worker first, then level-2 pool heads in distinct pools so no pool
/// ever loses more than one member.
fn make_plan(seed: u64, drop: f64, dup: f64, crashes: u32) -> FaultPlan {
    assert!(u64::from(crashes) <= K, "at most k crashes per cell");
    let mut plan = FaultPlan::new(seed).drop_prob(drop).dup_prob(dup);
    let b = seed % 9;
    let targets = [0, 27 + 3 * b, 27 + 3 * ((b + 4) % 9)];
    for (i, &t) in targets.iter().take(crashes as usize).enumerate() {
        plan = plan.crash(ProcessorId::new(t as usize), 10 + 25 * i as u64);
    }
    plan
}

#[test]
fn seeded_grid_stays_sequential_and_bounded() {
    let grid = [
        // (drop probability, duplication probability, crashes)
        (0.00, 0.00, 3),
        (0.02, 0.00, 1),
        (0.10, 0.03, 0),
        (0.05, 0.02, 2),
        (0.10, 0.03, 3),
    ];
    for seed in [7u64, 42, 0xC0FFEE] {
        for &(drop, dup, crashes) in &grid {
            let plan = make_plan(seed, drop, dup, crashes);
            let out = run_cell(&plan, OPS);
            let expected: Vec<u64> = (0..OPS).collect();
            assert_eq!(
                out.values, expected,
                "values must stay exactly sequential (seed {seed}, {drop}/{dup}/{crashes})"
            );
            if crashes > 0 {
                assert_eq!(
                    out.crashed.len(),
                    crashes as usize,
                    "every scheduled crash fired (seed {seed})"
                );
                assert!(
                    out.recoveries >= 1,
                    "killing the root's worker must force at least one recovery (seed {seed})"
                );
            }
            if drop > 0.0 || crashes > 0 {
                assert!(
                    !out.fault_log.is_empty(),
                    "an active plan leaves a fault trail (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn chaos_runs_replay_exactly_from_seed_and_plan() {
    // The full observable outcome — values, per-processor loads, the
    // fault log, recovery and retry counts — is a pure function of
    // (seed, FaultPlan). No hidden clock, no ambient randomness.
    let plan = make_plan(0xFA11, 0.08, 0.03, 2);
    let first = run_cell(&plan, 20);
    let second = run_cell(&plan, 20);
    assert_eq!(first, second, "replay from (seed, plan) is bit-for-bit");
    assert!(first.fault_log.iter().any(|e| matches!(e, FaultEvent::Crashed { .. })));
}

#[test]
fn a_different_seed_perturbs_the_faults_but_never_the_values() {
    let a = run_cell(&make_plan(1, 0.10, 0.03, 1), 20);
    let b = run_cell(&make_plan(2, 0.10, 0.03, 1), 20);
    assert_eq!(a.values, b.values, "correctness is seed-independent");
    assert_ne!(
        a.fault_log, b.fault_log,
        "10% drops over hundreds of sends cannot coincide across seeds"
    );
}

#[test]
fn checker_explores_every_order_of_a_chaos_cell() {
    // The model-checked chaos cell: where the seeded grid above samples
    // one delivery order per (seed, plan), the engine-level checker
    // explores *every* admissible order of the same scenario — the
    // plan's scheduled crash fires at the same network-wide delivery
    // count in each trace (`CheckConfig::faults` reuses the `FaultPlan`
    // crash semantics; its probabilistic drops and duplicates are
    // subsumed by schedule exploration). Sequential values, bounded
    // loads, retirement integrity and linearizability are asserted at
    // every quiescent state of every explored trace.
    use distctr_check::{Budget, CheckConfig, Checker};

    let plan = FaultPlan::new(7).crash(ProcessorId::new(0), 10);
    let cfg = CheckConfig::new(N).sequential_ops(&[54, 61]).fault_tolerant().faults(&plan);
    let outcome =
        Checker::new(cfg).budget(Budget { max_transitions: 60_000, ..Budget::default() }).run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
    assert!(outcome.stats.quiescent_leaves >= 1);
}

#[test]
fn crashing_up_to_k_workers_is_survivable_at_n_81() {
    // The acceptance headline: k simultaneous-ish worker crashes at
    // n = 81 with drops and duplication on top, and the counter still
    // hands out 0..ops-1 in order while recovering every dead node.
    let plan = make_plan(99, 0.05, 0.02, 3);
    let out = run_cell(&plan, OPS);
    assert_eq!(out.values, (0..OPS).collect::<Vec<u64>>());
    assert_eq!(out.crashed.len(), 3);
    assert!(out.recoveries >= 3, "each killed worker's nodes were rebuilt");
    assert!(out.watchdog_retries >= 1, "the watchdog actually intervened");
}
