//! Negative controls: the checker must call each kind of wrong output
//! wrong, and the comparison must call a regression a regression.

use distbench::check::Checker;
use distbench::compare::{compare, judge, Verdict};
use distbench::json::Json;
use distbench::metrics::{Better, END_TO_END};

fn fed(incs: &[(u64, u64)], reads: &[(usize, u64, u64)]) -> Vec<String> {
    let mut checker = Checker::new();
    for &(key, value) in incs {
        checker.inc(key, value);
    }
    for &(conn, key, value) in reads {
        checker.read(conn, key, value);
    }
    checker.violations()
}

#[test]
fn a_correct_stream_passes() {
    // Out of order across connections is fine; gap-free and distinct is the contract.
    let violations = fed(
        &[(0, 2), (0, 0), (0, 1), (7, 0), (7, 1), (9, 0)],
        &[(0, 7, 0), (1, 7, 2), (0, 7, 1), (0, 7, 1), (1, 9, 1)],
    );
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn a_duplicated_value_is_caught() {
    let violations = fed(&[(0, 0), (0, 1), (0, 1), (0, 2)], &[]);
    assert!(violations.iter().any(|v| v.contains("granted twice")), "{violations:?}");
}

#[test]
fn a_gap_is_caught() {
    let violations = fed(&[(0, 0), (0, 1), (0, 3)], &[]);
    assert!(violations.iter().any(|v| v.contains("missing")), "{violations:?}");
}

#[test]
fn a_per_key_regression_is_caught_even_when_values_are_globally_distinct() {
    // Key 5 hands out 0, 1, then 1 again; key 6 skips 1. Across both keys
    // every (key, value) pair but one is new, and the multiset {0,1,1,0,2}
    // would pass a check that ignored keys.
    let violations = fed(&[(5, 0), (5, 1), (6, 0), (5, 1), (6, 2)], &[]);
    assert!(violations.iter().any(|v| v.starts_with("key 5") && v.contains("twice")));
    assert!(violations.iter().any(|v| v.starts_with("key 6") && v.contains("missing")));
}

#[test]
fn a_backwards_read_is_caught() {
    let violations = fed(&[(3, 0), (3, 1), (3, 2)], &[(0, 3, 2), (0, 3, 1)]);
    assert!(violations.iter().any(|v| v.contains("backwards")), "{violations:?}");
}

#[test]
fn a_read_beyond_the_final_value_is_caught() {
    let violations = fed(&[(3, 0), (3, 1)], &[(0, 3, 5)]);
    assert!(violations.iter().any(|v| v.contains("final value")), "{violations:?}");
}

#[test]
fn a_garbage_value_is_caught_without_allocating_for_it() {
    let violations = fed(&[(0, 0), (0, u64::MAX)], &[]);
    assert!(violations.iter().any(|v| v.contains("beyond")), "{violations:?}");
}

#[test]
fn compare_names_a_regression_and_refuses_to_judge_a_noisy_cell() {
    // Lower is better, bound 10 %: 11 % slower is worse, 9 % is not.
    assert_eq!(judge(100.0, 111.0, Better::Lower, 0.10, 0.02), Verdict::Worse);
    assert_eq!(judge(100.0, 109.0, Better::Lower, 0.10, 0.02), Verdict::Ok);
    assert_eq!(judge(100.0, 50.0, Better::Lower, 0.10, 0.02), Verdict::Ok);
    // Higher is better: losing 11 % of goodput is worse.
    assert_eq!(judge(100.0, 89.0, Better::Higher, 0.10, 0.02), Verdict::Worse);
    assert_eq!(judge(100.0, 120.0, Better::Higher, 0.10, 0.02), Verdict::Ok);
    // A value looser than the bound: unresolved either way.
    assert_eq!(judge(100.0, 150.0, Better::Lower, 0.10, 0.12), Verdict::Unresolved);
    assert_eq!(judge(100.0, 100.0, Better::Lower, 0.10, 0.12), Verdict::Unresolved);
    // An exact count must be bit-identical within 0.1 %.
    assert_eq!(judge(17.0, 17.0, Better::Lower, 0.001, 0.0), Verdict::Ok);
    assert_eq!(judge(17.0, 17.1, Better::Lower, 0.001, 0.0), Verdict::Worse);
}

/// A one-workload result document in which every metric is 100 and tight,
/// but `latency_p50_us` has the given value and looseness.
fn result_doc(p50: f64, looseness: f64) -> Json {
    let cell = |value, looseness| {
        Json::obj([("value", Json::Num(value)), ("looseness", Json::Num(looseness))])
    };
    let metrics = END_TO_END.iter().map(|m| {
        (m.name, if m.name == "latency_p50_us" { cell(p50, looseness) } else { cell(100.0, 0.0) })
    });
    Json::obj([("workload", Json::str("serve-rtt")), ("metrics", Json::obj(metrics))])
}

#[test]
fn a_run_that_never_saw_the_floor_makes_its_cell_unresolved_from_either_side() {
    let verdict = |a: &Json, b: &Json| {
        let rows = compare(a, b).expect("two results compare");
        assert_eq!(rows.len(), END_TO_END.len());
        rows.iter().find(|r| r.metric == "latency_p50_us").expect("the p50 row").verdict
    };
    // 1.46 -> 1.72 is 18 % worse, against a bound of 15 %.
    let (tight, slow_and_loose) = (result_doc(1.46, 0.03), result_doc(1.72, 0.30));
    assert_eq!(verdict(&tight, &result_doc(1.72, 0.03)), Verdict::Worse);
    assert_eq!(verdict(&tight, &slow_and_loose), Verdict::Unresolved);
    assert_eq!(verdict(&slow_and_loose, &tight), Verdict::Unresolved);
    assert_eq!(verdict(&tight, &result_doc(1.47, 0.03)), Verdict::Ok);
}
