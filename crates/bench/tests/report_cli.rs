//! The `report` binary's command line: a selection that cannot run is
//! refused with exit status 2 and the known ids, before the header —
//! not answered with an empty report and exit status 0, which is how a
//! typo in a CI step used to pass — and a run below full size leaves the
//! checked-in `BENCH_*.json` files alone.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("run report")
}

fn assert_usage_error(args: &[&str], complaint: &str) {
    let out = report(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report: {:?}", out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(complaint), "{args:?}: {err}");
    assert!(err.contains("e15 e17 e22* e23*"), "{args:?} lists the known ids: {err}");
}

#[test]
fn an_id_no_row_answers_to_is_refused() {
    assert_usage_error(&["e99"], "no experiment answers to 'e99'");
    assert_usage_error(&["e3", "e2x", "--quick"], "no experiment answers to 'e2x'");
    assert_usage_error(&["e3", "--quik"], "unknown flag --quik");
}

#[test]
fn a_size_a_selected_row_does_not_have_is_refused() {
    assert_usage_error(&["e3", "e25", "--smoke"], "no --smoke size for: e3");
    assert_usage_error(&["--smoke"], "no --smoke size for: f1 f3 f4 e1 ");
}

#[test]
fn selection_is_by_id_or_alias_in_report_order() {
    let out = report(&["--quick", "F4", "e3", "f2", "e3"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let at = |needle: &str| text.find(needle).unwrap_or_else(|| panic!("no {needle} in {text}"));
    assert!(at("mode: quick") < at("Figure 1") && at("Figure 1") < at("Figure 4"));
    assert!(at("Figure 4") < at("E3."));
    assert_eq!(text.matches("E3.").count(), 1, "a row runs once");
}

#[test]
fn a_smoke_run_writes_no_bench_file() {
    let dir = std::env::temp_dir().join(format!("report-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["e25", "--smoke"])
        .current_dir(&dir)
        .output()
        .expect("run report");
    let wrote = dir.join("BENCH_scale.json").exists();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("mode: smoke"));
    assert!(!wrote, "a smoke run overwrote BENCH_scale.json");
}
