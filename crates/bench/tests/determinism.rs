//! Report determinism: every row of the experiment table marked
//! `repeats` is a pure function of its seed, so its `--quick` text is
//! pinned byte for byte in `tests/golden/report_quick.txt` (the output
//! of `report --quick` over those rows, minus its header).
//! This is what makes EXPERIMENTS.md reproducible, and what lets CI run
//! those rows as a check instead of a measurement.

use distctr_bench::{exp_bottleneck, table, Size, EXPERIMENTS};

#[test]
fn experiment_tables_are_deterministic() {
    let mut report = String::new();
    for row in EXPERIMENTS.iter().filter(|e| e.repeats) {
        let outcome = (row.run)(Size::Quick);
        assert!(!outcome.text.is_empty(), "{} printed nothing", row.id);
        assert!(outcome.bench_file.is_none() && outcome.gate.is_ok(), "{} is ungated", row.id);
        report.push_str(&outcome.text);
        report.push('\n');
    }
    let golden = include_str!("golden/report_quick.txt");
    if let Some((i, (got, want))) =
        report.lines().zip(golden.lines()).enumerate().find(|(_, (got, want))| got != want)
    {
        panic!("report line {} differs from the golden:\n  got:  {got}\n  want: {want}", i + 1);
    }
    assert_eq!(report.lines().count(), golden.lines().count(), "report length differs");
    assert_eq!(report, golden, "report differs from the golden in line endings");
    let sizes = table::e2_sizes(Size::Quick);
    assert_eq!(exp_bottleneck::e2_csv(sizes), exp_bottleneck::e2_csv(sizes), "E2 CSV");
}
