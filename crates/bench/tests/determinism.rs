//! Report determinism: every row of the experiment table marked
//! `repeats` is a pure function of its seed — two runs in the same
//! process produce byte-identical text. This is what makes
//! EXPERIMENTS.md reproducible, and what lets CI run those rows as a
//! check instead of a measurement.

use distctr_bench::{exp_bottleneck, table, Size, EXPERIMENTS};

#[test]
fn experiment_tables_are_deterministic() {
    for row in EXPERIMENTS.iter().filter(|e| e.repeats) {
        let (first, second) = ((row.run)(Size::Quick), (row.run)(Size::Quick));
        assert_eq!(first, second, "{} differs between two runs", row.id);
        assert!(!first.text.is_empty(), "{} printed nothing", row.id);
        assert!(first.bench_file.is_none() && first.gate.is_ok(), "{} is ungated", row.id);
    }
    let sizes = table::e2_sizes(Size::Quick);
    assert_eq!(exp_bottleneck::e2_csv(sizes), exp_bottleneck::e2_csv(sizes), "E2 CSV");
}
