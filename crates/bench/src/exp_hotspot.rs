//! Experiments E6 (Hot Spot Lemma on traces) and E10 (the paper's
//! "Dynamic Quorum System" against the Naor–Wool load bound).

use distctr_analysis::{fmt_f64, Table};
use distctr_sim::{
    hot_spot_violations, ContactSet, DeliveryPolicy, ProcessorId, SequenceOutcome, TraceMode,
};

use crate::algos::{run_shuffled_dyn, Algo, REPORT_SEED};

/// E6 — the Hot Spot Lemma checked on recorded traces of every
/// implementation under every delivery policy.
#[must_use]
pub fn e6_hot_spot(n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("E6. Hot Spot Lemma: consecutive contact sets intersect (n = {n})\n\n"));
    let mut table =
        Table::new(vec!["algorithm", "policy", "pairs checked", "violations", "verdict"]);
    for algo in Algo::comparison_set(n) {
        for policy in DeliveryPolicy::test_suite() {
            let pname = policy.name();
            let row = (|| -> Result<(usize, usize), String> {
                let mut counter = algo.build(n, TraceMode::Contacts, policy)?;
                let outcome =
                    run_shuffled_dyn(counter.as_mut(), REPORT_SEED).map_err(|e| e.to_string())?;
                let pairs = outcome.results.len().saturating_sub(1);
                let violations = hot_spot_violations(contacts_of(&outcome)).len();
                Ok((pairs, violations))
            })();
            match row {
                Ok((pairs, violations)) => {
                    table.row(vec![
                        algo.name(),
                        pname.to_string(),
                        pairs.to_string(),
                        violations.to_string(),
                        if violations == 0 { "holds".into() } else { "VIOLATED".into() },
                    ]);
                }
                Err(e) => {
                    table.row(vec![
                        algo.name(),
                        pname.to_string(),
                        "-".into(),
                        "-".into(),
                        format!("error: {e}"),
                    ]);
                }
            }
        }
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

/// The operations' contact sets, in execution order.
fn contacts_of(outcome: &SequenceOutcome) -> impl Iterator<Item = &ContactSet> {
    outcome.results.iter().map(|r| &r.trace.as_ref().expect("contacts recorded").contacts)
}

/// An execution's contact-set family read as a quorum system — the
/// paper's "Dynamic Quorum System".
#[derive(Debug)]
struct DynamicQuorumView {
    /// Number of operations (quorums).
    operations: usize,
    /// Smallest contact-set size.
    min_size: usize,
    /// Largest contact-set size.
    max_size: usize,
    /// Mean contact-set size.
    mean_size: f64,
    /// The processor in the most contact sets, with its count.
    busiest: Option<(ProcessorId, usize)>,
    /// Fraction of operations touching the busiest processor: the load
    /// of the family under the strategy that picks each op's set once.
    load: f64,
    /// Pairs of operations, consecutive or not, whose contact sets are
    /// disjoint. Zero for a quorum system.
    disjoint_pairs: usize,
    /// Consecutive pairs that break the Hot Spot Lemma.
    hot_spot_violations: usize,
}

/// Builds the dynamic-quorum view of an execution from its per-op
/// contact sets, over a network of `processors` processors.
fn dynamic_view(contacts: &[&ContactSet], processors: usize) -> DynamicQuorumView {
    let operations = contacts.len();
    let sizes = contacts.iter().map(|c| c.len());
    let mean_size =
        if operations == 0 { 0.0 } else { sizes.clone().sum::<usize>() as f64 / operations as f64 };
    let mut counts = vec![0usize; processors];
    for p in contacts.iter().flat_map(|c| c.iter()) {
        counts[p.index()] += 1;
    }
    let busiest = counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (ProcessorId::new(i), c));
    let disjoint_pairs = contacts
        .iter()
        .enumerate()
        .map(|(i, a)| contacts[i + 1..].iter().filter(|b| !a.intersects(b)).count())
        .sum();
    DynamicQuorumView {
        operations,
        min_size: sizes.clone().min().unwrap_or(0),
        max_size: sizes.max().unwrap_or(0),
        mean_size,
        busiest,
        load: busiest.map_or(0.0, |(_, c)| c as f64 / operations as f64),
        disjoint_pairs,
        hot_spot_violations: hot_spot_violations(contacts.iter().copied()).len(),
    }
}

/// E10 — each execution's contact sets read as the paper's "Dynamic
/// Quorum System", at every size in `sizes`. The busiest processor's
/// share of the operations stands against `1/√n`, the least load any
/// pairwise-intersecting family over `n` processors can have (Naor and
/// Wool, "The load, capacity and availability of quorum systems", SIAM
/// J. Comput. 1998). The count of all disjoint pairs says whether that
/// bound binds the family at all.
#[must_use]
pub fn e10_dynamic_quorums(sizes: &[usize]) -> String {
    let mut out = String::new();
    out.push_str(
        "E10. The dynamic quorum system: busiest share vs the Naor-Wool load 1/sqrt(n)\n\n",
    );
    let mut table = Table::new(vec![
        "algorithm",
        "n",
        "ops",
        "contact size (min/mean/max)",
        "busiest",
        "busiest share",
        "1/sqrt(n)",
        "disjoint pairs",
        "hot spot",
    ]);
    for &n in sizes {
        for algo in [Algo::Central, Algo::RetirementTree] {
            let mut counter =
                algo.build(n, TraceMode::Contacts, DeliveryPolicy::Fifo).expect("builds");
            let outcome = run_shuffled_dyn(counter.as_mut(), REPORT_SEED).expect("runs");
            let contacts: Vec<&ContactSet> = contacts_of(&outcome).collect();
            let processors = counter.processors();
            let view = dynamic_view(&contacts, processors);
            let pairs = view.operations * view.operations.saturating_sub(1) / 2;
            table.row(vec![
                algo.name(),
                processors.to_string(),
                view.operations.to_string(),
                format!("{}/{}/{}", view.min_size, fmt_f64(view.mean_size), view.max_size),
                view.busiest.map_or("-".into(), |(p, c)| format!("{p} ({c} ops)")),
                fmt_f64(view.load),
                fmt_f64(1.0 / (processors as f64).sqrt()),
                format!("{} of {pairs}", view.disjoint_pairs),
                if view.hot_spot_violations == 0 { "holds".into() } else { "VIOLATED".into() },
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "(1/sqrt(n) bounds only families whose sets pairwise intersect; the tree's sets\n \
         intersect only in succession, so its busiest share may fall below it)\n",
    );
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> ContactSet {
        ids.iter().map(|&i| ProcessorId::new(i)).collect()
    }

    #[test]
    fn e6_no_violations_at_n8() {
        let report = e6_hot_spot(8);
        assert!(!report.contains("VIOLATED"), "{report}");
        assert!(!report.contains("error"), "{report}");
        assert!(report.contains("lifo"));
    }

    #[test]
    fn e10_quorum_tables_render() {
        let report = e10_dynamic_quorums(&[81]);
        assert!(!report.contains("VIOLATED"), "{report}");
        let row = |algo: &str| -> String {
            let line = report.lines().find(|l| l.starts_with(algo)).expect("row");
            line.split_whitespace().collect::<Vec<_>>().join(" ")
        };
        // The coordinator is in every contact set, so no two are disjoint.
        assert!(row("central").ends_with("P0 (81 ops) 1.00 0.1111 0 of 3240 holds"), "{report}");
        assert!(!row("retirement-tree").contains(" 0.1111 0 of "), "{report}");
    }

    #[test]
    fn dynamic_view_statistics() {
        let (a, b, c, d) = (set(&[0, 1, 2]), set(&[2, 3]), set(&[2]), set(&[4]));
        let v = dynamic_view(&[&a, &b, &c], 8);
        assert_eq!(v.operations, 3);
        assert_eq!(v.min_size, 1);
        assert_eq!(v.max_size, 3);
        assert!((v.mean_size - 2.0).abs() < 1e-12);
        assert_eq!(v.busiest, Some((ProcessorId::new(2), 3)));
        assert!((v.load - 1.0).abs() < 1e-12, "P2 is in every contact set");
        assert_eq!((v.disjoint_pairs, v.hot_spot_violations), (0, 0));
        // P4's set meets none of the three, but follows only the last.
        let v = dynamic_view(&[&a, &b, &c, &d], 8);
        assert_eq!((v.disjoint_pairs, v.hot_spot_violations), (3, 1));
        assert!((v.load - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dynamic_view_empty_execution() {
        let v = dynamic_view(&[], 4);
        assert_eq!(v.operations, 0);
        assert_eq!(v.busiest, None);
        assert_eq!(v.load, 0.0);
        assert_eq!((v.disjoint_pairs, v.hot_spot_violations), (0, 0));
    }
}
