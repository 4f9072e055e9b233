//! Experiments E2 (the headline bottleneck comparison) and E8 (message
//! complexity vs bottleneck trade-off).

use distctr_analysis::{fmt_f64, loglog_fit, Histogram, Plot, Scale, Table};
use distctr_core::kmath;
use distctr_sim::DeliveryPolicy;

use crate::algos::{run_canonical, Algo, REPORT_SEED};

/// E2 — bottleneck load vs n for every algorithm, against the theoretical
/// `k` and the continuous `ln n / ln ln n` overlay.
///
/// Expected shape (the paper's headline): centralized and static-tree
/// grow linearly in n; the retirement tree stays at O(k); everything is
/// at least `k`.
#[must_use]
pub fn e2_bottleneck_vs_n(sizes: &[usize]) -> String {
    let mut out = String::new();
    out.push_str("E2. Bottleneck load m_b = max_p m_p over the canonical workload\n");
    out.push_str("    (n sequential incs, one per processor, shuffled order)\n\n");
    let mut table =
        Table::new(vec!["algorithm", "n", "k(n)", "bottleneck", "vs k", "msgs/op", "correct"]);
    // (algo name, (n, bottleneck)) series for the growth-exponent fit.
    let mut series: std::collections::BTreeMap<String, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    for &n in sizes {
        let k = kmath::bottleneck_lower_bound(n as u64);
        for algo in Algo::comparison_set(n) {
            match run_canonical(algo, n, DeliveryPolicy::Fifo, REPORT_SEED) {
                Ok(s) => {
                    series
                        .entry(algo_family(&s.algo))
                        .or_default()
                        .push((s.n as f64, s.bottleneck as f64));
                    table.row(vec![
                        s.algo,
                        s.n.to_string(),
                        k.to_string(),
                        s.bottleneck.to_string(),
                        fmt_f64(s.bottleneck as f64 / f64::from(k)),
                        fmt_f64(s.messages_per_op),
                        if s.correct { "yes".into() } else { "NO".into() },
                    ]);
                }
                Err(e) => {
                    table.row(vec![
                        algo.name(),
                        n.to_string(),
                        k.to_string(),
                        format!("error: {e}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
    }
    out.push_str(&table.render());
    out.push('\n');

    if sizes.len() >= 2 {
        out.push_str("growth exponents (slope of log bottleneck vs log n; 1.0 = linear):\n");
        let mut fit_table = Table::new(vec!["algorithm", "exponent", "r^2"]);
        for (name, points) in &series {
            if let Some(fit) = loglog_fit(points) {
                fit_table.row(vec![name.clone(), fmt_f64(fit.slope), fmt_f64(fit.r_squared)]);
            }
        }
        out.push_str(&fit_table.render());
        out.push('\n');

        // The headline figure: bottleneck vs n, log-log.
        out.push_str("bottleneck vs n (log-log; flat = O(polylog), diagonal = Θ(n)):\n\n");
        let mut plot = Plot::new(48, 14, Scale::Log, Scale::Log);
        for (name, points) in &series {
            let marker = match name.as_str() {
                "central" => 'c',
                "static-tree" => 's',
                "combining-tree" => 'm',
                "counting-net" => 'w',
                "diffracting" => 'd',
                "arrow-token" => 'a',
                "retirement-tree" => 'T',
                _ => '?',
            };
            plot.series(marker, name, points);
        }
        out.push_str(&plot.render());
        out.push('\n');
    }
    out
}

/// Strips size-dependent parameters (`[w=16]`) so series group across n.
fn algo_family(name: &str) -> String {
    name.split('[').next().unwrap_or(name).to_string()
}

/// E2 as machine-readable CSV (one row per algorithm × size).
#[must_use]
pub fn e2_csv(sizes: &[usize]) -> String {
    let mut csv = distctr_analysis::Csv::new(vec![
        "algorithm",
        "n",
        "k",
        "bottleneck",
        "total_messages",
        "messages_per_op",
        "gini",
        "correct",
    ]);
    for &n in sizes {
        let k = kmath::bottleneck_lower_bound(n as u64);
        for algo in Algo::comparison_set(n) {
            if let Ok(s) = run_canonical(algo, n, DeliveryPolicy::Fifo, REPORT_SEED) {
                csv.row(vec![
                    s.algo,
                    s.n.to_string(),
                    k.to_string(),
                    s.bottleneck.to_string(),
                    s.total_messages.to_string(),
                    format!("{:.4}", s.messages_per_op),
                    format!("{:.4}", s.gini),
                    s.correct.to_string(),
                ]);
            }
        }
    }
    csv.render()
}

/// E2 companion: per-processor load distribution of the retirement tree
/// vs the centralized counter, as text histograms — the tail *is* the
/// bottleneck.
#[must_use]
pub fn e2_load_histograms(n: usize) -> String {
    let mut out = String::new();
    for algo in [Algo::Central, Algo::RetirementTree] {
        match run_canonical(algo, n, DeliveryPolicy::Fifo, REPORT_SEED) {
            Ok(s) => {
                let h = Histogram::from_samples(&s.loads, 8);
                out.push_str(&format!(
                    "load distribution, {} (n={}, max={}):\n{}",
                    s.algo,
                    s.n,
                    s.bottleneck,
                    h.render(32)
                ));
            }
            Err(e) => out.push_str(&format!("{}: error: {e}\n", algo.name())),
        }
        out.push('\n');
    }
    out
}

/// E8 — message complexity: the centralized counter is message-optimal
/// (2 per op) yet maximally bottlenecked; the tree pays O(k) messages
/// per op (amortized) to flatten the bottleneck. This is the paper's §1
/// remark made quantitative.
#[must_use]
pub fn e8_message_complexity(n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E8. Message count vs bottleneck trade-off (n = {n}, canonical workload)\n\n"
    ));
    let mut table = Table::new(vec![
        "algorithm",
        "total msgs",
        "msgs/op",
        "bottleneck",
        "bottleneck/n",
        "gini",
    ]);
    for algo in Algo::comparison_set(n) {
        match run_canonical(algo, n, DeliveryPolicy::Fifo, REPORT_SEED) {
            Ok(s) => {
                table.row(vec![
                    s.algo,
                    s.total_messages.to_string(),
                    fmt_f64(s.messages_per_op),
                    s.bottleneck.to_string(),
                    fmt_f64(s.bottleneck as f64 / s.n as f64),
                    fmt_f64(s.gini),
                ]);
            }
            Err(e) => {
                table.row(vec![
                    algo.name(),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    out.push_str(&table.render());
    out.push('\n');

    // Where do the retirement tree's messages go? Break its traffic down
    // by protocol kind.
    let mut tree = distctr_core::TreeCounter::builder(n)
        .expect("builder")
        .trace(distctr_sim::TraceMode::Off)
        .build()
        .expect("tree");
    crate::algos::run_shuffled_dyn(&mut tree, REPORT_SEED).expect("runs");
    // Name order from the audit, stably sorted: equal counts stay in
    // name order.
    let mut kinds = tree.audit().msgs_by_kind().to_vec();
    kinds.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    let mut kind_table = Table::new(vec!["retirement-tree message kind", "count"]);
    for (kind, count) in kinds {
        kind_table.row(vec![kind.to_string(), count.to_string()]);
    }
    kind_table.row(vec!["shim forwards".into(), tree.audit().shim_forwards().to_string()]);
    out.push_str(&kind_table.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_breaks_down_tree_traffic_by_kind() {
        let report = e8_message_complexity(81);
        for kind in ["apply", "reply", "handoff", "new-worker"] {
            assert!(report.contains(kind), "{kind} in breakdown:\n{report}");
        }
    }

    #[test]
    fn e2_report_contains_all_algorithms_and_shapes() {
        let report = e2_bottleneck_vs_n(&[8, 81]);
        for name in ["central", "retirement-tree", "static-tree", "combining-tree"] {
            assert!(report.contains(name), "{name} in report:\n{report}");
        }
        assert!(!report.contains("NO"), "all algorithms count correctly:\n{report}");
        assert!(!report.contains("error"), "no construction errors:\n{report}");
    }

    #[test]
    fn e2_histograms_render() {
        let h = e2_load_histograms(81);
        assert!(h.contains("central"));
        assert!(h.contains("retirement-tree"));
        assert!(h.contains('#'));
    }

    #[test]
    fn e8_central_is_message_optimal() {
        let report = e8_message_complexity(81);
        // Central: exactly 2 msgs/op.
        let central_line = report.lines().find(|l| l.starts_with("central")).expect("central row");
        assert!(central_line.contains("2.00"), "2 msgs/op: {central_line}");
    }
}
