//! Experiments E1 (adversarial lower bound) and E7 (weight-function
//! audit) — the Lower Bound Theorem run against real implementations.

use distctr_analysis::{fmt_f64, Table};
use distctr_baselines::{CentralCounter, CountingNetworkCounter};
use distctr_bound::{audit_weights, theory, Adversary};
use distctr_core::{RetirementPolicy, TreeCounter};
use distctr_sim::{DeliveryPolicy, ProcessorId, SimError, TraceMode};

/// E1 — the greedy longest-list adversary vs every cloneable
/// implementation: the measured bottleneck must dominate both the
/// theorem's `k` and the pigeonhole bound implied by the measured
/// traffic.
#[must_use]
pub fn e1_adversarial_lower_bound(n: usize, sample: Option<usize>) -> String {
    let mut out = String::new();
    let k = theory::lower_bound_k(n as u64);
    out.push_str(&format!(
        "E1. Greedy longest-list adversary (n = {n}, k = {k}, λ-threshold = {})\n\n",
        fmt_f64(theory::weight_threshold(n as f64))
    ));
    let mut table = Table::new(vec![
        "algorithm",
        "bottleneck",
        ">= k?",
        "pigeonhole",
        "avg list len",
        "consistent",
    ]);

    let adversary = match sample {
        Some(s) => Adversary::sampled(s, 23),
        None => Adversary::exhaustive(),
    };
    let mut run =
        |name: &str, outcome: Result<distctr_bound::AdversaryOutcome, SimError>| match outcome {
            Ok(o) => {
                table.row(vec![
                    name.to_string(),
                    o.bottleneck.1.to_string(),
                    if o.bottleneck.1 >= u64::from(o.lower_bound_k) { "yes" } else { "NO" }
                        .to_string(),
                    o.pigeonhole.to_string(),
                    fmt_f64(o.avg_list_len),
                    if o.consistent_with_theorem() { "yes" } else { "NO" }.to_string(),
                ]);
            }
            Err(e) => {
                table.row(vec![
                    name.to_string(),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        };

    {
        let mut c = TreeCounter::new(n).expect("tree builds");
        run("retirement-tree", adversary.run(&mut c));
    }
    {
        let mut c = TreeCounter::builder(n)
            .expect("builder")
            .retirement(RetirementPolicy::Never)
            .build()
            .expect("static tree builds");
        run("static-tree", adversary.run(&mut c));
    }
    {
        let mut c = CentralCounter::new(n).expect("central builds");
        run("central", adversary.run(&mut c));
    }
    {
        let mut c = distctr_baselines::CombiningTreeCounter::new(n).expect("combining builds");
        run("combining-tree", adversary.run(&mut c));
    }
    {
        let width = ((n as f64).sqrt() as usize).next_power_of_two().clamp(2, 64);
        let mut c = CountingNetworkCounter::new(n, width).expect("counting net builds");
        run(&format!("counting-net[w={width}]"), adversary.run(&mut c));
    }
    {
        let depth = ((n as f64).sqrt() as usize).next_power_of_two().trailing_zeros();
        let mut c =
            distctr_baselines::DiffractingTreeCounter::new(n, depth).expect("diffracting builds");
        run(&format!("diffracting[d={depth}]"), adversary.run(&mut c));
    }
    {
        let mut c = distctr_baselines::ArrowCounter::new(n).expect("arrow builds");
        run("arrow-token", adversary.run(&mut c));
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

/// E7 — weight-function audit on the retirement tree and the centralized
/// counter: the hot-spot premise at every step, the weight trajectory,
/// and the AM-GM quantities from the proof.
#[must_use]
pub fn e7_weight_audit(n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("E7. Weight-function audit (identity order, n = {n})\n\n"));
    let order: Vec<ProcessorId> = (0..n).map(ProcessorId::new).collect();
    let mut table = Table::new(vec![
        "algorithm",
        "hot-spot steps",
        "final weight",
        "Σ 2^-l_i",
        "AM-GM bound",
        "q load",
        "bottleneck",
        ">= k?",
    ]);
    let k = theory::lower_bound_k(n as u64);

    {
        let mut c = TreeCounter::builder(n)
            .expect("builder")
            .trace(TraceMode::Full)
            .build()
            .expect("tree builds");
        let full_order: Vec<ProcessorId> = (0..c.processors()).map(ProcessorId::new).collect();
        let a = audit_weights(&mut c, &full_order).expect("audit runs");
        table.row(vec![
            "retirement-tree".into(),
            format!("{}/{}", a.hot_spot_hits, a.steps),
            fmt_f64(*a.weights.last().unwrap_or(&0.0)),
            fmt_f64(a.inverse_exp_sum),
            fmt_f64(a.amgm_bound()),
            a.q_load.to_string(),
            a.bottleneck.to_string(),
            if a.bottleneck >= u64::from(k) { "yes" } else { "NO" }.into(),
        ]);
        assert!(a.hot_spot_premise_holds(), "hot-spot premise on the tree");
    }
    {
        let mut c = CentralCounter::with_policy(n, TraceMode::Full, DeliveryPolicy::Fifo)
            .expect("central builds");
        let a = audit_weights(&mut c, &order).expect("audit runs");
        table.row(vec![
            "central".into(),
            format!("{}/{}", a.hot_spot_hits, a.steps),
            fmt_f64(*a.weights.last().unwrap_or(&0.0)),
            fmt_f64(a.inverse_exp_sum),
            fmt_f64(a.amgm_bound()),
            a.q_load.to_string(),
            a.bottleneck.to_string(),
            if a.bottleneck >= u64::from(k) { "yes" } else { "NO" }.into(),
        ]);
        assert!(a.hot_spot_premise_holds(), "hot-spot premise on central");
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_all_consistent_at_n8() {
        let report = e1_adversarial_lower_bound(8, None);
        assert!(!report.contains("NO"), "theorem holds everywhere:\n{report}");
        assert!(!report.contains("error"), "no errors:\n{report}");
        assert!(report.contains("retirement-tree"));
    }

    #[test]
    fn e7_premise_holds_at_n8() {
        let report = e7_weight_audit(8);
        assert!(report.contains("7/7"), "all hot-spot steps hit:\n{report}");
        assert!(!report.contains("NO"));
    }
}
