//! Experiments E11-E13: design-choice ablations and the paper's
//! generalizations.
//!
//! * **E11** — retirement-threshold sweep: the paper retires a node at
//!   age `4k`. Much lower thresholds churn workers (more handoff
//!   traffic, pools at risk of exhaustion); much higher thresholds leave
//!   hot workers in place longer. The sweep shows the bottleneck as a
//!   function of the threshold, with the paper's choice marked.
//! * **E12** — skewed workloads: "one can easily show that the amount of
//!   achievable distribution is limited if many operations are initiated
//!   by a single processor." The sweep concentrates all n operations on
//!   fewer and fewer initiators and watches the bottleneck climb.
//! * **E13** — generalized sequentially-dependent structures: the
//!   flip-bit and the priority queue ride the same tree and inherit the
//!   O(k) bottleneck, as the paper's Hot Spot remark promises.

use distctr_analysis::Table;
use distctr_core::{
    kmath, DistributedFlipBit, DistributedPriorityQueue, PoolPolicy, RetirementPolicy, TreeCounter,
};
use distctr_sim::{ProcessorId, SequentialDriver, TraceMode};

use crate::algos::REPORT_SEED;

/// E11 — bottleneck vs retirement threshold, at fixed k.
#[must_use]
pub fn e11_threshold_ablation(k: u32) -> String {
    let n = kmath::leaves_of_order(k) as usize;
    let mut out = String::new();
    out.push_str(&format!(
        "E11. Retirement-threshold ablation (k = {k}, n = {n}; paper threshold = 4k = {})\n\n",
        4 * k
    ));
    let mut table = Table::new(vec![
        "threshold",
        "bottleneck",
        "total msgs",
        "stints",
        "pool exhaustions",
        "retirement lemma",
    ]);
    let mut thresholds: Vec<u64> =
        vec![u64::from(k), 2 * u64::from(k), 4 * u64::from(k), 8 * u64::from(k), 32 * u64::from(k)];
    thresholds.dedup();
    for &t in &thresholds {
        let mut counter = TreeCounter::builder(n)
            .expect("builder")
            .trace(TraceMode::Off)
            .retirement(RetirementPolicy::AfterAge(t))
            .build()
            .expect("tree");
        let outcome = SequentialDriver::run_shuffled(&mut counter, REPORT_SEED).expect("runs");
        assert!(outcome.values_are_sequential(), "threshold {t} keeps the counter correct");
        let audit = counter.audit();
        let exhausted: u64 = audit.pool_exhausted_by_level().iter().sum();
        table.row(vec![
            format!("{t}{}", if t == 4 * u64::from(k) { " (paper)" } else { "" }),
            counter.loads().max_load().to_string(),
            outcome.total_messages.to_string(),
            audit.stints_completed().to_string(),
            exhausted.to_string(),
            if audit.retirement_lemma_holds() { "holds".into() } else { "VIOLATED".to_string() },
        ]);
    }
    // The static tree as the threshold -> infinity endpoint.
    let mut static_tree = TreeCounter::builder(n)
        .expect("builder")
        .trace(TraceMode::Off)
        .retirement(RetirementPolicy::Never)
        .build()
        .expect("static");
    let outcome = SequentialDriver::run_shuffled(&mut static_tree, REPORT_SEED).expect("runs");
    table.row(vec![
        "never".into(),
        static_tree.loads().max_load().to_string(),
        outcome.total_messages.to_string(),
        "0".into(),
        "0".into(),
        "holds".into(),
    ]);
    out.push_str(&table.render());
    out.push('\n');
    out
}

/// E12 — skew sweep: n operations over increasingly concentrated
/// initiator distributions (uniform permutation → Zipf → a single
/// initiator). With one initiator, its own send/receive traffic alone is
/// 2n — no algorithm can distribute that.
#[must_use]
pub fn e12_skewed_workloads(k: u32) -> String {
    use distctr_sim::Workload;
    let n = kmath::leaves_of_order(k) as usize;
    let mut out = String::new();
    out.push_str(&format!("E12. Skewed workloads (k = {k}, {n} ops total)\n\n"));
    let mut table = Table::new(vec![
        "workload",
        "distinct initiators",
        "busiest initiator ops",
        "bottleneck",
        "lemmas hold",
    ]);
    let workloads = [
        Workload::Canonical { seed: REPORT_SEED },
        Workload::Zipf { ops: n, s: 1.0, seed: REPORT_SEED },
        Workload::Zipf { ops: n, s: 2.0, seed: REPORT_SEED },
        Workload::SingleInitiator { initiator: 0, ops: n },
    ];
    for (idx, workload) in workloads.iter().enumerate() {
        let order = workload.generate(n);
        let mut per_initiator = vec![0u64; n];
        for p in &order {
            per_initiator[p.index()] += 1;
        }
        let distinct = per_initiator.iter().filter(|&&c| c > 0).count();
        let busiest = per_initiator.iter().copied().max().unwrap_or(0);
        let mut counter =
            TreeCounter::builder(n).expect("builder").trace(TraceMode::Off).build().expect("tree");
        let outcome = SequentialDriver::run_order(&mut counter, &order).expect("runs");
        assert!(outcome.values_are_sequential());
        let audit = counter.audit();
        let lemmas = audit.grow_old_lemma_holds() && audit.retirement_lemma_holds();
        let label = match workload {
            Workload::Zipf { s, .. } => format!("zipf(s={s})"),
            w => w.name().to_string(),
        };
        let _ = idx;
        table.row(vec![
            label,
            distinct.to_string(),
            busiest.to_string(),
            counter.loads().max_load().to_string(),
            lemmas.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "(an initiator's own traffic is >= 2 * its ops — the floor behind the paper's\n remark that concentrated workloads limit achievable distribution)\n\n",
    );
    out
}

/// E13 — the flip-bit and priority queue inherit the O(k) bottleneck.
#[must_use]
pub fn e13_generalized_structures(k: u32) -> String {
    let n = kmath::leaves_of_order(k) as usize;
    let mut out = String::new();
    out.push_str(&format!(
        "E13. Generalized sequentially-dependent structures (k = {k}, n = {n})\n\n"
    ));
    let mut table = Table::new(vec!["structure", "ops", "bottleneck", "20k bound", "lemmas"]);

    {
        let mut counter = TreeCounter::new(n).expect("tree");
        SequentialDriver::run_shuffled(&mut counter, REPORT_SEED).expect("runs");
        let ok = counter.audit().grow_old_lemma_holds()
            && counter.audit().retirement_counts_within_pools(counter.topology());
        table.row(vec![
            "counter (inc)".into(),
            n.to_string(),
            counter.loads().max_load().to_string(),
            (20 * u64::from(k)).to_string(),
            ok.to_string(),
        ]);
    }
    {
        let mut bit = DistributedFlipBit::new(n).expect("bit");
        for i in 0..bit.processors() {
            bit.test_and_flip(ProcessorId::new(i)).expect("flip");
        }
        let ok = bit.audit().grow_old_lemma_holds()
            && bit.audit().retirement_counts_within_pools(bit.topology());
        assert!(bit.loads().max_load() <= 20 * u64::from(k));
        table.row(vec![
            "flip-bit (test&flip)".into(),
            n.to_string(),
            bit.loads().max_load().to_string(),
            (20 * u64::from(k)).to_string(),
            ok.to_string(),
        ]);
    }
    {
        let mut pq = DistributedPriorityQueue::new(n).expect("pq");
        let procs = pq.processors();
        for i in 0..procs / 2 {
            pq.insert(ProcessorId::new(i), (i as u64 * 7919) % 1000).expect("insert");
        }
        for i in procs / 2..procs {
            pq.extract_min(ProcessorId::new(i)).expect("extract");
        }
        let ok = pq.audit().grow_old_lemma_holds() && pq.audit().retirement_lemma_holds();
        table.row(vec![
            "priority queue (ins/ext)".into(),
            procs.to_string(),
            pq.loads().max_load().to_string(),
            (20 * u64::from(k)).to_string(),
            ok.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

/// E15 — multi-round workloads: the paper's one-shot pools are
/// dimensioned for exactly one op per processor; recycling them keeps the
/// bottleneck at O(k) *per round* (extension beyond the paper).
#[must_use]
pub fn e15_multi_round(k: u32, rounds: u64) -> String {
    let n = kmath::leaves_of_order(k) as usize;
    let mut out = String::new();
    out.push_str(&format!(
        "E15. Multi-round workloads (k = {k}, n = {n}, {rounds} rounds of one op per processor)\n\n"
    ));
    let mut table = Table::new(vec![
        "pool policy",
        "round",
        "bottleneck so far",
        "per-round budget (20k*r)",
        "stints",
    ]);
    for pool in [PoolPolicy::OneShot, PoolPolicy::Recycling] {
        let mut counter = TreeCounter::builder(n)
            .expect("builder")
            .trace(TraceMode::Off)
            .pool(pool)
            .build()
            .expect("tree");
        for round in 1..=rounds {
            let outcome =
                SequentialDriver::run_shuffled(&mut counter, REPORT_SEED + round).expect("runs");
            assert_eq!(outcome.results.len(), n);
            table.row(vec![
                format!("{pool:?}"),
                round.to_string(),
                counter.loads().max_load().to_string(),
                (20 * u64::from(k) * round).to_string(),
                counter.audit().stints_completed().to_string(),
            ]);
        }
        assert_eq!(counter.value(), rounds * n as u64, "all rounds counted");
    }
    out.push_str(&table.render());
    out.push_str(
        "(one-shot pools drain after about one round — the paper's dimensioning is\n exactly for its canonical workload; recycling pools sustain O(k) per round)\n\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_paper_threshold_is_the_sweet_spot() {
        let report = e11_threshold_ablation(3);
        // The paper row holds every lemma with zero pool exhaustions...
        let paper_line = report.lines().find(|l| l.contains("(paper)")).expect("paper row");
        assert!(paper_line.ends_with("holds"), "{paper_line}");
        let cols: Vec<&str> = paper_line.split_whitespace().collect();
        assert_eq!(cols[cols.len() - 2], "0", "no exhaustion at 4k: {paper_line}");
        // ...while the aggressive threshold k demonstrates why 4k is
        // needed: double retirements within an op (Retirement Lemma
        // violation) and exhausted pools.
        assert!(
            report.contains("VIOLATED"),
            "threshold k should violate the Retirement Lemma:\n{report}"
        );
        // And 4k achieves the smallest bottleneck of the sweep.
        let first_number = |line: &str| -> u64 {
            line.split_whitespace().skip(1).find_map(|t| t.parse().ok()).expect("bottleneck column")
        };
        let bottlenecks: Vec<u64> = report
            .lines()
            .filter(|l| l.contains("holds") || l.contains("VIOLATED"))
            .map(first_number)
            .collect();
        let paper_bottleneck = first_number(paper_line);
        assert_eq!(
            bottlenecks.iter().copied().min(),
            Some(paper_bottleneck),
            "4k minimizes the bottleneck: {bottlenecks:?}"
        );
    }

    #[test]
    fn e12_skew_monotonically_raises_the_bottleneck() {
        let report = e12_skewed_workloads(2);
        let bottleneck_of = |label: &str| -> u64 {
            report
                .lines()
                .find(|l| l.starts_with(label))
                .and_then(|l| l.split_whitespace().nth_back(1))
                .and_then(|c| c.parse().ok())
                .unwrap_or_else(|| panic!("row '{label}' in:\n{report}"))
        };
        let canonical = bottleneck_of("canonical");
        let single = bottleneck_of("single-initiator");
        assert!(single >= 2 * 8, "single initiator floor 2n = 16: {single}");
        assert!(single > canonical, "skew hurts: {single} > {canonical}");
        assert!(report.contains("zipf(s=1)") || report.contains("zipf(s=1.0)"), "{report}");
    }

    #[test]
    fn e13_all_structures_within_bound() {
        let report = e13_generalized_structures(3);
        assert!(report.contains("flip-bit"));
        assert!(report.contains("priority queue"));
        assert!(!report.contains("false"), "{report}");
    }

    #[test]
    fn e15_recycling_beats_one_shot_over_rounds() {
        let report = e15_multi_round(3, 3);
        assert!(report.contains("OneShot"));
        assert!(report.contains("Recycling"));
        // Final-round bottlenecks: recycling must be the smaller.
        let last_of = |policy: &str| -> u64 {
            report
                .lines()
                .rev()
                .find(|l| l.starts_with(policy))
                .and_then(|l| l.split_whitespace().nth(2))
                .and_then(|c| c.parse().ok())
                .expect("bottleneck column")
        };
        assert!(last_of("Recycling") < last_of("OneShot"), "{report}");
    }
}
