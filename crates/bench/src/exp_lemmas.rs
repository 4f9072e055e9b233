//! Experiments E3-E5: the upper-bound lemmas measured on real runs.

use distctr_analysis::Table;
use distctr_core::{kmath, TreeCounter};
use distctr_sim::{DeliveryPolicy, ProcessorId, SequentialDriver, TraceMode};

use crate::algos::REPORT_SEED;

fn canonical_tree(k: u32, policy: DeliveryPolicy) -> TreeCounter {
    let n = kmath::leaves_of_order(k) as usize;
    let mut c = TreeCounter::builder(n)
        .expect("tree order within bounds")
        .trace(TraceMode::Off)
        .delivery(policy)
        .build()
        .expect("tree builds");
    let out = SequentialDriver::run_shuffled(&mut c, REPORT_SEED).expect("sequence runs");
    assert!(out.values_are_sequential(), "tree must count correctly");
    c
}

/// E3 — Number of Retirements Lemma: per-level retirement maxima vs the
/// pool bound `k^(k-i) - 1` (root: `k^k - 1`).
#[must_use]
pub fn e3_retirements_per_level(orders: &[u32]) -> String {
    let mut out = String::new();
    out.push_str("E3. Retirements per level vs the lemma bound pool(i) - 1\n\n");
    let mut table =
        Table::new(vec!["k", "level", "nodes", "max retirements", "lemma bound", "total on level"]);
    for &k in orders {
        let c = canonical_tree(k, DeliveryPolicy::Fifo);
        let topo = c.topology();
        let audit = c.audit();
        for level in 0..=k {
            table.row(vec![
                k.to_string(),
                level.to_string(),
                topo.nodes_on_level(level).to_string(),
                audit.max_retirements_on_level(topo, level).to_string(),
                (topo.pool_size(level) - 1).to_string(),
                audit.retirements_by_level()[level as usize].to_string(),
            ]);
        }
        assert!(
            audit.retirement_counts_within_pools(topo),
            "Number of Retirements Lemma must hold (k={k})"
        );
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

/// E4 — Grow Old Lemma and Retirement Lemma maxima, across delivery
/// policies (the lemmas are delay-independent).
#[must_use]
pub fn e4_per_op_lemmas(orders: &[u32]) -> String {
    let mut out = String::new();
    out.push_str("E4. Per-operation lemmas (Grow Old <= 4; Retirement <= 1), all policies\n\n");
    let mut table = Table::new(vec![
        "k",
        "policy",
        "max msgs (non-retiring node/op)",
        "max retirements (node/op)",
        "shim forwards",
    ]);
    for &k in orders {
        for policy in DeliveryPolicy::test_suite() {
            let name = policy.name();
            let c = canonical_tree(k, policy);
            let audit = c.audit();
            table.row(vec![
                k.to_string(),
                name.to_string(),
                audit.max_nonretiring_msgs_per_op().to_string(),
                audit.max_retirements_per_node_per_op().to_string(),
                audit.shim_forwards().to_string(),
            ]);
            assert!(audit.grow_old_lemma_holds(), "Grow Old Lemma (k={k}, {name})");
            assert!(audit.retirement_lemma_holds(), "Retirement Lemma (k={k}, {name})");
        }
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

/// E5 — Leaf Node Work and Inner Node Work Lemmas: leaf load component
/// and per-stint maxima vs the `O(k)` bound.
#[must_use]
pub fn e5_work_lemmas(orders: &[u32]) -> String {
    let mut out = String::new();
    out.push_str("E5. Work lemmas: leaf load and per-stint inner-node work\n\n");
    let mut table = Table::new(vec![
        "k",
        "stints",
        "max stint msgs",
        "8k+8 bound",
        "pure leaves",
        "leaf load",
        "bottleneck",
        "20k bound",
    ]);
    for &k in orders {
        let c = canonical_tree(k, DeliveryPolicy::Fifo);
        let topo = c.topology();
        let audit = c.audit();
        // Processors that never served an inner node carry pure leaf
        // load: exactly their inc request and the value reply. The ids a
        // node actually used are the pool prefix up to its retirement
        // count.
        let mut served = vec![false; c.processors()];
        for node in topo.nodes() {
            let pool = topo.pool(node);
            let used = audit.retirements_of(topo.flat_index(node)) + 1;
            for id in pool.clone().take(used as usize) {
                served[id as usize] = true;
            }
        }
        let pure_leaf_loads: Vec<u64> = (0..c.processors())
            .filter(|&p| !served[p])
            .map(|p| c.loads().load_of(ProcessorId::new(p)))
            .collect();
        for (i, &load) in pure_leaf_loads.iter().enumerate() {
            assert_eq!(load, 2, "pure leaf #{i} load is exactly 2 messages (k={k})");
        }
        let leaf_load_display = if pure_leaf_loads.is_empty() {
            "n/a (all drafted)".to_string()
        } else {
            "2".to_string()
        };
        table.row(vec![
            k.to_string(),
            audit.stints_completed().to_string(),
            audit.max_stint_msgs().to_string(),
            (8 * u64::from(k) + 8).to_string(),
            pure_leaf_loads.len().to_string(),
            leaf_load_display,
            c.loads().max_load().to_string(),
            (20 * u64::from(k)).to_string(),
        ]);
        assert!(
            audit.stint_work_within(8 * u64::from(k) + 8),
            "Inner Node Work Lemma (k={k}): {}",
            audit.max_stint_msgs()
        );
        assert!(
            c.loads().max_load() <= 20 * u64::from(k),
            "Bottleneck Theorem with constant 20 (k={k})"
        );
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_bounds_hold_and_render() {
        let report = e3_retirements_per_level(&[2, 3]);
        assert!(report.contains("lemma bound"));
        // Level-k rows show 0 retirements (singleton pools).
        assert!(report.lines().count() > 6);
    }

    #[test]
    fn e4_all_policies_within_bounds() {
        let report = e4_per_op_lemmas(&[2, 3]);
        for p in ["fifo", "random", "lifo"] {
            assert!(report.contains(p), "{p} in report");
        }
    }

    #[test]
    fn e5_leaf_and_stint_bounds() {
        let report = e5_work_lemmas(&[2, 3]);
        assert!(report.contains("max stint msgs"));
    }
}
