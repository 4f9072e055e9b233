//! Experiment E24 — adaptive per-key backend promotion under a
//! Zipf-skewed multi-counter workload.
//!
//! The paper's trade-off, per key: a centralized counter answers one
//! operation for one message, the retirement tree answers a *combined
//! batch* for `k+1` messages. A hot key amortizes the traversal and
//! wants the tree; a cold key cannot and wants the center. E24 puts a
//! keyspace of many counters behind the combining server, prices every
//! message at a fixed `μ` (busy-spun inside the backend, so the wire
//! and the scheduler cannot blur the model), and drives a Zipf-skewed
//! keyed load against three placement policies:
//!
//! * **all-central** — every key pinned to the centralized backend
//!   (`count × μ` per batch: the center cannot amortize);
//! * **all-tree** — every key pinned to the retirement tree
//!   (`(k+1) × μ` per traversal: cold keys overpay);
//! * **adaptive** — every key born central, the contention monitor
//!   promoting hot keys live (and demoting on cooldown).
//!
//! The claim under test: adaptive placement beats *both* static
//! extremes on goodput, because the skew gives it hot keys to promote
//! and cold keys to leave alone — while every key's acked values stay
//! exactly `0..ops_k` across the live migrations.

use std::time::Duration;

use distctr_analysis::{fmt_f64, Table};
use distctr_keyspace::{Keyspace, KeyspaceConfig, PromotionPolicy};
use distctr_server::{run_load, CounterServer, LoadConfig};

use crate::json;
use crate::table::{verdict, Outcome, Size};

/// One placement policy's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyspaceRow {
    /// Policy label.
    pub policy: String,
    /// Operations attempted.
    pub ops: usize,
    /// Operations that exhausted their retry budget.
    pub failed: usize,
    /// Acked operations per second across all keys.
    pub goodput: f64,
    /// Median client-observed latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile client-observed latency, microseconds.
    pub p99_us: u64,
    /// Whether every key's acked values were exactly `0..ops_k`.
    pub exact: bool,
    /// Keys the backend ended up hosting.
    pub keys_hosted: u64,
    /// Promotions (central → tree) the run performed.
    pub promotions: u64,
    /// Demotions (tree → central) the run performed.
    pub demotions: u64,
}

/// The policy grid: both static extremes plus the adaptive default.
#[must_use]
pub fn e24_scenarios() -> Vec<(String, PromotionPolicy)> {
    vec![
        ("all-central".into(), PromotionPolicy::pinned_central()),
        ("all-tree".into(), PromotionPolicy::pinned_tree()),
        ("adaptive".into(), PromotionPolicy::default()),
    ]
}

/// The per-message price the cost model charges inside the backend.
#[must_use]
pub fn e24_per_message() -> Duration {
    Duration::from_micros(150)
}

/// Runs the Zipf-keyed closed-loop workload against a fresh keyspace
/// per policy and measures goodput, tails and placement churn.
///
/// # Panics
///
/// Panics if a server cannot bind loopback or a load run fails outright.
#[must_use]
pub fn e24_measure(
    n: usize,
    keys: usize,
    s: f64,
    conns: usize,
    ops_per_conn: usize,
    per_message: Duration,
    scenarios: &[(String, PromotionPolicy)],
) -> Vec<KeyspaceRow> {
    let ops = conns * ops_per_conn;
    scenarios
        .iter()
        .map(|(name, policy)| {
            let backend = Keyspace::sim(KeyspaceConfig {
                policy: policy.clone(),
                per_message,
                ..KeyspaceConfig::new(n)
            });
            let mut server = CounterServer::serve_async_combining(backend).expect("serve");
            let config = LoadConfig::closed(conns, ops).with_keys(keys, s, 0xE24);
            let report = run_load(server.local_addr(), &config).expect("load run");
            let stats = server.stats();
            server.shutdown().expect("shutdown");
            KeyspaceRow {
                policy: name.clone(),
                ops,
                failed: report.failed,
                goodput: report.throughput(),
                p50_us: report.latency_percentile_us(50.0),
                p99_us: report.latency_percentile_us(99.0),
                exact: report.failed == 0
                    && report.ops == ops
                    && report.values_are_sequential_per_key(),
                keys_hosted: stats.keys_hosted,
                promotions: stats.promotions,
                demotions: stats.demotions,
            }
        })
        .collect()
}

/// Renders the E24 table.
#[must_use]
pub fn e24_render(
    n: usize,
    keys: usize,
    s: f64,
    per_message: Duration,
    rows: &[KeyspaceRow],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E24. Keyspace placement: closed-loop keyed TCP incs over {keys} counters\n\
         (zipf s = {s}), hosted on {n}-processor backends, every message priced at\n\
         {} us inside the backend\n\n",
        per_message.as_micros()
    ));
    let mut table = Table::new(vec![
        "policy",
        "ops",
        "goodput (incs/s)",
        "p50 (us)",
        "p99 (us)",
        "exact",
        "keys",
        "promotions",
        "demotions",
    ]);
    for r in rows {
        table.row(vec![
            r.policy.clone(),
            r.ops.to_string(),
            fmt_f64(r.goodput),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            if r.exact { "yes".into() } else { "NO".into() },
            r.keys_hosted.to_string(),
            r.promotions.to_string(),
            r.demotions.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nreading: the center cannot amortize (count x u per batch), the tree overpays\n\
         on cold keys ((k+1) x u per traversal of a singleton batch). Adaptive placement\n\
         promotes the Zipf head to the tree and leaves the tail centralized, beating both\n\
         static extremes on goodput — with every key's values exactly 0..ops_k across\n\
         the live migrations.\n",
    );
    out
}

/// Serializes the measurement as the checked-in `BENCH_keyspace.json`
/// artifact.
#[must_use]
pub fn e24_json(
    n: usize,
    keys: usize,
    s: f64,
    conns: usize,
    ops_per_conn: usize,
    per_message: Duration,
    rows: &[KeyspaceRow],
) -> String {
    let params = [
        json::s("experiment", "keyspace"),
        json::s("engine", "single reactor"),
        json::s("backend", "keyspace over sim trees"),
        json::s("mode", "closed-loop keyed TCP, combining server"),
        json::v("processors", n),
        json::v("keys", keys),
        json::v("zipf_s", s),
        json::v("conns", conns),
        json::v("ops_per_conn", ops_per_conn),
        json::v("per_message_us", per_message.as_micros()),
    ];
    json::document(&params, rows, |r| {
        vec![
            json::s("policy", &r.policy),
            json::v("ops", r.ops),
            json::v("failed", r.failed),
            json::f("goodput_incs_per_sec", r.goodput, 1),
            json::v("p50_us", r.p50_us),
            json::v("p99_us", r.p99_us),
            json::v("exact", r.exact),
            json::v("keys_hosted", r.keys_hosted),
            json::v("promotions", r.promotions),
            json::v("demotions", r.demotions),
        ]
    })
}

/// The placement gate: every policy keeps every key exactly
/// sequential, the adaptive policy promotes at least one hot key, and
/// its goodput is at least `tolerance` times the best static
/// placement's.
fn e24_gate(rows: &[KeyspaceRow], tolerance: f64) -> Result<(), String> {
    let mut failed: Vec<String> = rows
        .iter()
        .filter(|r| !r.exact)
        .map(|r| {
            format!(
                "correctness regression: policy '{}' lost per-key exactness ({} of {} ops failed)",
                r.policy, r.failed, r.ops
            )
        })
        .collect();
    let best_static =
        rows.iter().filter(|r| r.policy != "adaptive").map(|r| r.goodput).fold(0.0, f64::max);
    match rows.iter().find(|r| r.policy == "adaptive") {
        None => failed.push("no adaptive row was measured".into()),
        Some(adaptive) => {
            if adaptive.promotions == 0 {
                failed.push(format!("the adaptive policy never promoted a hot key: {adaptive:?}"));
            }
            if adaptive.goodput < best_static * tolerance {
                failed.push(format!(
                    "regression: adaptive goodput ({:.1} incs/s) fell below the best static \
                     placement ({best_static:.1} incs/s, tolerance {tolerance})",
                    adaptive.goodput
                ));
            }
        }
    }
    verdict(failed)
}

/// The E24 table row: a Zipf-skewed keyed load with a real per-message
/// price. Smoke shrinks the load, keeps the cost model, and allows a
/// small tolerance (short runs are noisy); the other sizes are strict.
#[must_use]
pub fn e24(size: Size) -> Outcome {
    let (conns, ops_per_conn) = match size {
        Size::Smoke => (16, 25),
        Size::Quick => (16, 40),
        Size::Full => (32, 60),
    };
    let tolerance = if size == Size::Smoke { 0.95 } else { 1.0 };
    let (n, keys, s) = (81, 12, 1.6);
    let per_message = e24_per_message();
    let rows = e24_measure(n, keys, s, conns, ops_per_conn, per_message, &e24_scenarios());
    Outcome {
        text: e24_render(n, keys, s, per_message, &rows),
        bench_file: Some((
            "BENCH_keyspace.json",
            e24_json(n, keys, s, conns, ops_per_conn, per_message, &rows),
        )),
        gate: e24_gate(&rows, tolerance),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e24_measures_renders_and_serializes() {
        // Tiny sizes and a free cost model: this test pins the harness
        // shape (exactness, stats plumbing, rendering), not the
        // performance ordering — the report gate checks that at real
        // sizes.
        let rows = e24_measure(8, 3, 1.2, 2, 20, Duration::ZERO, &e24_scenarios());
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.exact), "a policy lost exactness: {rows:?}");
        assert!(rows.iter().all(|r| r.goodput > 0.0));
        assert!(rows.iter().all(|r| r.keys_hosted >= 1 && r.keys_hosted <= 3));
        let central = &rows[0];
        let tree = &rows[1];
        assert_eq!(central.promotions, 0, "pinned central never promotes");
        assert_eq!(tree.promotions, 0, "pinned tree is born on the tree, no migration");
        assert_eq!(tree.demotions, 0);
        let report = e24_render(8, 3, 1.2, Duration::ZERO, &rows);
        assert!(report.contains("goodput"), "{report}");
        assert!(report.contains("adaptive"), "{report}");
    }

    #[test]
    fn the_policy_grid_covers_both_extremes_and_the_adaptive_default() {
        let scenarios = e24_scenarios();
        assert_eq!(scenarios.len(), 3);
        assert_eq!(scenarios[0].0, "all-central");
        assert_eq!(scenarios[1].0, "all-tree");
        assert_eq!(scenarios[2].0, "adaptive");
    }
}
