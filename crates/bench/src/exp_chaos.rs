//! Experiment E23 — serving under chaos: goodput, tail latency and
//! availability through a fault-injecting proxy.
//!
//! The exactness experiment (E22) measures the serving stack over a
//! clean loopback. E23 measures it over a *hostile* one: the same
//! closed-loop TCP workload runs through a `distctr-chaos` proxy, one
//! scenario per toxic — added latency, bandwidth throttling, byte-level
//! frame slicing, CRC-detectable corruption, abrupt connection resets
//! and silent blackhole partitions. Clients carry the hardened retry
//! policy (jittered exponential backoff, resume-and-replay on
//! reconnect), so the claim under test is the robustness one: **every
//! fault costs goodput and tail latency, never correctness or
//! availability** — acked values stay exactly `0..ops` and no operation
//! exhausts its budget.

use std::time::Duration;

use distctr_analysis::{fmt_f64, Table};
use distctr_chaos::{ChaosPlan, ChaosProxy};
use distctr_net::ThreadedTreeCounter;
use distctr_server::{run_load, ClientConfig, CounterServer, LoadConfig, RetryPolicy};

use crate::json;
use crate::table::{verdict, Outcome, Size};

/// One chaos scenario's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Scenario label (which toxic, at what dose).
    pub scenario: String,
    /// Operations attempted.
    pub ops: usize,
    /// Operations that exhausted their retry budget.
    pub failed: usize,
    /// Acked operations per second, end to end through the proxy.
    pub goodput: f64,
    /// 99th-percentile client-observed latency, microseconds.
    pub p99_us: u64,
    /// Acked fraction of attempted operations (1.0 = every op landed).
    pub availability: f64,
    /// Whether the acked values were exactly `0..ops` — exactly-once,
    /// observed over the wire.
    pub exact: bool,
    /// Connections the proxy saw (reconnect churn shows up here).
    pub proxy_conns: u64,
    /// Connections the proxy cut (reset toxic).
    pub resets: u64,
    /// Directions the proxy silently partitioned (blackhole toxic).
    pub blackholed: u64,
    /// Bytes the proxy flipped in flight (corrupt toxic).
    pub corrupted_bytes: u64,
}

/// The scenario grid: every toxic the proxy implements, at a dose that
/// reliably fires within a smoke-sized run, plus a no-toxic baseline
/// through the same proxy path.
#[must_use]
pub fn e23_scenarios() -> Vec<(String, ChaosPlan)> {
    vec![
        ("baseline (proxy, no toxics)".into(), ChaosPlan::new(0xE23)),
        (
            "latency 2ms + 0..3ms jitter".into(),
            ChaosPlan::new(0xE23).latency(Duration::from_millis(2), Duration::from_millis(3)),
        ),
        ("throttle 16 KiB/s".into(), ChaosPlan::new(0xE23).throttle(16 * 1024)),
        (
            "slice <=3 B / 100us gap".into(),
            ChaosPlan::new(0xE23).slice(3, Duration::from_micros(100)),
        ),
        ("corrupt 0.1% of bytes".into(), ChaosPlan::new(0xE23).corrupt(0.001)),
        // The byte budgets sit just past one handshake (~130 B down),
        // so a handful of ops trips them even at smoke sizes.
        ("reset every 256 B".into(), ChaosPlan::new(0xE23).reset_after(256)),
        ("blackhole after 256 B".into(), ChaosPlan::new(0xE23).blackhole_after(256)),
    ]
}

/// The hardened client every scenario uses: a snappy reply deadline
/// (blackholes cost milliseconds, not the 10 s default) and a deep
/// retry budget so transient faults never surface as failures.
#[must_use]
pub fn e23_client() -> ClientConfig {
    ClientConfig {
        reply_timeout: Duration::from_millis(400),
        retry: RetryPolicy {
            max_retries: 30,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            seed: 0xE23,
        },
    }
}

/// Runs `conns * ops_per_conn` closed-loop operations through a chaos
/// proxy for each scenario, against a fresh threaded tree of `n`
/// processors each time.
///
/// # Panics
///
/// Panics if a server or proxy cannot bind loopback or a load run fails
/// outright (a run with failed *operations* still reports; only a run
/// that cannot start panics).
#[must_use]
pub fn e23_measure(
    n: usize,
    conns: usize,
    ops_per_conn: usize,
    scenarios: &[(String, ChaosPlan)],
) -> Vec<ChaosRow> {
    let ops = conns * ops_per_conn;
    scenarios
        .iter()
        .map(|(name, plan)| {
            let backend = ThreadedTreeCounter::new(n).expect("threaded tree");
            let mut server = CounterServer::serve_async_combining(backend).expect("serve");
            let proxy = ChaosProxy::start(server.local_addr(), plan.clone()).expect("proxy");
            let config = LoadConfig::closed(conns, ops).with_client(e23_client());
            let report = run_load(proxy.local_addr(), &config).expect("load run");
            server.shutdown().expect("shutdown");
            let stats = proxy.stats();
            ChaosRow {
                scenario: name.clone(),
                ops,
                failed: report.failed,
                goodput: report.throughput(),
                p99_us: report.latency_percentile_us(99.0),
                availability: report.availability(),
                exact: report.failed == 0 && report.values_are_sequential_from(0),
                proxy_conns: stats.connections,
                resets: stats.resets,
                blackholed: stats.blackholed,
                corrupted_bytes: stats.corrupted_bytes,
            }
        })
        .collect()
}

/// Renders the E23 table.
#[must_use]
pub fn e23_render(n: usize, rows: &[ChaosRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E23. Chaos serving: closed-loop TCP incs against {n} processors through a\n\
         fault-injecting proxy; hardened clients (retry budget 30, 400 ms reply deadline)\n\n"
    ));
    let mut table = Table::new(vec![
        "scenario",
        "ops",
        "goodput (incs/s)",
        "p99 (us)",
        "avail",
        "exact",
        "conns",
        "faults fired",
    ]);
    for r in rows {
        let fired =
            format!("{} resets, {} holes, {} B flipped", r.resets, r.blackholed, r.corrupted_bytes);
        table.row(vec![
            r.scenario.clone(),
            r.ops.to_string(),
            fmt_f64(r.goodput),
            r.p99_us.to_string(),
            format!("{:.3}", r.availability),
            if r.exact { "yes".into() } else { "NO".into() },
            r.proxy_conns.to_string(),
            fired,
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nreading: every toxic costs goodput and tail latency but neither availability\n\
         nor exactness — CRC framing catches corruption, sessions resume across resets,\n\
         reply deadlines unstick blackholes, and replayed requests dedup server-side, so\n\
         the acked values stay exactly 0..ops under every fault.\n",
    );
    out
}

/// Serializes the measurement as the checked-in `BENCH_chaos.json`
/// artifact.
#[must_use]
pub fn e23_json(n: usize, conns: usize, ops_per_conn: usize, rows: &[ChaosRow]) -> String {
    let params = [
        json::s("experiment", "chaos"),
        json::s("engine", "single reactor"),
        json::s("backend", "threaded"),
        json::s("mode", "closed-loop TCP through fault-injecting proxy"),
        json::v("processors", n),
        json::v("conns", conns),
        json::v("ops_per_conn", ops_per_conn),
    ];
    json::document(&params, rows, |r| {
        vec![
            json::s("scenario", &r.scenario),
            json::v("ops", r.ops),
            json::v("failed", r.failed),
            json::f("goodput_incs_per_sec", r.goodput, 1),
            json::v("p99_us", r.p99_us),
            json::f("availability", r.availability, 4),
            json::v("exact", r.exact),
            json::v("proxy_conns", r.proxy_conns),
            json::v("resets", r.resets),
            json::v("blackholed", r.blackholed),
            json::v("corrupted_bytes", r.corrupted_bytes),
        ]
    })
}

/// The robustness gate: every scenario stays exactly-once and fully
/// available.
fn e23_gate(rows: &[ChaosRow]) -> Result<(), String> {
    let lost = rows.iter().filter(|r| !r.exact || (r.availability - 1.0).abs() >= f64::EPSILON);
    verdict(lost.map(|r| {
        format!(
            "robustness regression: scenario '{}' lost exactness or availability \
             ({} of {} ops failed, exact: {})",
            r.scenario, r.failed, r.ops, r.exact
        )
    }))
}

/// The E23 table row. A robustness check, not a perf one: smoke shrinks
/// the per-connection work, not the toxic grid.
#[must_use]
pub fn e23(size: Size) -> Outcome {
    let (conns, ops_per_conn) = match size {
        Size::Smoke => (2, 8),
        Size::Quick => (4, 25),
        Size::Full => (8, 100),
    };
    let n = 8;
    let rows = e23_measure(n, conns, ops_per_conn, &e23_scenarios());
    Outcome {
        text: e23_render(n, &rows),
        bench_file: Some(("BENCH_chaos.json", e23_json(n, conns, ops_per_conn, &rows))),
        gate: e23_gate(&rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e23_measures_renders_and_serializes() {
        // A fast subset: baseline plus the two cheap toxics.
        let scenarios: Vec<(String, ChaosPlan)> = e23_scenarios()
            .into_iter()
            .filter(|(name, _)| {
                name.starts_with("baseline")
                    || name.starts_with("slice")
                    || name.starts_with("corrupt")
            })
            .collect();
        assert_eq!(scenarios.len(), 3);
        let rows = e23_measure(8, 2, 6, &scenarios);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.exact), "a scenario lost exactness: {rows:?}");
        assert!(rows.iter().all(|r| (r.availability - 1.0).abs() < f64::EPSILON));
        assert!(rows.iter().all(|r| r.goodput > 0.0));
        let report = e23_render(8, &rows);
        assert!(report.contains("goodput"), "{report}");
        assert!(report.contains("baseline"), "{report}");
    }

    #[test]
    fn the_scenario_grid_covers_every_toxic() {
        let scenarios = e23_scenarios();
        assert_eq!(scenarios.len(), 7);
        let toxic_count: usize = scenarios.iter().map(|(_, p)| p.toxics.len()).sum();
        assert_eq!(toxic_count, 6, "one toxic per non-baseline scenario");
    }
}
