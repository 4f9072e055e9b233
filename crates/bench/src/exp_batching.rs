//! Experiment E22 — batched increments and the flat-combining hot path.
//!
//! The paper's protocol pays one root traversal per inc; batching pays
//! one traversal per *batch* (`KeyBatchInc(m)` reserves the contiguous
//! range `[v, v + m)` in a single climb), and the server's
//! flat-combining front-end turns concurrent unit incs into exactly
//! such batches without any client cooperation. This experiment drives
//! the same closed-loop TCP workload against the sequential path and
//! the combining path, over a concurrency grid, and
//! reports achieved incs/sec side by side — the amortization story
//! `kmath::amortized_msgs_per_inc` prices analytically, measured
//! end-to-end through real sockets.

use distctr_analysis::{fmt_f64, Table};
use distctr_core::kmath;
use distctr_net::ThreadedTreeCounter;
use distctr_server::{run_load, CounterServer, LoadConfig, ServerConfig};

use crate::json;
use crate::table::{Outcome, Size};

/// One concurrency level's measurement: the same workload through both
/// serving paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchingRow {
    /// Concurrent client connections.
    pub conns: usize,
    /// Total operations driven per path.
    pub ops: usize,
    /// Closed-loop throughput of the sequential path, incs/sec.
    pub sequential_ops_per_sec: f64,
    /// Closed-loop throughput of the flat-combining path, incs/sec.
    pub combined_ops_per_sec: f64,
    /// Batched traversals the combining path actually drove;
    /// `ops / combined_traversals` is the realized mean batch size.
    pub combined_traversals: u64,
}

impl BatchingRow {
    /// Combined over sequential throughput.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.sequential_ops_per_sec <= 0.0 {
            return 0.0;
        }
        self.combined_ops_per_sec / self.sequential_ops_per_sec
    }

    /// Realized mean batch size of the combining path.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.combined_traversals == 0 {
            return 0.0;
        }
        self.ops as f64 / self.combined_traversals as f64
    }
}

/// Measures both serving paths at every concurrency in `conns_grid`
/// (`ops_per_conn` closed-loop operations per connection), each against
/// a fresh threaded tree of `n` processors on loopback TCP. Each cell
/// is the median of `trials` runs — loopback throughput on a busy box
/// is noisy and a single run can swing either path by tens of percent.
///
/// # Panics
///
/// Panics if `trials` is zero, a server cannot bind loopback, a load
/// run fails, or either path hands out a non-sequential value set
/// (exactness is part of the claim being benchmarked).
#[must_use]
pub fn e22_measure(
    n: usize,
    conns_grid: &[usize],
    ops_per_conn: usize,
    trials: usize,
) -> Vec<BatchingRow> {
    assert!(trials > 0, "need at least one trial per cell");
    conns_grid
        .iter()
        .map(|&conns| {
            let ops = conns * ops_per_conn;
            let mut seq: Vec<(f64, u64)> =
                (0..trials).map(|_| closed_loop_throughput(false, n, conns, ops)).collect();
            let mut comb: Vec<(f64, u64)> =
                (0..trials).map(|_| closed_loop_throughput(true, n, conns, ops)).collect();
            let (sequential_ops_per_sec, _) = median_by_rate(&mut seq);
            let (combined_ops_per_sec, combined_traversals) = median_by_rate(&mut comb);
            BatchingRow {
                conns,
                ops,
                sequential_ops_per_sec,
                combined_ops_per_sec,
                combined_traversals,
            }
        })
        .collect()
}

/// The median trial, ordered by throughput (ties broken arbitrarily).
fn median_by_rate(trials: &mut [(f64, u64)]) -> (f64, u64) {
    trials.sort_by(|a, b| a.0.total_cmp(&b.0));
    trials[trials.len() / 2]
}

fn closed_loop_throughput(combining: bool, n: usize, conns: usize, ops: usize) -> (f64, u64) {
    let backend = ThreadedTreeCounter::new(n).expect("threaded tree");
    let config = ServerConfig::default();
    let mut server = CounterServer::serve_async_on_with("127.0.0.1:0", backend, combining, config)
        .expect("serve");
    let report = run_load(server.local_addr(), &LoadConfig::closed(conns, ops)).expect("load run");
    assert!(
        report.values_are_sequential_from(0),
        "serving path (combining: {combining}) must stay exact under load"
    );
    let traversals = server.stats().combined_traversals;
    server.shutdown().expect("shutdown");
    (report.throughput(), traversals)
}

/// Renders the E22 before/after table plus the analytic amortization
/// the measurement realizes.
#[must_use]
pub fn e22_render(n: usize, k: u32, rows: &[BatchingRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E22. Batching and combining: closed-loop TCP incs/sec against {n} processors,\n\
         the sequential path vs flat combining\n\n"
    ));
    let mut table = Table::new(vec![
        "conns",
        "ops",
        "sequential (incs/s)",
        "combined (incs/s)",
        "speedup",
        "traversals",
        "mean batch",
    ]);
    for r in rows {
        table.row(vec![
            r.conns.to_string(),
            r.ops.to_string(),
            fmt_f64(r.sequential_ops_per_sec),
            fmt_f64(r.combined_ops_per_sec),
            format!("{:.2}x", r.speedup()),
            r.combined_traversals.to_string(),
            format!("{:.1}", r.mean_batch()),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\namortization (k = {k}): a unit inc costs {:.1} messages up the tree; a combined\n\
         batch of m shares that one climb, so per-inc load falls as (k+1)/m —\n\
         m = 8 gives {:.2} msgs/inc, m = 32 gives {:.2}. The counter stays exact:\n\
         every batch owns a contiguous range and the ranges partition [0, total).\n",
        kmath::amortized_msgs_per_inc(k, 1),
        kmath::amortized_msgs_per_inc(k, 8),
        kmath::amortized_msgs_per_inc(k, 32),
    ));
    out
}

/// Serializes the measurement as the checked-in `BENCH_batching.json`
/// artifact.
#[must_use]
pub fn e22_json(n: usize, ops_per_conn: usize, rows: &[BatchingRow]) -> String {
    let params = [
        json::s("experiment", "batching"),
        json::s("engine", "single reactor"),
        json::s("backend", "threaded"),
        json::s("mode", "closed-loop TCP"),
        json::v("processors", n),
        json::v("ops_per_conn", ops_per_conn),
    ];
    json::document(&params, rows, |r| {
        vec![
            json::v("conns", r.conns),
            json::v("ops", r.ops),
            json::f("sequential_incs_per_sec", r.sequential_ops_per_sec, 1),
            json::f("combined_incs_per_sec", r.combined_ops_per_sec, 1),
            json::f("speedup", r.speedup(), 2),
            json::v("combined_traversals", r.combined_traversals),
            json::f("mean_batch", r.mean_batch(), 1),
        ]
    })
}

/// The regression gate: at the highest measured concurrency the
/// combining path must not be slower than the sequential one.
fn e22_gate(rows: &[BatchingRow]) -> Result<(), String> {
    let Some(top) = rows.iter().max_by_key(|r| r.conns) else { return Ok(()) };
    if top.speedup() >= 1.0 {
        return Ok(());
    }
    Err(format!(
        "regression: combining throughput ({:.1} incs/s) fell below the sequential path \
         ({:.1} incs/s) at {} connections",
        top.combined_ops_per_sec, top.sequential_ops_per_sec, top.conns
    ))
}

/// The E22 table row: smoke keeps the full concurrency grid (the gate
/// is defined at 32 connections) but shrinks the per-connection work
/// and the trial count.
#[must_use]
pub fn e22(size: Size) -> Outcome {
    let (ops_per_conn, trials) = match size {
        Size::Smoke => (10, 1),
        Size::Quick => (25, 2),
        Size::Full => (200, 5),
    };
    let (n, k) = (81, 3);
    let rows = e22_measure(n, &[1, 8, 32], ops_per_conn, trials);
    Outcome {
        text: e22_render(n, k, &rows),
        bench_file: Some(("BENCH_batching.json", e22_json(n, ops_per_conn, &rows))),
        gate: e22_gate(&rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e22_measures_renders_and_serializes() {
        let rows = e22_measure(8, &[1, 4], 8, 1);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.sequential_ops_per_sec > 0.0));
        assert!(rows.iter().all(|r| r.combined_ops_per_sec > 0.0));
        let report = e22_render(8, 2, &rows);
        assert!(report.contains("speedup"), "{report}");
        assert!(report.contains("flat combining"), "{report}");
    }

    #[test]
    fn speedup_handles_degenerate_rates() {
        let r = BatchingRow {
            conns: 1,
            ops: 1,
            sequential_ops_per_sec: 0.0,
            combined_ops_per_sec: 10.0,
            combined_traversals: 0,
        };
        assert!((r.speedup() - 0.0).abs() < f64::EPSILON);
        assert!((r.mean_batch() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn the_gate_reads_the_widest_row() {
        let row = |conns, seq, comb| BatchingRow {
            conns,
            ops: 100,
            sequential_ops_per_sec: seq,
            combined_ops_per_sec: comb,
            combined_traversals: 10,
        };
        assert_eq!(e22_gate(&[row(1, 10.0, 5.0), row(32, 10.0, 10.0)]), Ok(()));
        let lost = e22_gate(&[row(1, 10.0, 50.0), row(32, 10.0, 9.0)]).expect_err("combining lost");
        assert!(lost.contains("at 32 connections"), "{lost}");
    }
}
