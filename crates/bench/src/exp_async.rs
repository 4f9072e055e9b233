//! Experiment E27 — C10k: how many connections one reactor sustains.
//!
//! The paper's bottleneck is per-processor *message load*, but a serving
//! stack can hit a dumber wall first: the cost of merely holding
//! connections. This experiment drives an open-loop keyless workload —
//! a fixed per-connection rate, so offered load grows with fan-in —
//! against the combining server over a connection grid that ends past
//! 10,000, and records goodput and the latency tail. "Sustainable" is
//! an SLO verdict: every op acked, values exactly `0..ops`, p99 under
//! [`E27_SLO_P99_MS`].
//!
//! Both sides of the socket stay on one thread each: the client is
//! `distctr_server::run_load`'s open-loop driver.
//! Above [`E27_SUBPROCESS_CONNS`] connections the server runs in a
//! child process (`report --e27-serve <n>`) so client and server fd
//! tables stay under a 20k `RLIMIT_NOFILE` each.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use distctr_analysis::{fmt_f64, Table};
use distctr_core::TreeCounter;
use distctr_server::{run_load, CounterServer, LoadConfig, LoadReport};

use crate::json;
use crate::table::{verdict, Outcome, Size};

/// The latency SLO: a connection level is sustainable only if p99 stays
/// under this many milliseconds.
pub const E27_SLO_P99_MS: f64 = 250.0;

/// Open-loop injection rate per connection, ops/second. Offered load is
/// `conns * E27_PER_CONN_RATE`; at the 10k level that is 30k ops/s,
/// inside what one core can carry for client and server together, so a
/// blown latency tail indicts the serving strategy, not raw CPU.
pub const E27_PER_CONN_RATE: f64 = 3.0;

/// Operations per connection per cell — at [`E27_PER_CONN_RATE`] this
/// is a ~4 s injection window per cell.
pub const E27_OPS_PER_CONN: usize = 12;

/// Above this many connections the server is spawned as a child
/// process: 10k client sockets plus 10k server sockets do not fit one
/// process's 20k fd limit.
pub const E27_SUBPROCESS_CONNS: usize = 5000;

/// One connection level of the C10k grid.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncRow {
    /// Connection level attempted (the ramp target).
    pub conns: usize,
    /// Connections the ramp actually established; a saturated server
    /// that stops absorbing connects shows up as a shortfall here.
    pub established: usize,
    /// Operations acked within the run's grace window.
    pub ops: usize,
    /// Open-loop offered rate, ops/second.
    pub offered_rate: f64,
    /// Acked throughput over the injection wall clock, ops/second.
    pub goodput: f64,
    /// Median latency from scheduled injection time, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// Operations that got `Busy`, died with a connection, or outlived
    /// the grace window.
    pub failed: usize,
    /// Whether the acked values were exactly `0..ops` (vacuously false
    /// whenever anything failed).
    pub exact: bool,
}

impl AsyncRow {
    /// The SLO verdict: every connection established, nothing lost,
    /// values exact, p99 under [`E27_SLO_P99_MS`].
    #[must_use]
    pub fn sustainable(&self) -> bool {
        self.established == self.conns
            && self.failed == 0
            && self.exact
            && self.p99_us as f64 <= E27_SLO_P99_MS * 1000.0
    }
}

/// The connection grid: smoke stays small and in-process (CI gate),
/// quick stays in-process, the full sweep ends past the C10k mark.
#[must_use]
pub fn e27_grid(size: Size) -> Vec<usize> {
    match size {
        Size::Smoke => vec![32, 256],
        Size::Quick => vec![32, 1000, 4000],
        Size::Full => vec![32, 1000, 4000, 10000],
    }
}

/// Measures every level of `conns_grid` against a fresh tree of `n`
/// processors. Each cell drives
/// `conns * E27_OPS_PER_CONN` operations open-loop at
/// `conns * E27_PER_CONN_RATE` ops/s through the open-loop driver. A cell
/// whose ramp or run collapses entirely (server dead, connects refused)
/// becomes a row with zero goodput and every op failed rather than a
/// panic — an unsustainable level is a result, not an error.
///
/// # Panics
///
/// Panics only on harness failures: a server that cannot bind or a
/// child process that cannot spawn.
#[must_use]
pub fn e27_measure(n: usize, conns_grid: &[usize]) -> Vec<AsyncRow> {
    conns_grid.iter().map(|&conns| e27_cell(n, conns)).collect()
}

fn e27_cell(n: usize, conns: usize) -> AsyncRow {
    let ops = conns * E27_OPS_PER_CONN;
    let rate = conns as f64 * E27_PER_CONN_RATE;
    eprintln!("e27: {conns} conns ({ops} ops @ {rate:.0}/s)...");
    let cfg = LoadConfig::open(conns, ops, rate);
    let outcome = if conns > E27_SUBPROCESS_CONNS {
        run_against_child(n, &cfg)
    } else {
        run_in_process(n, &cfg)
    };
    match outcome {
        Ok(report) => row_from_report(conns, ops, rate, &report),
        Err(err) => {
            eprintln!("e27: {conns} conns collapsed: {err}");
            AsyncRow {
                conns,
                established: 0,
                ops: 0,
                offered_rate: rate,
                goodput: 0.0,
                p50_us: 0,
                p99_us: 0,
                p999_us: 0,
                failed: ops,
                exact: false,
            }
        }
    }
}

fn row_from_report(conns: usize, ops: usize, rate: f64, report: &LoadReport) -> AsyncRow {
    AsyncRow {
        conns,
        established: report.per_conn.len(),
        ops: report.ops,
        offered_rate: rate,
        goodput: report.throughput(),
        p50_us: report.latency_percentile_us(50.0),
        p99_us: report.latency_percentile_us(99.0),
        p999_us: report.latency_percentile_us(99.9),
        failed: report.failed + ops.saturating_sub(report.ops + report.failed),
        exact: report.failed == 0 && report.values_are_sequential_from(0),
    }
}

fn run_in_process(n: usize, cfg: &LoadConfig) -> Result<LoadReport, String> {
    let backend = TreeCounter::new(n).expect("tree backend");
    let mut server = CounterServer::serve_async_combining(backend).expect("serve");
    let report = run_load(server.local_addr(), cfg).map_err(|e| e.to_string());
    server.shutdown().expect("shutdown");
    report
}

/// Spawns the current executable in `--e27-serve` mode, reads the
/// child's `ADDR <ip:port>` banner, drives the load against it, then
/// closes the child's stdin (its shutdown signal) and reaps it.
fn run_against_child(n: usize, cfg: &LoadConfig) -> Result<LoadReport, String> {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .arg("--e27-serve")
        .arg(n.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn --e27-serve child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).expect("read child banner");
    let addr: std::net::SocketAddr = banner
        .trim()
        .strip_prefix("ADDR ")
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("bad child banner: {banner:?}"));
    let report = run_load(addr, cfg).map_err(|e| e.to_string());
    drop(child.stdin.take());
    let status = child.wait().expect("reap child");
    if !status.success() {
        return Err(format!("server child exited with {status}"));
    }
    report
}

/// The `--e27-serve <n>` child body: serve on an ephemeral
/// loopback port, announce the address on stdout, and run until stdin
/// reaches EOF (the parent dropping the pipe). Called from the `report`
/// binary's entry point before normal argument parsing.
pub fn e27_child_serve(n: usize) {
    use std::io::{Read, Write};
    let backend = TreeCounter::new(n).expect("tree backend");
    let mut server = CounterServer::serve_async_combining(backend).expect("serve");
    let mut out = std::io::stdout();
    writeln!(out, "ADDR {}", server.local_addr()).expect("announce addr");
    out.flush().expect("flush addr");
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown().expect("shutdown");
}

/// Largest connection level sustained, 0 if none.
#[must_use]
pub fn e27_max_sustainable(rows: &[AsyncRow]) -> usize {
    rows.iter().filter(|r| r.sustainable()).map(|r| r.conns).max().unwrap_or(0)
}

/// Renders the E27 table plus the max-sustainable summary.
#[must_use]
pub fn e27_render(n: usize, rows: &[AsyncRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E27. C10k: open-loop goodput and latency tail against {n} processors,\n\
         one reactor thread serving every connection\n\
         (offered rate {} ops/s per connection; SLO: failed == 0, exact, p99 <= {} ms)\n\n",
        E27_PER_CONN_RATE, E27_SLO_P99_MS
    ));
    let mut table = Table::new(vec![
        "conns",
        "opened",
        "offered (ops/s)",
        "goodput (ops/s)",
        "p50 (us)",
        "p99 (us)",
        "p99.9 (us)",
        "failed",
        "sustainable",
    ]);
    for r in rows {
        table.row(vec![
            r.conns.to_string(),
            r.established.to_string(),
            fmt_f64(r.offered_rate),
            fmt_f64(r.goodput),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            r.p999_us.to_string(),
            r.failed.to_string(),
            if r.sustainable() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nmax sustainable connections: {} — a connection costs the reactor a\n\
         slab slot and two buffers, not a stack and a scheduler entry.\n",
        e27_max_sustainable(rows),
    ));
    out
}

/// Serializes the measurement as the checked-in `BENCH_async.json`
/// artifact.
#[must_use]
pub fn e27_json(n: usize, rows: &[AsyncRow]) -> String {
    let params = [
        json::s("experiment", "async-serving"),
        json::s("engine", "single reactor"),
        json::s("mode", "open-loop TCP, mux client driver"),
        json::v("processors", n),
        json::v("per_conn_rate", E27_PER_CONN_RATE),
        json::v("slo_p99_ms", E27_SLO_P99_MS),
        json::v("max_sustainable", e27_max_sustainable(rows)),
    ];
    json::document(&params, rows, |r| {
        vec![
            json::v("conns", r.conns),
            json::v("established", r.established),
            json::f("offered_ops_per_sec", r.offered_rate, 1),
            json::f("goodput_ops_per_sec", r.goodput, 1),
            json::v("p50_us", r.p50_us),
            json::v("p99_us", r.p99_us),
            json::v("p999_us", r.p999_us),
            json::v("failed", r.failed),
            json::v("exact", r.exact),
            json::v("sustainable", r.sustainable()),
        ]
    })
}

/// The C10k gate: the server holds its SLO at every measured fan-in.
fn e27_gate(rows: &[AsyncRow]) -> Result<(), String> {
    verdict(rows.iter().filter(|r| !r.sustainable()).map(|r| {
        format!(
            "connection-scaling regression: the server missed its SLO at {} connections \
             (established {}, failed {}, exact {}, p99 {} us)",
            r.conns, r.established, r.failed, r.exact, r.p99_us
        )
    }))
}

/// The E27 table row.
#[must_use]
pub fn e27(size: Size) -> Outcome {
    let n = 8;
    let rows = e27_measure(n, &e27_grid(size));
    Outcome {
        text: e27_render(n, &rows),
        bench_file: Some(("BENCH_async.json", e27_json(n, &rows))),
        gate: e27_gate(&rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e27_measures_renders_and_serializes_in_process() {
        let rows = e27_measure(8, &[4]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.failed, 0, "lost ops at 4 conns: {r:?}");
        assert!(r.exact, "went inexact at 4 conns: {r:?}");
        assert!(r.goodput > 0.0);
        assert!(r.sustainable(), "{r:?}");
        let report = e27_render(8, &rows);
        assert!(report.contains("sustainable"), "{report}");
    }

    #[test]
    fn the_slo_verdict_rejects_loss_inexactness_and_tail_blowups() {
        let good = AsyncRow {
            conns: 32,
            established: 32,
            ops: 384,
            offered_rate: 128.0,
            goodput: 128.0,
            p50_us: 500,
            p99_us: 9_000,
            p999_us: 20_000,
            failed: 0,
            exact: true,
        };
        assert!(good.sustainable());
        assert!(!AsyncRow { established: 31, ..good.clone() }.sustainable());
        assert!(!AsyncRow { failed: 1, ..good.clone() }.sustainable());
        assert!(!AsyncRow { exact: false, ..good.clone() }.sustainable());
        assert!(!AsyncRow { p99_us: 600_000, ..good.clone() }.sustainable());
        assert_eq!(e27_max_sustainable(std::slice::from_ref(&good)), 32);
        assert_eq!(e27_max_sustainable(&[AsyncRow { failed: 1, ..good }]), 0);
    }

    #[test]
    fn the_grid_scales_with_mode_and_full_reaches_c10k() {
        assert_eq!(e27_grid(Size::Smoke), vec![32, 256]);
        assert!(e27_grid(Size::Quick).iter().all(|&c| c <= E27_SUBPROCESS_CONNS));
        assert!(e27_grid(Size::Full).iter().any(|&c| c >= 10_000));
    }
}
