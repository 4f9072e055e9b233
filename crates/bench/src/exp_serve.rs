//! Experiment E19 — the service boundary: real TCP clients in front of
//! the retirement tree.
//!
//! The paper's model drives the counter sequentially; the service layer
//! keeps that contract (one mutex around the backend) and lets *load*
//! show up where a deployed counter would feel it: as client-observed
//! queueing latency. A closed-loop run measures the service capacity;
//! open-loop runs below and above that capacity show the two regimes —
//! flat latency while the schedule is sustainable, tail blow-up past
//! saturation.

use distctr_analysis::{fmt_f64, Table};
use distctr_net::ThreadedTreeCounter;
use distctr_server::{run_load, CounterServer, LoadConfig, LoadReport};

/// E19 — serve a threaded tree on loopback, drive it with `conns`
/// concurrent TCP connections (closed loop, then open loop below/above
/// the measured capacity), and report throughput, latency percentiles
/// and the server-side accounting.
///
/// # Panics
///
/// Panics if the server cannot bind loopback, a load run fails, or the
/// values handed out over TCP are not exactly sequential.
#[must_use]
pub fn e19_service_loadgen(n: usize, conns: usize, ops: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E19. Service layer: {conns} TCP connections x {ops} total ops against {n} processors\n\n"
    ));
    let mut server =
        CounterServer::serve_async(ThreadedTreeCounter::new(n).expect("threaded tree"))
            .expect("serve");
    let addr = server.local_addr();

    // Closed loop first: the measured service capacity.
    let closed = run_load(addr, &LoadConfig::closed(conns, ops)).expect("closed-loop run");
    assert!(closed.values_are_sequential_from(0), "sequential values over TCP");
    let capacity = closed.throughput().max(500.0);

    // Open loop below and above that capacity, on the same live server
    // (so the value sequence keeps going — and must stay exact).
    let lo = capacity * 0.5;
    let hi = capacity * 2.0;
    let open_lo = run_load(addr, &LoadConfig::open(conns, ops, lo)).expect("open-loop run (lo)");
    assert!(open_lo.values_are_sequential_from(ops as u64), "sequential values, open loop");
    let open_hi = run_load(addr, &LoadConfig::open(conns, ops, hi)).expect("open-loop run (hi)");
    assert!(open_hi.values_are_sequential_from(2 * ops as u64), "sequential values, saturated");

    let mut table = Table::new(vec![
        "mode",
        "target rate (ops/s)",
        "throughput (ops/s)",
        "p50 (us)",
        "p99 (us)",
        "max (us)",
    ]);
    let row = |t: &mut Table, mode: &str, rate: String, r: &LoadReport| {
        t.row(vec![
            mode.into(),
            rate,
            fmt_f64(r.throughput()),
            r.latency_percentile_us(50.0).to_string(),
            r.latency_percentile_us(99.0).to_string(),
            r.max_latency_us().to_string(),
        ]);
    };
    row(&mut table, "closed loop", "-".into(), &closed);
    row(&mut table, "open, 0.5x capacity", fmt_f64(lo), &open_lo);
    row(&mut table, "open, 2x capacity", fmt_f64(hi), &open_hi);
    out.push_str(&table.render());

    let stats = server.stats();
    out.push_str(&format!(
        "\nserver: {} sessions over {} connections, {} ops served, {} deduped, \
         {} wire errors, bottleneck {}, retirements {}\n",
        stats.sessions,
        stats.connections,
        stats.ops,
        stats.deduped,
        stats.wire_errors,
        stats.bottleneck,
        stats.retirements,
    ));
    out.push_str(
        "\nAll values exactly sequential across every connection and mode; the\n\
         inherent bottleneck surfaces as queueing latency once the open-loop\n\
         schedule outruns the serialized tree.\n",
    );
    server.shutdown().expect("shutdown");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_serves_real_sockets() {
        let report = e19_service_loadgen(8, 4, 200);
        assert!(report.contains("closed loop"), "{report}");
        assert!(report.contains("2x capacity"), "{report}");
        assert!(report.contains("0 wire errors"), "{report}");
    }
}
