//! Experiment E26 — the shared-memory bake-off: retirement tree vs.
//! flat combining vs. counting network vs. one `fetch_add` cell, on
//! real threads.
//!
//! The paper's bound lives in the message-passing model; `crates/shm`
//! ports the contenders to hardware atomics behind one surface, and E26
//! sweeps thread counts over all four, recording throughput, p99
//! latency, per-thread fairness, and each backend's own
//! hottest-location traffic. Every cell also carries a correctness
//! verdict from `distctr-check`'s fetch&increment history checker:
//!
//! * **gap-free** (`0..ops`, each value exactly once) is *gated* for
//!   every backend — a counting structure that loses or duplicates
//!   values is broken, full stop;
//! * **linearizable** is gated for the tree, combining, and central
//!   backends, which promise it; the counting network is quiescently
//!   consistent by design, so its real-time violations are *reported*
//!   (seeing a nonzero count there is the theory working, not a bug).
//!
//! Numbers are machine-relative (the sweep records the host's core
//! count; past the core count the cells measure oversubscription), but
//! the verdicts are absolute, which is what the `report e26 --smoke` CI
//! gate runs.

use distctr_analysis::{fmt_f64, Table};
use distctr_shm::{run_cell, BackendKind, BakeoffRow};

use crate::json;
use crate::table::{verdict, Outcome, Size};

/// Thread counts swept per backend. Smoke stops at 8 (seconds, the CI
/// gate — still ≥ 4 counts per backend); quick adds 16; the full sweep
/// runs to 64.
#[must_use]
pub fn e26_threads(size: Size) -> Vec<usize> {
    match size {
        Size::Smoke => vec![1, 2, 4, 8],
        Size::Quick => vec![1, 2, 4, 8, 16],
        Size::Full => vec![1, 2, 4, 8, 16, 32, 64],
    }
}

/// Operations each thread performs in one cell.
#[must_use]
pub fn e26_ops_per_thread(size: Size) -> u64 {
    match size {
        Size::Smoke => 100,
        Size::Quick => 500,
        Size::Full => 1000,
    }
}

/// Runs the full grid: every backend at every thread count.
#[must_use]
pub fn e26_measure(threads: &[usize], ops_per_thread: u64) -> Vec<BakeoffRow> {
    BackendKind::ALL
        .iter()
        .flat_map(|&kind| threads.iter().map(move |&t| run_cell(kind, t, ops_per_thread)))
        .collect()
}

/// The gate: returns one message per violated promise (empty = pass).
/// Gap-freedom is required everywhere; linearizability only where the
/// backend promises it.
#[must_use]
pub fn e26_gate_violations(rows: &[BakeoffRow]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        if !r.gap_free {
            out.push(format!(
                "{} at {} threads lost exactness: the value multiset is not 0..{}",
                r.backend, r.threads, r.ops
            ));
        }
        if r.backend != BackendKind::Network.name() && !r.linearizable {
            out.push(format!(
                "{} at {} threads violated linearizability {} time(s) despite promising it",
                r.backend, r.threads, r.lin_violations
            ));
        }
    }
    out
}

/// Renders the E26 table.
#[must_use]
pub fn e26_render(rows: &[BakeoffRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut out = String::new();
    out.push_str(&format!(
        "E26. Shared-memory bake-off: {} ops/thread per cell on a {}-core host\n\
         (thread counts past the core count measure oversubscription)\n\n",
        rows.first().map_or(0, |r| r.ops_per_thread),
        cores
    ));
    let mut table = Table::new(vec![
        "backend",
        "threads",
        "incs/s",
        "p99 (us)",
        "fairness",
        "gap-free",
        "linearizable",
        "lin viols",
        "bottleneck",
    ]);
    for r in rows {
        let lin = if r.backend == BackendKind::Network.name() {
            format!("{} (QC only)", if r.linearizable { "yes" } else { "no" })
        } else {
            (if r.linearizable { "yes" } else { "NO" }).to_string()
        };
        table.row(vec![
            r.backend.to_string(),
            r.threads.to_string(),
            fmt_f64(r.incs_per_sec),
            format!("{:.1}", r.p99_us),
            format!("{:.2}", r.fairness),
            (if r.gap_free { "yes" } else { "NO" }).to_string(),
            lin,
            r.lin_violations.to_string(),
            r.bottleneck.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nreading: the central cell wins outright until real parallelism shows up —\n\
         the paper's lower bound is about *distributed* traffic, and a single cache\n\
         line under coherence is this machine's root node. The counting network's\n\
         lin viols column is quiescent consistency measured in the wild; the tree's\n\
         bottleneck column is the same max per-processor message load every other\n\
         experiment reports, now on a shared arena.\n",
    );
    out
}

/// Serializes the grid as the checked-in `BENCH_shm.json` artifact.
#[must_use]
pub fn e26_json(rows: &[BakeoffRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let params = [
        json::s("experiment", "shm-bakeoff"),
        json::v("host_cores", cores),
        json::s(
            "verdicts",
            "gap_free gated for all backends; linearizable gated for all \
             but shm-network (quiescently consistent)",
        ),
    ];
    json::document(&params, rows, |r| {
        vec![
            json::s("backend", r.backend),
            json::v("threads", r.threads),
            json::v("ops", r.ops),
            json::f("incs_per_sec", r.incs_per_sec, 1),
            json::f("p99_us", r.p99_us, 1),
            json::f("fairness", r.fairness, 3),
            json::v("gap_free", r.gap_free),
            json::v("linearizable", r.linearizable),
            json::v("lin_violations", r.lin_violations),
            json::v("bottleneck", r.bottleneck),
        ]
    })
}

/// The E26 table row: throughput is machine-relative, but every cell's
/// correctness verdict is absolute and gated.
#[must_use]
pub fn e26(size: Size) -> Outcome {
    let rows = e26_measure(&e26_threads(size), e26_ops_per_thread(size));
    Outcome {
        text: e26_render(&rows),
        bench_file: Some(("BENCH_shm.json", e26_json(&rows))),
        gate: verdict(e26_gate_violations(&rows)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweeps_have_at_least_four_counts_everywhere() {
        assert_eq!(e26_threads(Size::Smoke), vec![1, 2, 4, 8]);
        assert_eq!(e26_threads(Size::Quick), vec![1, 2, 4, 8, 16]);
        assert_eq!(e26_threads(Size::Full), vec![1, 2, 4, 8, 16, 32, 64]);
        assert!(e26_ops_per_thread(Size::Smoke) < e26_ops_per_thread(Size::Full));
    }

    #[test]
    fn e26_measures_renders_and_serializes_a_tiny_grid() {
        let rows = e26_measure(&[1, 2], 30);
        assert_eq!(rows.len(), 8, "4 backends x 2 thread counts");
        assert!(e26_gate_violations(&rows).is_empty(), "{:?}", e26_gate_violations(&rows));
        let report = e26_render(&rows);
        assert!(report.contains("shm-tree"), "{report}");
        assert!(report.contains("QC only"), "{report}");
    }

    #[test]
    fn the_gate_flags_lost_exactness_and_broken_promises() {
        let mut rows = e26_measure(&[1], 10);
        rows[0].gap_free = false;
        rows[0].linearizable = false;
        let violations = e26_gate_violations(&rows);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("lost exactness"));
        // The network is exempt from the linearizability promise.
        let net = rows
            .iter_mut()
            .find(|r| r.backend == BackendKind::Network.name())
            .expect("network row");
        net.linearizable = false;
        net.gap_free = true;
        assert_eq!(e26_gate_violations(&rows).len(), 2, "no new violation for the network");
    }
}
