//! Experiment E25 — the paper's bound at scale: the arena simulation
//! core driving a tree of ≥ 1M simulated processors.
//!
//! The Wattenhofer–Widmayer bound is asymptotic: some processor
//! exchanges Ω(log n / log log n) messages, and the retirement tree
//! matches it with a max per-processor load of O(k) where `n = k^(k+1)`.
//! Every other experiment probes small trees (k ≤ 4, n ≤ 1024) where
//! the constants dwarf the asymptotics. E25 exists to run the *curve*:
//! one increment per processor (the canonical workload) at every exact
//! tree size from `3^4 = 81` up to `7^8 = 5,764,801` processors — past
//! the 1M mark — with tracing off, and compares the measured bottleneck
//! against the `O(k)` envelope from `kmath`.
//!
//! This is the workload the arena refactor was built for: dense
//! `Vec`-indexed routing tables, tombstoned cancellation in the event
//! queue, slot-arena engine state and an allocation-free trace-off
//! inject path. The row also records events (delivered messages) per
//! second and the process peak RSS, so regressions in either time or
//! space at scale show up in the checked-in `BENCH_scale.json`.
//!
//! The envelope constant is the repo's own: the core test
//! `bottleneck_is_big_o_of_k_not_n` pins the canonical-workload
//! bottleneck under `20k` (a processor can serve the root once and one
//! other inner node once, each stint costing ~6k messages), so E25
//! predicts `20k` and the report gate allows 2× slack on top.

use std::time::Instant;

use distctr_analysis::{fmt_f64, loglog_fit, Plot, Scale, Table};
use distctr_core::kmath;
use distctr_core::TreeCounter;
use distctr_sim::{Counter, ProcessorId, TraceMode};

use crate::json;
use crate::table::{verdict, Outcome, Size};

/// One tree size's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// Tree order `k`.
    pub k: u32,
    /// Simulated processors, `n = k^(k+1)`.
    pub processors: usize,
    /// Measured bottleneck: the max per-processor message load.
    pub max_load: u64,
    /// The `O(k)` envelope the measurement is held against (`20k`).
    pub predicted: u64,
    /// Total protocol messages the run delivered.
    pub total_messages: u64,
    /// Delivered messages per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock seconds for the inc sweep (excludes tree build).
    pub elapsed_secs: f64,
    /// Process peak RSS after the run, in MiB (`VmHWM`; 0 where
    /// `/proc/self/status` is unavailable). The high-water mark is
    /// process-wide and monotone, so it is attributed to the largest
    /// size when rows run smallest-first.
    pub peak_rss_mib: u64,
}

/// The sweep sizes: exact tree sizes `k^(k+1)`, smallest first.
/// Smoke stops at `4^5 = 1024` (seconds on a laptop), quick adds
/// `5^6 = 15,625`, and the full sweep runs to `7^8 = 5,764,801` —
/// the paper's curve past a million processors.
#[must_use]
pub fn e25_sizes(size: Size) -> Vec<usize> {
    let orders: &[u32] = match size {
        Size::Smoke => &[3, 4],
        Size::Quick => &[3, 4, 5],
        Size::Full => &[3, 4, 5, 6, 7],
    };
    orders
        .iter()
        .map(|&k| usize::try_from(kmath::leaves_of_order(k)).expect("supported sizes fit usize"))
        .collect()
}

/// The `O(k)` envelope E25 plots and gates against: `20k`, the same
/// constant the core bottleneck test pins (see the module docs).
#[must_use]
pub fn e25_predicted(k: u32) -> u64 {
    20 * u64::from(k)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 off-Linux.
#[must_use]
pub fn peak_rss_mib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb / 1024)
}

/// Runs the canonical workload (one inc per processor, id order,
/// tracing off) at each size and measures the bottleneck, throughput
/// and memory high-water mark.
///
/// # Panics
///
/// Panics if a tree cannot be built or an increment fails (the
/// fault-free path never does).
#[must_use]
pub fn e25_measure(sizes: &[usize]) -> Vec<ScaleRow> {
    sizes
        .iter()
        .map(|&n| {
            let mut c = TreeCounter::builder(n)
                .expect("builder")
                .trace(TraceMode::Off)
                .build()
                .expect("counter");
            let k = c.order();
            let procs = c.processors();
            let start = Instant::now();
            for i in 0..procs {
                c.inc(ProcessorId::new(i)).expect("fault-free inc");
            }
            let elapsed = start.elapsed().as_secs_f64();
            let total_messages = c.loads().total_messages();
            ScaleRow {
                k,
                processors: procs,
                max_load: c.loads().max_load(),
                predicted: e25_predicted(k),
                total_messages,
                events_per_sec: if elapsed > 0.0 { total_messages as f64 / elapsed } else { 0.0 },
                elapsed_secs: elapsed,
                peak_rss_mib: peak_rss_mib(),
            }
        })
        .collect()
}

/// Renders the E25 table and the measured-vs-envelope log-log plot.
#[must_use]
pub fn e25_render(rows: &[ScaleRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "E25. Scale: canonical workload (one inc per processor, trace off) on the\n\
         arena simulation core, at every exact tree size k^(k+1)\n\n",
    );
    let mut table = Table::new(vec![
        "k",
        "processors",
        "max load",
        "O(k) envelope (20k)",
        "messages",
        "events/s",
        "elapsed (s)",
        "peak RSS (MiB)",
    ]);
    for r in rows {
        table.row(vec![
            r.k.to_string(),
            r.processors.to_string(),
            r.max_load.to_string(),
            r.predicted.to_string(),
            r.total_messages.to_string(),
            fmt_f64(r.events_per_sec),
            format!("{:.2}", r.elapsed_secs),
            r.peak_rss_mib.to_string(),
        ]);
    }
    out.push_str(&table.render());

    let measured: Vec<(f64, f64)> =
        rows.iter().map(|r| (r.processors as f64, r.max_load as f64)).collect();
    let envelope: Vec<(f64, f64)> =
        rows.iter().map(|r| (r.processors as f64, r.predicted as f64)).collect();
    if measured.len() >= 2 {
        let mut plot = Plot::new(48, 14, Scale::Log, Scale::Log);
        plot.series('+', "measured max load", &measured);
        plot.series('o', "20k envelope", &envelope);
        out.push('\n');
        out.push_str(&plot.render());
        if let Some(fit) = loglog_fit(&measured) {
            out.push_str(&format!(
                "\nlog-log slope of max load vs n: {:.3} (a polylog bound; any fixed\n\
                 power n^c would show slope c >= 1)\n",
                fit.slope
            ));
        }
    }
    out.push_str(
        "\nreading: the bottleneck tracks the O(k) envelope — k only steps 3, 4, 5, 6, 7\n\
         while n multiplies 81 -> 5,764,801. A centralized counter's bottleneck would be\n\
         2n; here a 71,000x growth in processors moves the max load by a factor within\n\
         the envelope's 20k/12 ~ 2.3x. events/s and peak RSS pin the arena core's\n\
         time and space at scale.\n",
    );
    out
}

/// Serializes the sweep as the checked-in `BENCH_scale.json` artifact.
#[must_use]
pub fn e25_json(rows: &[ScaleRow]) -> String {
    let params = [
        json::s("experiment", "scale"),
        json::s("backend", "arena sim core"),
        json::s("mode", "one inc per processor, id order, TraceMode::Off"),
        json::s("envelope", "20k (core bottleneck test constant)"),
    ];
    json::document(&params, rows, |r| {
        vec![
            json::v("k", r.k),
            json::v("processors", r.processors),
            json::v("max_load", r.max_load),
            json::v("predicted", r.predicted),
            json::v("total_messages", r.total_messages),
            json::f("events_per_sec", r.events_per_sec, 1),
            json::f("elapsed_secs", r.elapsed_secs, 3),
            json::v("peak_rss_mib", r.peak_rss_mib),
        ]
    })
}

/// The scale gate: the measured bottleneck stays within twice the
/// `O(k)` envelope at every size, and a full sweep crosses 1M
/// processors.
fn e25_gate(rows: &[ScaleRow], size: Size) -> Result<(), String> {
    let mut failed: Vec<String> = rows
        .iter()
        .filter(|r| r.max_load > 2 * r.predicted)
        .map(|r| {
            format!(
                "scale regression: n={} bottleneck {} exceeds twice the O(k) envelope {}",
                r.processors, r.max_load, r.predicted
            )
        })
        .collect();
    if size == Size::Full && !rows.iter().any(|r| r.processors >= 1_000_000) {
        failed.push("the full sweep must include a size past 1M processors".into());
    }
    verdict(failed)
}

/// The E25 table row: the paper's curve on the arena core. The full
/// sweep is what the checked-in `BENCH_scale.json` records.
#[must_use]
pub fn e25(size: Size) -> Outcome {
    let rows = e25_measure(&e25_sizes(size));
    Outcome {
        text: e25_render(&rows),
        bench_file: Some(("BENCH_scale.json", e25_json(&rows))),
        gate: e25_gate(&rows, size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e25_sizes_are_exact_tree_sizes_and_the_full_sweep_passes_a_million() {
        let smoke = e25_sizes(Size::Smoke);
        assert_eq!(smoke, vec![81, 1024]);
        let quick = e25_sizes(Size::Quick);
        assert_eq!(quick, vec![81, 1024, 15_625]);
        let full = e25_sizes(Size::Full);
        assert_eq!(full, vec![81, 1024, 15_625, 279_936, 5_764_801]);
        assert!(full.iter().any(|&n| n >= 1_000_000), "the full sweep crosses 1M");
        for &n in &full {
            assert!(kmath::exact_order(n as u64).is_some(), "n={n} must be an exact k^(k+1)");
        }
    }

    #[test]
    fn e25_measures_renders_and_serializes_at_tiny_sizes() {
        // k=3 only: this pins the harness shape; the report gate runs
        // the real sizes.
        let rows = e25_measure(&[81]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!((r.k, r.processors), (3, 81));
        assert!(r.max_load > 0, "the canonical workload moves messages");
        assert_eq!(e25_gate(&rows, Size::Smoke), Ok(()));
        assert!(e25_gate(&rows, Size::Full).is_err(), "81 processors is no full sweep");
        assert!(r.total_messages > 81, "more than one message per inc");
        assert!(r.events_per_sec > 0.0);
        let report = e25_render(&rows);
        assert!(report.contains("max load"), "{report}");
        assert!(report.contains("O(k) envelope"), "{report}");
    }

    #[test]
    fn the_envelope_is_twenty_k() {
        assert_eq!(e25_predicted(3), 60);
        assert_eq!(e25_predicted(7), 140);
    }

    #[test]
    fn peak_rss_reads_the_high_water_mark_on_linux() {
        // On Linux this is the live process's VmHWM; elsewhere 0.
        let rss = peak_rss_mib();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0, "a running test process has a nonzero high-water mark");
        }
    }
}
