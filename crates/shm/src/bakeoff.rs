//! The E26 bake-off harness: one backend, `t` free-running threads,
//! full telemetry.
//!
//! Each measured cell spawns `threads` OS threads against a fresh
//! backend instance. Every thread records its own latency
//! [`Histogram`] (identical layout, merged afterwards — no shared
//! recorder on the hot path) and its own [`ThreadHistory`] event log;
//! after the join the merged history is fed to the fetch&increment
//! checker, so every published throughput number carries its own
//! correctness verdict: gap-free `0..ops` for every backend,
//! linearizable for the backends that promise it (the counting network
//! is quiescently consistent by design, so its real-time violations are
//! *reported*, not gated).
//!
//! This module drives real `std` threads and wall clocks, so it is
//! compiled out under the loom model (`--features loom`); the loom
//! suite exercises the same structures through its own tiny models.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use distctr_analysis::Histogram;
use distctr_check::{HistoryRecorder, ThreadHistory};
use distctr_sim::ProcessorId;

use crate::central::CentralCounter;
use crate::combining::FlatCombiningCounter;
use crate::network::AtomicBitonicCounter;
use crate::tree::ShmTreeCounter;

/// Latency histogram layout shared by every thread: 256 ns bins from 0
/// to ~16.8 ms (the tail clamps into the last bin).
const LAT_LO_NS: u64 = 0;
const LAT_HI_NS: u64 = (1 << 24) - 1;
const LAT_BINS: usize = 1 << 16;

/// The contenders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The retirement tree on the shared-memory arena ([`ShmTreeCounter`]).
    Tree,
    /// Flat combining over one shared cell ([`FlatCombiningCounter`]).
    Combining,
    /// The bitonic counting network on atomics ([`AtomicBitonicCounter`]).
    Network,
    /// One padded `fetch_add` cell ([`CentralCounter`]) — the reference.
    Central,
}

impl BackendKind {
    /// Every contender, in report order.
    pub const ALL: [BackendKind; 4] =
        [BackendKind::Tree, BackendKind::Combining, BackendKind::Network, BackendKind::Central];

    /// Stable name used in reports, JSON, and the loadgen CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Tree => "shm-tree",
            BackendKind::Combining => "shm-combining",
            BackendKind::Network => "shm-network",
            BackendKind::Central => "shm-central",
        }
    }

    /// Whether the backend promises linearizability (the counting
    /// network only promises quiescent consistency).
    #[must_use]
    pub fn promises_linearizability(self) -> bool {
        !matches!(self, BackendKind::Network)
    }
}

/// One measured cell of the bake-off grid.
#[derive(Debug, Clone)]
pub struct BakeoffRow {
    /// Backend name (see [`BackendKind::name`]).
    pub backend: &'static str,
    /// Concurrent caller threads.
    pub threads: usize,
    /// Operations issued by each thread.
    pub ops_per_thread: u64,
    /// Total operations completed (`threads * ops_per_thread`).
    pub ops: u64,
    /// Wall-clock for the whole run (barrier release to last return).
    pub elapsed_ns: u64,
    /// Aggregate throughput.
    pub incs_per_sec: f64,
    /// 99th-percentile per-operation latency, microseconds
    /// (conservative: upper edge of the p99 histogram bin).
    pub p99_us: f64,
    /// Per-thread fairness: slowest thread's throughput over the
    /// fastest's, in `(0, 1]`; 1.0 means perfectly even progress.
    pub fairness: f64,
    /// Every value in `0..ops` returned exactly once.
    pub gap_free: bool,
    /// Gap-free and no real-time reordering observed.
    pub linearizable: bool,
    /// Count of real-time order violations observed (informative for
    /// the counting network; must be 0 for the others).
    pub lin_violations: usize,
    /// The backend's hottest-location traffic after the run (each
    /// backend's own definition; see the module docs of each).
    pub bottleneck: u64,
}

/// One increment charged to the calling thread, shared across workers.
type SharedOp = Arc<dyn Fn(usize) -> u64 + Send + Sync>;
/// Reads the backend's hottest-location traffic after the run.
type BottleneckFn = Box<dyn Fn() -> u64>;

/// What each worker thread brings home.
struct ThreadReport {
    history: ThreadHistory,
    latencies: Histogram,
    elapsed_ns: u64,
}

/// Runs one cell: `threads` threads, each performing `ops_per_thread`
/// increments against a fresh `kind` backend.
///
/// # Panics
///
/// Panics if a worker thread dies or (tree backend) an operation
/// stalls — both indicate a bug in the structure under test, and the
/// bake-off's job is to surface it loudly.
#[must_use]
pub fn run_cell(kind: BackendKind, threads: usize, ops_per_thread: u64) -> BakeoffRow {
    let threads = threads.max(1);
    let ops_per_thread = ops_per_thread.max(1);

    // Build the backend and wrap its call surface; `op(thread)` is one
    // increment charged to that caller.
    let (op, bottleneck): (SharedOp, BottleneckFn) = match kind {
        BackendKind::Tree => {
            let c = Arc::new(ShmTreeCounter::new(threads.max(2)).expect("arena"));
            let procs = c.processors();
            let run = Arc::clone(&c);
            (
                Arc::new(move |t| run.inc_shared(ProcessorId::new(t % procs)).expect("tree inc")),
                Box::new(move || {
                    c.quiesce();
                    c.bottleneck()
                }),
            )
        }
        BackendKind::Combining => {
            let c = Arc::new(FlatCombiningCounter::new(threads));
            let run = Arc::clone(&c);
            (Arc::new(move |t| run.inc_shared(t)), Box::new(move || c.bottleneck()))
        }
        BackendKind::Network => {
            let width = threads.next_power_of_two().max(2);
            let c = Arc::new(AtomicBitonicCounter::new(width));
            let run = Arc::clone(&c);
            (Arc::new(move |t| run.inc_on(t)), Box::new(move || c.bottleneck()))
        }
        BackendKind::Central => {
            let c = Arc::new(CentralCounter::new(threads));
            let run = Arc::clone(&c);
            (Arc::new(move |_| run.inc_shared()), Box::new(move || c.bottleneck()))
        }
    };

    let recorder = HistoryRecorder::new();
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<thread::JoinHandle<ThreadReport>> = (0..threads)
        .map(|t| {
            let op = Arc::clone(&op);
            let barrier = Arc::clone(&barrier);
            let mut history = recorder.thread();
            thread::spawn(move || {
                let mut latencies = Histogram::with_layout(LAT_LO_NS, LAT_HI_NS, LAT_BINS);
                barrier.wait();
                let start = Instant::now();
                for _ in 0..ops_per_thread {
                    let invoked = history.invoke();
                    let value = op(t);
                    history.ret(invoked, value);
                    latencies.record(invoked.elapsed().as_nanos() as u64);
                }
                ThreadReport { history, latencies, elapsed_ns: start.elapsed().as_nanos() as u64 }
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let reports: Vec<ThreadReport> =
        handles.into_iter().map(|h| h.join().expect("bake-off thread")).collect();
    let elapsed_ns = (start.elapsed().as_nanos() as u64).max(1);

    let mut latencies = Histogram::with_layout(LAT_LO_NS, LAT_HI_NS, LAT_BINS);
    let mut histories: Vec<ThreadHistory> = Vec::with_capacity(reports.len());
    let mut slowest = 1u64;
    let mut fastest = u64::MAX;
    for r in reports {
        latencies.merge(&r.latencies);
        slowest = slowest.max(r.elapsed_ns.max(1));
        fastest = fastest.min(r.elapsed_ns.max(1));
        histories.push(r.history);
    }
    let verdict = recorder.check(&histories);
    let ops = threads as u64 * ops_per_thread;
    BakeoffRow {
        backend: kind.name(),
        threads,
        ops_per_thread,
        ops,
        elapsed_ns,
        incs_per_sec: ops as f64 / (elapsed_ns as f64 / 1e9),
        p99_us: latencies.quantile(0.99).unwrap_or(0) as f64 / 1000.0,
        fairness: fastest as f64 / slowest as f64,
        gap_free: verdict.gap_free(),
        linearizable: verdict.linearizable(),
        lin_violations: verdict.violations.len(),
        bottleneck: bottleneck(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_cli_tokens() {
        let names: Vec<&str> = BackendKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["shm-tree", "shm-combining", "shm-network", "shm-central"]);
        assert!(!BackendKind::Network.promises_linearizability());
        assert!(BackendKind::Tree.promises_linearizability());
    }

    #[test]
    fn every_backend_survives_a_small_cell() {
        for kind in BackendKind::ALL {
            let row = run_cell(kind, 2, 50);
            assert_eq!(row.ops, 100, "{}", row.backend);
            assert!(row.gap_free, "{} must be gap-free", row.backend);
            if kind.promises_linearizability() {
                assert!(
                    row.linearizable,
                    "{} promised linearizability: {} violations",
                    row.backend, row.lin_violations
                );
            }
            assert!(row.incs_per_sec > 0.0);
            assert!(row.fairness > 0.0 && row.fairness <= 1.0);
            assert!(row.bottleneck > 0, "{} bottleneck accounting", row.backend);
        }
    }

    #[test]
    fn single_thread_is_the_degenerate_cell() {
        let row = run_cell(BackendKind::Central, 1, 100);
        assert_eq!(row.threads, 1);
        assert!(row.linearizable);
        assert!((row.fairness - 1.0).abs() < f64::EPSILON, "one thread is trivially fair");
    }
}
