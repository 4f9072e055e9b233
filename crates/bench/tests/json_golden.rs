//! The `BENCH_*.json` shapes are pinned: every JSON-writing experiment
//! feeds a fixed row through its `eNN_json` (all six go through
//! `distctr_bench::json`) and must reproduce, byte for byte, the string
//! the hand-rolled per-experiment builders produced before they were
//! folded into the one writer (`tests/golden/`, captured from them).
//! E22 also pins the punctuation between rows and around none.

use std::time::Duration;

use distctr_bench::exp_async::{e27_json, AsyncRow};
use distctr_bench::exp_batching::{e22_json, BatchingRow};
use distctr_bench::exp_chaos::{e23_json, ChaosRow};
use distctr_bench::exp_keyspace::{e24_json, KeyspaceRow};
use distctr_bench::exp_scale::{e25_json, ScaleRow};
use distctr_bench::exp_shm::e26_json;
use distctr_shm::BakeoffRow;

#[test]
fn e22_json_matches_the_golden_string() {
    let row = |conns, ops, seq, comb, traversals| BatchingRow {
        conns,
        ops,
        sequential_ops_per_sec: seq,
        combined_ops_per_sec: comb,
        combined_traversals: traversals,
    };
    let rows = [row(1, 200, 7023.449, 6511.05, 200), row(32, 6400, 41234.0, 84999.96, 273)];
    assert_eq!(e22_json(81, 200, &rows), include_str!("golden/e22.json"));
    assert_eq!(e22_json(8, 1, &[]), include_str!("golden/e22_empty.json"));
}

#[test]
fn e23_json_matches_the_golden_string() {
    let rows = [ChaosRow {
        scenario: "reset every 256 B".into(),
        ops: 800,
        failed: 3,
        goodput: 911.04,
        p99_us: 65011,
        availability: 0.99625,
        exact: false,
        proxy_conns: 97,
        resets: 89,
        blackholed: 2,
        corrupted_bytes: 17,
    }];
    assert_eq!(e23_json(8, 8, 100, &rows), include_str!("golden/e23.json"));
}

#[test]
fn e24_json_matches_the_golden_string() {
    let rows = [KeyspaceRow {
        policy: "adaptive".into(),
        ops: 1920,
        failed: 0,
        goodput: 6948.64,
        p50_us: 4120,
        p99_us: 9876,
        exact: true,
        keys_hosted: 12,
        promotions: 3,
        demotions: 1,
    }];
    assert_eq!(
        e24_json(81, 12, 1.6, 32, 60, Duration::from_micros(150), &rows),
        include_str!("golden/e24.json")
    );
}

#[test]
fn e25_json_matches_the_golden_string() {
    let rows = [ScaleRow {
        k: 7,
        processors: 5_764_801,
        max_load: 113,
        predicted: 140,
        total_messages: 110_890_253,
        events_per_sec: 1_954_157.93,
        elapsed_secs: 56.7456,
        peak_rss_mib: 2935,
    }];
    assert_eq!(e25_json(&rows), include_str!("golden/e25.json"));
}

#[test]
fn e26_json_matches_the_golden_string() {
    let rows = [BakeoffRow {
        backend: "shm-network",
        threads: 8,
        ops_per_thread: 1000,
        ops: 8000,
        elapsed_ns: 1_234_567,
        incs_per_sec: 9_876_543.21,
        p99_us: 6.449,
        fairness: 0.5214,
        gap_free: true,
        linearizable: false,
        lin_violations: 500,
        bottleneck: 6015,
    }];
    // The one field that is a fact about the host, not about the rows.
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let golden = include_str!("golden/e26.json").replace("@HOST_CORES@", &cores.to_string());
    assert_eq!(e26_json(&rows), golden);
}

#[test]
fn e27_json_matches_the_golden_string() {
    let rows = [AsyncRow {
        conns: 10_000,
        established: 10_000,
        ops: 120_000,
        offered_rate: 30_000.0,
        goodput: 29_995.2,
        p50_us: 665,
        p99_us: 38_229,
        p999_us: 43_941,
        failed: 0,
        exact: true,
    }];
    assert_eq!(e27_json(8, &rows), include_str!("golden/e27.json"));
}
