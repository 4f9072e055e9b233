//! Regenerates every experiment of the reproduction as a text report.
//!
//! Usage:
//!
//! ```text
//! report               # all experiments at default sizes
//! report --quick       # smaller sizes (CI-friendly)
//! report e1 e3 f4      # selected experiments only
//! report --csv out/    # additionally export machine-readable CSV
//! report e22 --smoke   # batching regression gate, tiny sizes
//! report e23 --smoke   # chaos robustness gate, tiny sizes
//! report e24 --smoke   # keyspace placement gate, tiny sizes
//! report e25 --smoke   # arena scale gate, n <= 10k (seconds)
//! report e26 --smoke   # shared-memory bake-off gate, <= 8 threads
//! report e27 --smoke   # connection-scaling gate, <= 256 connections
//! ```
//!
//! E22 additionally rewrites `BENCH_batching.json` in the working
//! directory and exits nonzero if the combining path is slower than the
//! sequential path at the highest measured concurrency. E23 rewrites
//! `BENCH_chaos.json` and exits nonzero if any chaos scenario loses
//! exactness or availability. E24 rewrites `BENCH_keyspace.json` and
//! exits nonzero if any placement policy loses per-key exactness or the
//! adaptive policy's goodput falls below the best static placement.
//! E25 rewrites `BENCH_scale.json` and exits nonzero if any size's
//! bottleneck exceeds twice the `20k` envelope (or, in the full sweep,
//! if no size reaches 1M processors). E26 rewrites `BENCH_shm.json`
//! and exits nonzero if any shared-memory backend loses the gap-free
//! `0..ops` value multiset, or a backend that promises linearizability
//! shows a real-time order violation. E27 rewrites `BENCH_async.json`
//! and exits nonzero if the server fails to establish a connection,
//! loses an op, goes inexact, or misses its p99 SLO at any connection
//! level. The full E27 sweep additionally spawns the server as a child
//! process (`report --e27-serve <n>`, an internal mode) so 10k client
//! and 10k server sockets each get their own fd table.

use distctr_bench::{
    exp_ablation, exp_arrow, exp_async, exp_backend, exp_batching, exp_bottleneck, exp_bound,
    exp_chaos, exp_concurrent, exp_hotspot, exp_keyspace, exp_lemmas, exp_linearizable, exp_scale,
    exp_serve, exp_shm, figures,
};

struct Config {
    quick: bool,
    smoke: bool,
    csv_dir: Option<std::path::PathBuf>,
    selected: Vec<String>,
}

fn wants(cfg: &Config, id: &str) -> bool {
    cfg.selected.is_empty() || cfg.selected.iter().any(|s| s.eq_ignore_ascii_case(id))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--e27-serve") {
        // Internal child mode for the E27 full sweep: serve until the
        // parent closes our stdin, then drain and exit.
        let n: usize = args.get(1).and_then(|a| a.parse().ok()).expect("--e27-serve <n>");
        exp_async::e27_child_serve(n);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let mut skip_next = false;
    let selected: Vec<String> = args
        .into_iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if a == "--csv" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .collect();
    let cfg = Config { quick, smoke, csv_dir, selected };

    let sizes: &[usize] = if cfg.quick { &[8, 81] } else { &[8, 81, 1024] };
    let lemma_orders: &[u32] = if cfg.quick { &[2, 3] } else { &[2, 3, 4] };
    let adv_n = if cfg.quick { 8 } else { 81 };
    let conc_n = if cfg.quick { 32 } else { 64 };

    println!("distctr experiment report");
    println!("reproducing: Wattenhofer & Widmayer, 'An Inherent Bottleneck in Distributed Counting' (1997)");
    println!("mode: {}\n", if cfg.quick { "quick" } else { "full" });

    if wants(&cfg, "f1") || wants(&cfg, "f2") {
        println!("{}", figures::figure_1_and_2(81, 40));
    }
    if wants(&cfg, "f3") {
        println!("{}", figures::figure_3(8, 3));
    }
    if wants(&cfg, "f4") {
        println!("{}", figures::figure_4(3));
    }
    if wants(&cfg, "e1") {
        let sample = if adv_n > 16 { Some(8) } else { None };
        println!("{}", exp_bound::e1_adversarial_lower_bound(adv_n, sample));
    }
    if wants(&cfg, "e2") {
        println!("{}", exp_bottleneck::e2_bottleneck_vs_n(sizes));
        println!("{}", exp_bottleneck::e2_load_histograms(if cfg.quick { 81 } else { 1024 }));
    }
    if wants(&cfg, "e3") {
        println!("{}", exp_lemmas::e3_retirements_per_level(lemma_orders));
    }
    if wants(&cfg, "e4") {
        println!("{}", exp_lemmas::e4_per_op_lemmas(lemma_orders));
    }
    if wants(&cfg, "e5") {
        println!("{}", exp_lemmas::e5_work_lemmas(lemma_orders));
    }
    if wants(&cfg, "e6") {
        println!("{}", exp_hotspot::e6_hot_spot(if cfg.quick { 8 } else { 81 }));
    }
    if wants(&cfg, "e7") {
        println!("{}", exp_bound::e7_weight_audit(if cfg.quick { 8 } else { 81 }));
    }
    if wants(&cfg, "e8") {
        println!("{}", exp_bottleneck::e8_message_complexity(if cfg.quick { 81 } else { 1024 }));
    }
    if wants(&cfg, "e9") {
        println!("{}", exp_concurrent::e9_concurrency(conc_n, &[1, 8, conc_n]));
    }
    if wants(&cfg, "e10") {
        println!("{}", exp_hotspot::e10_quorums());
    }
    let ablation_k = if cfg.quick { 3 } else { 4 };
    if wants(&cfg, "e11") {
        println!("{}", exp_ablation::e11_threshold_ablation(ablation_k));
    }
    if wants(&cfg, "e12") {
        println!("{}", exp_ablation::e12_skewed_workloads(ablation_k));
    }
    if wants(&cfg, "e13") {
        println!("{}", exp_ablation::e13_generalized_structures(if cfg.quick { 3 } else { 4 }));
    }
    if wants(&cfg, "e14") {
        println!("{}", exp_linearizable::e14_linearizability());
    }
    if wants(&cfg, "e15") {
        println!("{}", exp_ablation::e15_multi_round(if cfg.quick { 3 } else { 4 }, 4));
    }
    if wants(&cfg, "e16") {
        println!("{}", exp_backend::e16_backend_agreement(if cfg.quick { 8 } else { 81 }));
    }
    if wants(&cfg, "e17") {
        println!("{}", exp_arrow::e17_arrow_topologies(if cfg.quick { 32 } else { 128 }));
    }
    if wants(&cfg, "e19") {
        let (n, ops) = if cfg.quick { (8, 400) } else { (81, 2000) };
        println!("{}", exp_serve::e19_service_loadgen(n, 16, ops));
    }
    if wants(&cfg, "e20") {
        let (n, rounds) = if cfg.quick { (8, 3) } else { (81, 7) };
        println!("{}", exp_backend::e20_engine_throughput(n, rounds));
    }
    if wants(&cfg, "e22") || wants(&cfg, "exp_batching") {
        // Smoke keeps the full concurrency grid (the regression gate is
        // defined at 32 connections) but shrinks the per-connection work
        // and trial count.
        let (ops_per_conn, trials) = if cfg.smoke {
            (10, 1)
        } else if cfg.quick {
            (25, 2)
        } else {
            (200, 5)
        };
        let (n, k) = (81, 3);
        let rows = exp_batching::e22_measure(n, &[1, 8, 32], ops_per_conn, trials);
        println!("{}", exp_batching::e22_render(n, k, &rows));
        let json_path = std::path::Path::new("BENCH_batching.json");
        std::fs::write(json_path, exp_batching::e22_json(n, ops_per_conn, &rows))
            .expect("write BENCH_batching.json");
        eprintln!("wrote {}", json_path.display());
        let gate = rows.iter().max_by_key(|r| r.conns).expect("at least one row");
        assert!(
            gate.speedup() >= 1.0,
            "regression: combining throughput ({:.1} incs/s) fell below the sequential \
             path ({:.1} incs/s) at {} connections",
            gate.combined_ops_per_sec,
            gate.sequential_ops_per_sec,
            gate.conns
        );
    }

    if wants(&cfg, "e23") || wants(&cfg, "exp_chaos") {
        // The chaos gate is a robustness check, not a perf one: every
        // scenario must stay exactly-once and fully available. Smoke
        // shrinks the per-connection work, not the toxic grid.
        let (conns, ops_per_conn) = if cfg.smoke {
            (2, 8)
        } else if cfg.quick {
            (4, 25)
        } else {
            (8, 100)
        };
        let n = 8;
        let rows = exp_chaos::e23_measure(n, conns, ops_per_conn, &exp_chaos::e23_scenarios());
        println!("{}", exp_chaos::e23_render(n, &rows));
        let json_path = std::path::Path::new("BENCH_chaos.json");
        std::fs::write(json_path, exp_chaos::e23_json(n, conns, ops_per_conn, &rows))
            .expect("write BENCH_chaos.json");
        eprintln!("wrote {}", json_path.display());
        for r in &rows {
            assert!(
                r.exact && (r.availability - 1.0).abs() < f64::EPSILON,
                "robustness regression: scenario '{}' lost exactness or availability \
                 ({} of {} ops failed, exact: {})",
                r.scenario,
                r.failed,
                r.ops,
                r.exact
            );
        }
    }

    if wants(&cfg, "e24") || wants(&cfg, "exp_keyspace") {
        // The keyspace gate is the adaptive-placement claim: under a
        // Zipf-skewed keyed load with a real per-message price, the
        // adaptive policy must not lose to either static extreme, and
        // every policy must keep every key exactly sequential. Smoke
        // shrinks the load, keeps the cost model, and allows a small
        // tolerance (short runs are noisy); the full run is strict.
        let (conns, ops_per_conn) = if cfg.smoke {
            (16, 25)
        } else if cfg.quick {
            (16, 40)
        } else {
            (32, 60)
        };
        let (n, keys, s) = (81, 12, 1.6);
        let per_message = exp_keyspace::e24_per_message();
        let rows = exp_keyspace::e24_measure(
            n,
            keys,
            s,
            conns,
            ops_per_conn,
            per_message,
            &exp_keyspace::e24_scenarios(),
        );
        println!("{}", exp_keyspace::e24_render(n, keys, s, per_message, &rows));
        let json_path = std::path::Path::new("BENCH_keyspace.json");
        std::fs::write(
            json_path,
            exp_keyspace::e24_json(n, keys, s, conns, ops_per_conn, per_message, &rows),
        )
        .expect("write BENCH_keyspace.json");
        eprintln!("wrote {}", json_path.display());
        for r in &rows {
            assert!(
                r.exact,
                "correctness regression: policy '{}' lost per-key exactness \
                 ({} of {} ops failed)",
                r.policy, r.failed, r.ops
            );
        }
        let adaptive = rows.iter().find(|r| r.policy == "adaptive").expect("adaptive row");
        let best_static =
            rows.iter().filter(|r| r.policy != "adaptive").map(|r| r.goodput).fold(0.0, f64::max);
        assert!(
            adaptive.promotions >= 1,
            "the adaptive policy never promoted a hot key: {adaptive:?}"
        );
        let tolerance = if cfg.smoke { 0.95 } else { 1.0 };
        assert!(
            adaptive.goodput >= best_static * tolerance,
            "regression: adaptive goodput ({:.1} incs/s) fell below the best static \
             placement ({:.1} incs/s, tolerance {tolerance})",
            adaptive.goodput,
            best_static
        );
    }

    if wants(&cfg, "e25") || wants(&cfg, "exp_scale") {
        // The scale gate is the paper's curve on the arena core: the
        // measured bottleneck must track the O(k) envelope at every
        // size. Smoke stops at n = 1024 (the seconds-scale regression
        // gate); the full sweep runs past a million processors and is
        // what the checked-in BENCH_scale.json records.
        let sizes = exp_scale::e25_sizes(cfg.quick, cfg.smoke);
        let rows = exp_scale::e25_measure(&sizes);
        println!("{}", exp_scale::e25_render(&rows));
        let json_path = std::path::Path::new("BENCH_scale.json");
        std::fs::write(json_path, exp_scale::e25_json(&rows)).expect("write BENCH_scale.json");
        eprintln!("wrote {}", json_path.display());
        for r in &rows {
            assert!(
                r.max_load <= 2 * r.predicted,
                "scale regression: n={} bottleneck {} exceeds twice the O(k) envelope {}",
                r.processors,
                r.max_load,
                r.predicted
            );
        }
        if !cfg.quick && !cfg.smoke {
            assert!(
                rows.iter().any(|r| r.processors >= 1_000_000),
                "the full sweep must include a size past 1M processors"
            );
        }
    }

    if wants(&cfg, "e26") || wants(&cfg, "exp_shm") {
        // The shared-memory bake-off: throughput is machine-relative,
        // but every cell's correctness verdict is absolute and gated.
        let threads = exp_shm::e26_threads(cfg.quick, cfg.smoke);
        let ops = exp_shm::e26_ops_per_thread(cfg.quick, cfg.smoke);
        let rows = exp_shm::e26_measure(&threads, ops);
        println!("{}", exp_shm::e26_render(&rows));
        let json_path = std::path::Path::new("BENCH_shm.json");
        std::fs::write(json_path, exp_shm::e26_json(&rows)).expect("write BENCH_shm.json");
        eprintln!("wrote {}", json_path.display());
        let violations = exp_shm::e26_gate_violations(&rows);
        assert!(
            violations.is_empty(),
            "shared-memory correctness regression:\n{}",
            violations.join("\n")
        );
    }

    if wants(&cfg, "e27") || wants(&cfg, "exp_async") {
        // The C10k gate: the server must hold its SLO (every
        // connection established, no loss, exact values, p99 under the
        // bound) at every measured fan-in.
        let n = 8;
        let grid = exp_async::e27_grid(cfg.quick, cfg.smoke);
        let rows = exp_async::e27_measure(n, &grid);
        println!("{}", exp_async::e27_render(n, &rows));
        let json_path = std::path::Path::new("BENCH_async.json");
        std::fs::write(json_path, exp_async::e27_json(n, &rows)).expect("write BENCH_async.json");
        eprintln!("wrote {}", json_path.display());
        for r in &rows {
            assert!(
                r.sustainable(),
                "connection-scaling regression: the server missed its SLO at {} \
                 connections (established {}, failed {}, exact {}, p99 {} us)",
                r.conns,
                r.established,
                r.failed,
                r.exact,
                r.p99_us
            );
        }
    }

    if let Some(dir) = &cfg.csv_dir {
        std::fs::create_dir_all(dir).expect("create CSV output directory");
        let path = dir.join("e2_bottleneck.csv");
        std::fs::write(&path, exp_bottleneck::e2_csv(sizes)).expect("write CSV");
        eprintln!("wrote {}", path.display());
    }
}
