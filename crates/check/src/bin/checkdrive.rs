//! `checkdrive` — the CI entry point of the model checker.
//!
//! Runs a bounded sweep of checker cells (n ∈ {2, 4, 8},
//! fault-free and crash-budget-1) under a shared transition budget and
//! exits nonzero with a minimized, replayable counterexample if any
//! invariant is violated.
//!
//! ```text
//! checkdrive [--budget 200k] [--depth 4096]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use distctr_check::{sweep_cells, Budget, CheckConfig, CheckOutcome, Checker};

fn parse_budget(s: &str) -> Result<u64, String> {
    let (digits, mult) = match s.trim().to_ascii_lowercase() {
        t if t.ends_with('k') => (t[..t.len() - 1].to_string(), 1_000u64),
        t if t.ends_with('m') => (t[..t.len() - 1].to_string(), 1_000_000u64),
        t => (t, 1),
    };
    digits
        .parse::<u64>()
        .map(|n| n * mult)
        .map_err(|e| format!("bad budget {s:?}: {e} (expected e.g. 200000, 200k, 2m)"))
}

struct Args {
    budget: u64,
    depth: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { budget: 200_000, depth: 4_096 };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                args.budget = parse_budget(&v)?;
            }
            "--depth" => {
                let v = it.next().ok_or("--depth needs a value")?;
                args.depth = v.parse().map_err(|e| format!("bad depth {v:?}: {e}"))?;
            }
            "--help" | "-h" => {
                println!("usage: checkdrive [--budget 200k] [--depth N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn report_violation(cell: &str, cfg: &CheckConfig, outcome: &CheckOutcome) {
    let v = outcome.violation.as_ref().expect("caller checked");
    eprintln!("FAIL [{cell}]: invariant `{}` violated", v.invariant);
    eprintln!("  detail: {}", v.detail);
    eprintln!("  schedule ({} choices): {}", v.schedule.choices.len(), v.schedule.serialize());
    eprintln!("  minimized ({} choices): {}", v.minimized.choices.len(), v.minimized.serialize());
    eprintln!("  replay test:\n{}", v.minimized.to_test_snippet(cfg, &v.invariant));
}

fn run_sweep(args: &Args) -> ExitCode {
    let cells = sweep_cells();
    let per_cell = (args.budget / cells.len() as u64).max(1);
    println!(
        "checkdrive: {} cells, {} transitions each (total budget {})",
        cells.len(),
        per_cell,
        args.budget
    );
    let mut failed = false;
    for (name, cfg) in &cells {
        let started = Instant::now();
        let outcome = Checker::new(cfg.clone())
            .budget(Budget { max_transitions: per_cell, max_depth: args.depth, wall_clock: None })
            .run();
        let s = &outcome.stats;
        println!(
            "  [{}] transitions={} leaves={} distinct={} sleep_skips={} depth={}{} ({:?})",
            name,
            s.transitions,
            s.quiescent_leaves,
            s.distinct_quiescent,
            s.sleep_skips,
            s.max_depth_seen,
            if s.truncated { " truncated" } else { "" },
            started.elapsed(),
        );
        if !outcome.holds() {
            report_violation(name, cfg, &outcome);
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("checkdrive: all cells hold");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("checkdrive: {e}");
            return ExitCode::FAILURE;
        }
    };
    run_sweep(&args)
}
