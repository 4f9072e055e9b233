//! `distbench run`: one workload's trials, canonical pass and result
//! document; or the whole set, one child process per workload.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::host;
use crate::json::Json;
use crate::layers::{self, Effort};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::Cell;
use crate::sut;
use crate::trace::OUT_DIR;
use crate::workload::{self, Plan, Sample, Trial, Workload};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the result document goes; a default under `benchmark/out/`.
    pub out: Option<PathBuf>,
}

fn host_json() -> Json {
    Json::obj(host::facts(&sut::poller_backend()).into_iter().map(|(k, v)| (k, Json::Str(v))))
}

fn cell_json(cell: &Cell, m: &EndToEnd) -> Json {
    let s = &cell.summary;
    Json::obj([
        ("value", Json::Num(cell.value)),
        ("unit", Json::str(m.unit)),
        ("looseness", Json::Num(cell.looseness)),
        ("median", Json::Num(s.median)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
        ("n", Json::Num(s.n as f64)),
        ("trial_bests", Json::Arr(cell.trial_bests.iter().map(|&v| Json::Num(v)).collect())),
        ("samples", Json::Arr(s.sorted.iter().map(|&v| Json::Num(v)).collect())),
    ])
}

/// The last line of standard output: exactly the keys the benchmark
/// contract names, each metric with its value and unit only.
fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, f64, &'static str)>,
) -> String {
    let metrics = metrics.map(|(name, value, unit)| (name, Json::measured(value, unit)));
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    fs::write(path, doc.render() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// R5: what the host did to the run. Printed, never used to filter.
fn notes(trials: &[Trial]) -> Vec<String> {
    let mut notes = Vec::new();
    let steal = trials.iter().map(|t| t.steal_share).fold(0.0, f64::max);
    if steal > 0.01 {
        notes.push(format!("host steal reached {:.1}% of CPU time in a trial", steal * 100.0));
    }
    let involuntary: u64 = trials.iter().map(|t| t.gen.involuntary_switches).sum();
    if involuntary > 0 {
        // Expected in the served workloads: the server's threads share its CPU.
        notes.push(format!("the generator was preempted {involuntary} times inside windows"));
    }
    let busy = trials.iter().filter(|t| t.gen_busy_share() > 0.9).count();
    if busy > 0 {
        notes.push(format!("the generator was busy > 90% of the window in {busy} trials"));
    }
    notes
}

/// Set-ups timed ahead of each trial: 105 samples of `setup_s` in a run of
/// 15 trials, a twentieth of a second in all.
const SETUPS_PER_TRIAL: usize = 7;

/// A metric of every sample that has it, trial by trial.
fn over(trials: &mut [Vec<Sample>], metric: impl Fn(&mut Sample) -> Option<f64>) -> Vec<Vec<f64>> {
    trials.iter_mut().map(|samples| samples.iter_mut().filter_map(&metric).collect()).collect()
}

/// Runs one workload with tracing off and prints its end-to-end metrics.
fn run_untraced(workload: Workload, args: &RunArgs) -> Result<bool, String> {
    let plan = Plan::for_seconds(args.seconds);
    // First, in a process that has done nothing else yet: a fixed amount of
    // work on a fresh system. The timed trials grow with the host's speed of
    // the moment (the latencies kept, the shm tree's reply cache); this does
    // not.
    let memory_pass =
        workload::run_trial(workload, args.seed, u64::MAX, Plan::fixed_work(workload), None)?.0;
    let peak_rss_mib = memory_pass.anon_rss_kib as f64 / 1024.0;
    let mut setups = Vec::with_capacity(plan.trials);
    let mut trials = Vec::with_capacity(plan.trials);
    for index in 0..plan.trials {
        // Trials take turns on the CPUs: the host's slow phases last from
        // seconds to minutes, but often on one CPU only.
        host::pin_to_next_cpu();
        // Set-ups ahead of every trial, not all at once: the floor must be
        // found between the slow phases.
        let ahead: Result<Vec<f64>, String> =
            (0..SETUPS_PER_TRIAL).map(|_| workload::time_set_up(workload)).collect();
        setups.push(ahead?);
        trials.push(workload::run_trial(workload, args.seed, index as u64, plan, None)?.0);
    }
    let canonical = workload.canonical()?;

    let mut violations: Vec<String> = trials
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.violations.iter().map(move |v| format!("trial {i}: {v}")))
        .chain(memory_pass.violations.iter().map(|v| format!("memory pass: {v}")))
        .collect();
    if !canonical.sequential {
        violations.push("canonical pass: values out of sequence".into());
    }
    let all = || trials.iter().chain([&memory_pass]);
    let attempted: u64 = all().map(|t| t.tally.acked + t.tally.failed).sum();
    let failed: u64 = all().map(|t| t.tally.failed).sum();
    if attempted == 0 {
        violations.push("no op was attempted".into());
    }
    let correct = violations.is_empty();
    let notes = notes(&trials);

    let mut samples: Vec<Vec<Sample>> = trials.into_iter().map(Trial::into_samples).collect();
    if samples.iter().flatten().all(|s| s.slice.ops == 0) {
        return Err(format!("{}: no op was acked in any window", workload.name()));
    }
    let once = |value: f64| vec![vec![value]];
    // In the order of `END_TO_END`.
    let sampled = [
        setups,
        over(&mut samples, |s| Some(s.goodput_ops_s())),
        // A slice in which the host let nothing through has no latency;
        // its goodput and its share say so.
        over(&mut samples, |s| (s.slice.ops > 0).then(|| s.latency_us(0.5))),
        over(&mut samples, |s| Some(s.within_limit_share())),
        once(peak_rss_mib),
        once(canonical.bottleneck_msgs as f64 / f64::from(canonical.k)),
        once(canonical.total_msgs as f64 / canonical.n as f64),
    ];
    let cells: Vec<Cell> =
        END_TO_END.iter().zip(&sampled).map(|(m, s)| Cell::of(s, m.pick, m.better)).collect();

    println!("{} — {}", workload.name(), workload.load());
    println!(
        "  memory pass of {} ops, {} set-ups, {} trials: {:.2} s warm-up + {:.2} s window each; seed {}",
        memory_pass.tally.acked,
        cells[0].summary.n,
        plan.trials,
        plan.warm.as_secs_f64(),
        plan.window.as_secs_f64(),
        args.seed
    );
    println!(
        "  {:<20} {:>14} {:<6} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3}",
        "metric", "value", "unit", "loose", "min", "q1", "median", "q3", "max", "n"
    );
    for (m, cell) in END_TO_END.iter().zip(&cells) {
        let s = &cell.summary;
        println!(
            "  {:<20} {:>14.4} {:<6} {:>5.1}% {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>3}",
            m.name,
            cell.value,
            m.unit,
            cell.looseness * 100.0,
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            s.n
        );
    }
    for note in &notes {
        println!("  note: {note}");
    }
    for v in &violations {
        println!("  VIOLATION: {v}");
    }

    let doc = Json::obj([
        ("workload", Json::str(workload.name())),
        ("load", Json::str(workload.load())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trials", Json::Num(plan.trials as f64)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(END_TO_END.iter().zip(&cells).map(|(m, c)| (m.name, cell_json(c, m)))),
        ),
        ("notes", Json::Arr(notes.into_iter().map(Json::Str).collect())),
        ("violations", Json::Arr(violations.into_iter().map(Json::Str).collect())),
        ("host", host_json()),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("result-{}.json", workload.name())));
    write_doc(&path, &doc)?;
    let line = END_TO_END.iter().zip(&cells).map(|(m, c)| (m.name.to_string(), c.value, m.unit));
    println!("{}", contract_line(correct, attempted.max(1), failed, line));
    Ok(correct)
}

/// Runs one workload with tracing on and prints every per-layer metric.
fn run_traced(workload: Workload, args: &RunArgs) -> Result<bool, String> {
    let effort = Effort::for_seconds(args.seconds);
    let mut layers = layers::common(effort, layers::probe_seed(args.seed))?;
    let traced = layers::traced(workload, effort, args.seed)?;
    layers.extend(traced.layers);
    let rows = layers.declared()?;
    let path = traced.tracer.write(workload.name(), &rows)?;

    println!("{} — per-layer metrics, tracing on", workload.name());
    for (name, value, unit) in &rows {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    println!("  {} spans written to {path}", traced.tracer.spans_kept());
    for v in &traced.violations {
        println!("  VIOLATION: {v}");
    }
    let correct = traced.violations.is_empty();
    println!(
        "{}",
        contract_line(correct, traced.attempted.max(1), traced.failed, rows.into_iter())
    );
    Ok(correct)
}

/// R3: the set is one child process per workload, so a workload's numbers
/// (its `VmHWM` above all) are the same alone and inside the set.
fn run_set(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let set_path = args.out.clone().unwrap_or_else(|| Path::new(OUT_DIR).join("result.json"));
    let mut docs = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let part = set_path.with_file_name(format!("result-{}.json", workload.name()));
        let status = Command::new(&exe)
            .args(["run", "--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        correct &= status.success();
        if !args.trace {
            let text = fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            docs.push((workload.name(), Json::parse(&text)?));
        }
    }
    if !args.trace {
        let doc = Json::obj([("host", host_json()), ("workloads", Json::obj(docs))]);
        write_doc(&set_path, &doc)?;
        println!("result written to {}", set_path.display());
    }
    Ok(correct)
}

pub fn run(args: &RunArgs) -> Result<bool, String> {
    match (args.workload, args.trace) {
        (None, _) => run_set(args),
        (Some(w), false) => run_untraced(w, args),
        (Some(w), true) => run_traced(w, args),
    }
}

/// `distbench layers`: the workload-independent layers once, then every
/// workload's traced run, and the check that the ladder's budget sums.
pub fn layers_command(seed: u64, seconds: f64) -> Result<bool, String> {
    // The default 60 s is full effort, as `run --trace 1 --seconds 30` is:
    // some 17 s of module timings, ladder and probes, then 4 traced runs of
    // 10 s each.
    let effort = Effort::for_seconds(seconds / 2.0);
    let common = layers::common(effort, layers::probe_seed(seed))?;
    println!("layers — every module's public calls, timed from outside");
    for m in PER_LAYER.iter() {
        if let Some(value) = common.get(m.name) {
            println!("  {:<34} {value:>16.4} {}", m.name, m.unit);
        }
    }
    let mut correct = true;
    let mut docs = Vec::new();
    for workload in Workload::ALL {
        let traced = layers::traced(workload, effort, seed)?;
        println!("{} — traced run", workload.name());
        for m in PER_LAYER.iter() {
            if let Some(value) = traced.layers.get(m.name) {
                println!("  {:<34} {value:>16.4} {}", m.name, m.unit);
            }
        }
        for v in &traced.violations {
            correct = false;
            println!("  VIOLATION: {v}");
        }
        if workload == Workload::ServeRtt {
            let top = common.get("server.client.inc_rtt_us").unwrap_or(f64::NAN);
            let gap = (top - traced.untraced_p50_us).abs() / traced.untraced_p50_us;
            let verdict = if gap <= 0.10 { "the budget sums" } else { "THE BUDGET DOES NOT SUM" };
            println!(
                "  ladder top rung {top:.2} us vs serve-rtt latency_p50_us {:.2} us (both the best \
                 slice's p50, tracing off): {:.1}% apart, {verdict}",
                traced.untraced_p50_us,
                gap * 100.0
            );
        }
        let mut all = common.clone();
        all.extend(traced.layers);
        let all = all.declared()?;
        let path = traced.tracer.write(workload.name(), &all)?;
        println!("  {} spans written to {path}", traced.tracer.spans_kept());
        docs.push((
            workload.name(),
            Json::obj(all.into_iter().map(|(n, v, u)| (n, Json::measured(v, u)))),
        ));
    }
    let doc = Json::obj([("host", host_json()), ("workloads", Json::obj(docs))]);
    let path = Path::new(OUT_DIR).join("layers.json");
    write_doc(&path, &doc)?;
    println!("per-layer metrics written to {}", path.display());
    Ok(correct)
}
