//! `distbench run | layers | compare`. See `benchmark/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use distbench::compare::{self, Verdict};
use distbench::json::Json;
use distbench::run::{self, RunArgs};
use distbench::workload::Workload;
use distbench::{host, layers, sut};

const USAGE: &str = "\
usage: distbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       distbench layers [--seed N] [--seconds S]
       distbench compare A.json B.json
workloads: serve-sat, serve-rtt, serve-keyed, sim-canonical (default: all, one process each)";

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag}"))?;
            let value = it.next().ok_or(format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn take<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().position(|(n, _)| n == name) {
            None => Ok(default),
            Some(i) => {
                let (_, value) = self.0.remove(i);
                value.parse().map_err(|_| format!("--{name}: cannot read {value}"))
            }
        }
    }

    fn done(self) -> Result<(), String> {
        self.0.first().map_or(Ok(()), |(n, _)| Err(format!("unknown flag --{n}")))
    }
}

fn seconds(flags: &mut Flags, default: f64) -> Result<f64, String> {
    let s = flags.take("seconds", default)?;
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be positive, got {s}"))
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => {
            let mut flags = Flags::parse(rest)?;
            let workload = match flags.take("workload", String::new())? {
                name if name.is_empty() => None,
                name => Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?),
            };
            let out = flags.take("out", String::new())?;
            let args = RunArgs {
                workload,
                seed: flags.take("seed", 1)?,
                seconds: seconds(&mut flags, 30.0)?,
                trace: match flags.take("trace", 0u8)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace is 0 or 1, got {other}")),
                },
                out: (!out.is_empty()).then(|| PathBuf::from(out)),
            };
            flags.done()?;
            // The set's children pin themselves.
            if args.workload.is_some() {
                host::pin_to_next_cpu();
            }
            run::run(&args)
        }
        "layers" => {
            let mut flags = Flags::parse(rest)?;
            let seed = flags.take("seed", 1)?;
            let seconds = seconds(&mut flags, 60.0)?;
            flags.done()?;
            host::pin_to_next_cpu();
            run::layers_command(seed, seconds)
        }
        "compare" => {
            let [a, b] = rest else { return Err(USAGE.into()) };
            let read = |path: &String| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let rows = compare::compare(&read(a)?, &read(b)?)?;
            print!("{}", compare::render(&rows));
            Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
        }
        // Internal: the child process of the k = 6 layer metrics.
        "k6" => {
            host::pin_to_next_cpu();
            println!("{}", layers::k6_pass()?);
            Ok(true)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}\npoller backend: {}", sut::poller_backend());
            Ok(true)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("distbench: {e}");
            ExitCode::from(2)
        }
    }
}
