//! Runs rows of the experiment table ([`distctr_bench::EXPERIMENTS`])
//! and prints them as a text report.
//!
//! Usage:
//!
//! ```text
//! report               # every experiment at full size
//! report --quick       # every experiment at its small size
//! report e1 e3 f4      # selected experiments only
//! report --csv out/    # additionally export E2 as machine-readable CSV
//! report e22 --smoke   # a gated experiment at its CI gate size
//! ```
//!
//! The gated experiments (`e22`–`e27`) rewrite their `BENCH_*.json` in
//! the working directory at full size only (`--smoke` and `--quick`
//! print and gate without touching the checked-in record); what each
//! gate holds is documented on its `eNN_gate` in the library. Exit status: 0 when every selected row
//! ran and held its gate, 1 after listing every failed gate, 2 on a
//! usage error — an id no row answers to, an unknown flag, or a size a
//! selected row does not have (only gated rows have `--smoke`) — after
//! listing the known ids, before anything runs.
//!
//! The full E27 sweep additionally spawns the server as a child process
//! (`report --e27-serve <n>`, an internal mode) so 10k client and 10k
//! server sockets each get their own fd table.

use std::path::PathBuf;
use std::process::ExitCode;

use distctr_bench::table::{self, Experiment, Size, EXPERIMENTS};
use distctr_bench::{exp_async, exp_bottleneck};

/// A parsed command line: what to run, at which size, and where the E2
/// CSV goes.
struct Plan {
    size: Size,
    csv_dir: Option<PathBuf>,
    rows: Vec<&'static Experiment>,
}

/// Parses the arguments into a [`Plan`], or says what is wrong with
/// them.
fn parse(args: &[String]) -> Result<Plan, String> {
    let (mut quick, mut smoke, mut csv_dir, mut names) = (false, false, None, Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--csv" => csv_dir = Some(PathBuf::from(args.next().ok_or("--csv needs a directory")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name => names.push(name),
        }
    }
    if let Some(unknown) = names.iter().find(|n| table::find(n).is_none()) {
        return Err(format!("no experiment answers to '{unknown}'"));
    }
    // Report order, each row once, however the ids were spelled.
    let rows: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| e.answers_to(n)))
        .collect();
    let size = match (smoke, quick) {
        (true, _) => Size::Smoke,
        (false, true) => Size::Quick,
        (false, false) => Size::Full,
    };
    let smokeless: Vec<&str> = rows.iter().filter(|e| !e.smoke).map(|e| e.id).collect();
    if size == Size::Smoke && !smokeless.is_empty() {
        return Err(format!("no --smoke size for: {}", smokeless.join(" ")));
    }
    Ok(Plan { size, csv_dir, rows })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--e27-serve") {
        // Internal child mode for the E27 full sweep: serve until the
        // parent closes our stdin, then drain and exit.
        let n: usize = args.get(1).and_then(|a| a.parse().ok()).expect("--e27-serve <n>");
        exp_async::e27_child_serve(n);
        return ExitCode::SUCCESS;
    }
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(problem) => {
            eprintln!("report: {problem}");
            eprintln!("known experiments (only those marked * have a --smoke size):");
            let ids: Vec<String> = EXPERIMENTS
                .iter()
                .map(|e| format!("{}{}", e.id, if e.smoke { "*" } else { "" }))
                .collect();
            eprintln!("  {}", ids.join(" "));
            return ExitCode::from(2);
        }
    };

    println!("distctr experiment report");
    println!("reproducing: Wattenhofer & Widmayer, 'An Inherent Bottleneck in Distributed Counting' (1997)");
    println!("mode: {}\n", plan.size.name());

    let mut failed_gates = Vec::new();
    for row in &plan.rows {
        let outcome = (row.run)(plan.size);
        println!("{}", outcome.text);
        // A checked-in `BENCH_*.json` records a full-size run; a smaller
        // run prints and gates but leaves the file as it is.
        if let Some((name, json)) = outcome.bench_file.filter(|_| plan.size == Size::Full) {
            std::fs::write(name, json).unwrap_or_else(|e| panic!("write {name}: {e}"));
            eprintln!("wrote {name}");
        }
        if let Err(why) = outcome.gate {
            failed_gates.push(format!("{}: {why}", row.id));
        }
    }
    if let Some(dir) = &plan.csv_dir {
        std::fs::create_dir_all(dir).expect("create CSV output directory");
        let path = dir.join("e2_bottleneck.csv");
        std::fs::write(&path, exp_bottleneck::e2_csv(table::e2_sizes(plan.size)))
            .expect("write CSV");
        eprintln!("wrote {}", path.display());
    }
    if failed_gates.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("report: {} gate(s) failed", failed_gates.len());
    for gate in &failed_gates {
        eprintln!("  {gate}");
    }
    ExitCode::FAILURE
}
