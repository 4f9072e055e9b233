//! `loadgen` — put real clients in front of the retirement tree.
//!
//! By default this starts an in-process [`CounterServer`] hosting the
//! real-threads `ThreadedTreeCounter` on a loopback port, drives it with
//! `--conns` concurrent TCP connections, verifies that the values handed
//! out across *all* connections are exactly sequential, and prints the
//! throughput/latency report. Point it at an already-running server with
//! `--addr HOST:PORT` instead.
//!
//! ```text
//! cargo run --release --bin loadgen -- --n 81 --conns 16 --ops 2000
//! cargo run --release --bin loadgen -- --n 81 --conns 8 --ops 2000 --open 4000
//! cargo run --release --bin loadgen -- --n 8 --conns 32 --ops 3200 --combine
//! cargo run --release --bin loadgen -- --n 8 --backend sim --conns 5000 \
//!     --ops 50000 --open 20000 --combine
//! ```
//!
//! The hosted server is one reactor thread for every connection (plus
//! the combiner thread with `--combine`). A closed loop drives it with
//! one shipped `RemoteCounter` client per connection; `--open RATE`
//! drives it through the multiplexed open-loop client (one thread, one
//! poller, per-connection buffers reused across operations, connections
//! opened over a paced ramp) — the C10k shape on both sides of the
//! socket.

#![forbid(unsafe_code)]

use std::net::SocketAddr;
use std::process::ExitCode;

use distctr::analysis::Table;
use distctr::keyspace::KeyspaceConfig;
use distctr::net::ThreadedTreeCounter;
use distctr::server::{run_load, CounterServer, LoadConfig};

struct Args {
    /// Processors in the hosted tree (ignored with `--addr`).
    n: usize,
    /// Concurrent client connections.
    conns: usize,
    /// Total operations across all connections.
    ops: usize,
    /// Open-loop injection rate in total ops/s; closed loop when absent.
    open: Option<f64>,
    /// Drive an external server instead of hosting one in-process.
    addr: Option<SocketAddr>,
    /// Backend for the hosted server: `net` (real-threads tree,
    /// default), `sim` (discrete-event simulator tree), or one of the
    /// shared-memory structures `shm-tree` / `shm-network` /
    /// `shm-central`.
    backend: String,
    /// Serve the hosted backend through the flat-combining hot path
    /// instead of the sequential one.
    combine: bool,
    /// Number of counter keys to spread operations over (0 = unkeyed,
    /// the single default counter). Hosts an adaptive `Keyspace` when
    /// set.
    keys: usize,
    /// Zipf skew exponent for the key mix.
    zipf: f64,
}

const USAGE: &str = "usage: loadgen [--n N] [--conns C] [--ops OPS] [--open RATE] \
                     [--addr HOST:PORT] [--combine] \
                     [--backend net|sim|shm-tree|shm-network|shm-central] \
                     [--keys N] [--zipf S]";

/// Seed for the keyed traffic mix — fixed so two invocations with the
/// same flags drive the same per-connection key streams.
const KEY_SEED: u64 = 0x6b65_7973;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 81,
        conns: 16,
        ops: 2000,
        open: None,
        addr: None,
        backend: "net".to_string(),
        combine: false,
        keys: 0,
        zipf: 1.2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--n" => args.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--conns" => {
                args.conns = value("--conns")?.parse().map_err(|e| format!("--conns: {e}"))?;
            }
            "--ops" => args.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--open" => {
                args.open = Some(value("--open")?.parse().map_err(|e| format!("--open: {e}"))?);
            }
            "--addr" => {
                args.addr = Some(value("--addr")?.parse().map_err(|e| format!("--addr: {e}"))?);
            }
            "--backend" => args.backend = value("--backend")?,
            "--combine" => args.combine = true,
            "--keys" => {
                args.keys = value("--keys")?.parse().map_err(|e| format!("--keys: {e}"))?;
            }
            "--zipf" => {
                args.zipf = value("--zipf")?.parse().map_err(|e| format!("--zipf: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.conns == 0 || args.ops == 0 {
        return Err("--conns and --ops must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the load, prints the report; `Ok(false)` if the sequential-values
/// check failed against an in-process server.
fn run(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let mut cfg = match args.open {
        Some(rate) => LoadConfig::open(args.conns, args.ops, rate),
        None => LoadConfig::closed(args.conns, args.ops),
    };
    if args.keys > 0 {
        cfg = cfg.with_keys(args.keys, args.zipf, KEY_SEED);
    }
    // Host a server in-process unless pointed at an external one.
    if let Some(addr) = args.addr {
        banner(args, "external", addr);
        let report = run_load(addr, &cfg)?;
        println!("\n{}", report.render());
        Ok(true)
    } else if args.keys > 0 {
        // Keyed traffic needs a keyed backend: the adaptive keyspace
        // over simulator trees, every key born centralized.
        let backend = distctr::keyspace::Keyspace::sim(KeyspaceConfig::new(args.n));
        hosted_run(backend, args, &cfg, "Keyspace<TreeCounter>")
    } else {
        match args.backend.as_str() {
            "net" => {
                let backend = ThreadedTreeCounter::new(args.n)?;
                hosted_run(backend, args, &cfg, "ThreadedTreeCounter")
            }
            "sim" => {
                let backend = distctr::core::TreeCounter::new(args.n)?;
                hosted_run(backend, args, &cfg, "sim TreeCounter")
            }
            "shm-tree" => {
                let backend = distctr::shm::ShmTreeCounter::new(args.n)?;
                hosted_run(backend, args, &cfg, "ShmTreeCounter")
            }
            "shm-network" => {
                // The network needs a power-of-two width; round the
                // requested processor count up.
                let width = args.n.next_power_of_two().max(2);
                let backend = distctr::shm::AtomicBitonicCounter::new(width);
                hosted_run(backend, args, &cfg, "AtomicBitonicCounter")
            }
            "shm-central" => {
                let backend = distctr::shm::CentralCounter::new(args.n);
                hosted_run(backend, args, &cfg, "CentralCounter")
            }
            other => Err(format!("unknown --backend {other}\n{USAGE}").into()),
        }
    }
}

fn banner(args: &Args, backend_name: &str, addr: SocketAddr) {
    let mut mode = match args.open {
        Some(rate) => format!("open loop @ {rate:.0} ops/s"),
        None => "closed loop".to_string(),
    };
    if args.combine {
        mode.push_str(", combining");
    }
    if args.keys > 0 {
        mode.push_str(&format!(", {} keys zipf {:.2}", args.keys, args.zipf));
    }
    println!(
        "loadgen: {mode}, {} conns x {} ops against {backend_name} at {addr}",
        args.conns, args.ops
    );
}

fn hosted_run<B>(
    backend: B,
    args: &Args,
    cfg: &LoadConfig,
    backend_name: &str,
) -> Result<bool, Box<dyn std::error::Error>>
where
    B: distctr::core::CounterBackend + Send + 'static,
{
    let mut server = if args.combine {
        CounterServer::serve_async_combining(backend)?
    } else {
        CounterServer::serve_async(backend)?
    };
    banner(args, backend_name, server.local_addr());

    let report = run_load(server.local_addr(), cfg)?;
    println!("\n{}", report.render());

    // Fresh server, so the values must be exactly sequential — per key
    // for a keyed run, globally otherwise: the paper's correctness
    // condition observed over real TCP.
    let ok = if cfg.key_mix.is_some() {
        let ok = report.values_are_sequential_per_key();
        println!(
            "sequential values per key ({} keys touched): {}",
            report.per_key.len(),
            if ok { "OK" } else { "VIOLATED" }
        );
        ok
    } else {
        let ok = report.values_are_sequential_from(0);
        println!("sequential values 0..{}: {}", args.ops, if ok { "OK" } else { "VIOLATED" });
        ok
    };

    let stats = server.stats();
    let mut t = Table::new(vec!["server metric", "value"]);
    t.row(vec!["processors".into(), stats.processors.to_string()]);
    t.row(vec!["connections".into(), stats.connections.to_string()]);
    t.row(vec!["sessions".into(), stats.sessions.to_string()]);
    t.row(vec!["ops served".into(), stats.ops.to_string()]);
    t.row(vec!["retries deduped".into(), stats.deduped.to_string()]);
    t.row(vec!["wire errors".into(), stats.wire_errors.to_string()]);
    t.row(vec!["combined traversals".into(), stats.combined_traversals.to_string()]);
    t.row(vec!["accept errors".into(), stats.accept_errors.to_string()]);
    t.row(vec!["bottleneck (max msg load)".into(), stats.bottleneck.to_string()]);
    t.row(vec!["retirements".into(), stats.retirements.to_string()]);
    t.row(vec!["keys hosted".into(), stats.keys_hosted.to_string()]);
    t.row(vec!["promotions".into(), stats.promotions.to_string()]);
    t.row(vec!["demotions".into(), stats.demotions.to_string()]);
    t.row(vec!["migrations in flight".into(), stats.migrations_inflight.to_string()]);
    println!("\n{}", t.render());
    server.shutdown()?;
    Ok(ok)
}
