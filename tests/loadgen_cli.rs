//! The `loadgen` binary end to end — reactor, combiner and both load
//! disciplines behind the command people run: each invocation hosts a
//! server, drives it over loopback TCP and must print its own
//! sequential-values verdict. Flags that used to select a driver are
//! usage errors like any other typo. The keyed open loop also runs
//! through the library, where the per-key accounting can be read.

use std::process::{Command, Output};

use distctr::keyspace::{Keyspace, KeyspaceConfig};
use distctr::server::{run_load, CounterServer, LoadConfig};

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen")).args(args).output().expect("run loadgen")
}

fn assert_sequential(args: &[&str], verdict: &str) {
    let out = loadgen(&[&["--n", "8", "--backend", "sim"], args].concat());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{args:?}: {text}\n{}", String::from_utf8_lossy(&out.stderr));
    let line = text.lines().find(|l| l.starts_with("sequential values")).unwrap_or_default();
    assert!(line.contains(verdict) && line.ends_with(": OK"), "{args:?}: {text}");
}

#[test]
fn a_closed_loop_hands_out_sequential_values() {
    assert_sequential(&["--conns", "4", "--ops", "400", "--combine"], "0..400");
}

#[test]
fn an_open_loop_hands_out_sequential_values() {
    let args = ["--conns", "8", "--ops", "400", "--open", "4000", "--combine"];
    assert_sequential(&args, "0..400");
}

#[test]
fn a_keyed_open_loop_hands_out_sequential_values_per_key() {
    let args = ["--conns", "4", "--ops", "400", "--keys", "4", "--open", "4000"];
    assert_sequential(&args, "per key");
}

#[test]
fn the_open_loop_files_keyed_acks_under_their_keys() {
    // `KeyInc` frames from one thread and one poller, each connection
    // sampling its own key stream; per-key exactly-once observed from
    // the acks alone.
    let backend = Keyspace::sim(KeyspaceConfig::new(27));
    let mut server = CounterServer::serve_async_combining(backend).expect("serve");
    let cfg = LoadConfig::open(8, 600, 6000.0).with_keys(5, 1.3, 0xBEEF);
    let report = run_load(server.local_addr(), &cfg).expect("keyed open loop");
    assert_eq!((report.ops, report.failed), (600, 0));
    assert!(report.per_key.len() > 1, "the mix spread over several keys: {:?}", report.per_key);
    assert_eq!(report.per_key.iter().map(|k| k.ops).sum::<usize>(), 600);
    assert!(report.values_are_sequential_per_key(), "every key's acks are exactly 0..ops_k");
    assert_eq!(server.stats().ops, 600);
    server.shutdown().expect("shutdown");
}

#[test]
fn flags_that_selected_a_driver_are_unknown() {
    for flag in ["--mux", "--bogus"] {
        let out = loadgen(&["--open", "1000", flag]);
        assert!(!out.status.success(), "{flag} was accepted");
        assert!(out.stdout.is_empty(), "{flag} ran a load: {:?}", out.stdout);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{flag}: {err}");
        assert!(err.contains("usage: loadgen"), "{flag}: {err}");
    }
}
