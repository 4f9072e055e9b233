//! Model-checking the counter: exhaustively explore every delivery
//! order the asynchronous network admits with the engine-level model
//! checker (`distctr::check`) — sleep-set partial-order reduction,
//! crash injection at branch points, and minimized replayable
//! counterexamples.
//!
//! Run with: `cargo run --release --example schedule_explorer`

use distctr::check::{Budget, CheckConfig, Checker, Mutation};

fn main() {
    println!("-- engine-level checker: DPOR + crashes + counterexamples --\n");

    // Cross-op concurrency across the root's retirement window, every
    // order, full invariant set at every quiescent state.
    let cfg = CheckConfig::new(8).warmup(&[0, 2, 4]).concurrent_ops(&[1, 6]);
    let outcome =
        Checker::new(cfg).budget(Budget { max_transitions: 60_000, ..Budget::default() }).run();
    let s = &outcome.stats;
    println!(
        "concurrent cascade: {} transitions, {} leaves, {} distinct quiescent states,",
        s.transitions, s.quiescent_leaves, s.distinct_quiescent
    );
    println!("                    {} redundant interleavings pruned by sleep sets", s.sleep_skips);
    assert!(outcome.holds(), "{:?}", outcome.violation);

    // Crash exploration: the checker may kill the root's worker at any
    // branch point; the watchdog must still deliver sequential values.
    let cfg = CheckConfig::new(8).sequential_ops(&[0, 4]).fault_tolerant().explore_crashes(&[0], 1);
    let outcome =
        Checker::new(cfg).budget(Budget { max_transitions: 30_000, ..Budget::default() }).run();
    println!(
        "crash exploration:  {} transitions, {} leaves — recovery correct on every order",
        outcome.stats.transitions, outcome.stats.quiescent_leaves
    );
    assert!(outcome.holds(), "{:?}", outcome.violation);

    // Seeded bug: a botched handoff that re-installs retiring nodes.
    // The checker finds it and delta-debugs the schedule to a minimal,
    // replayable counterexample.
    let cfg = CheckConfig::new(8)
        .concurrent_ops(&[0, 1])
        .engine(distctr::core::engine::EngineConfig {
            threshold: Some(2),
            pool_policy: distctr::core::protocol::PoolPolicy::OneShot,
            dedupe: false,
            persist: false,
        })
        .mutation(Mutation::ResurrectRetired);
    let outcome = Checker::new(cfg).run();
    let v = outcome.violation.expect("the seeded bug is found");
    println!("\nseeded double-retirement bug:");
    println!("  violated:  {} ({})", v.invariant, v.detail);
    println!("  schedule:  {} choices", v.schedule.choices.len());
    println!("  minimized: {} choices: \"{}\"", v.minimized.choices.len(), v.minimized.serialize());

    println!("\nvalue returned is independent of message delivery order — on every");
    println!("schedule the asynchronous model admits, with or without a crash.");
}
