//! The counter as a network service: a [`CounterServer`] — one reactor
//! thread for every connection — hosts the real-threads retirement tree
//! on a loopback port, real TCP clients
//! drive it concurrently through the load generator, and a
//! [`RemoteCounter`] — a counter whose "network" is a socket — reads the
//! server's statistics over the same wire protocol.
//!
//! Run with: `cargo run --release --example serve`

use distctr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 81usize; // k = 3 -> 81 worker threads behind the socket
    println!("serving a {n}-processor ThreadedTreeCounter on loopback...");
    let mut server = CounterServer::serve_async(ThreadedTreeCounter::new(n)?)?;
    let addr = server.local_addr();
    println!("listening on {addr}");

    // Closed loop: 8 real TCP connections, one op in flight each.
    let cfg = LoadConfig::closed(8, 400);
    println!("driving {} connections x {} total ops (closed loop)...", cfg.conns, cfg.ops);
    let report = run_load(addr, &cfg)?;
    println!("\n{}", report.render());

    // The counter's correctness condition, observed from *outside* the
    // service boundary: across all connections, the values handed out
    // are exactly 0..400 with no gap and no duplicate.
    assert!(report.values_are_sequential_from(0), "sequential values violated");
    println!("sequential values 0..{}: OK", cfg.ops);

    // A remote client is still just a counter: same interface, and the
    // server's stats travel over the same wire protocol.
    let mut client = RemoteCounter::connect(addr)?;
    let value = client.inc()?;
    assert_eq!(value, cfg.ops as u64);
    let stats = client.stats()?;
    println!(
        "over the wire: inc() -> {value}, {} sessions, {} ops served, bottleneck {}",
        stats.sessions, stats.ops, stats.bottleneck
    );

    server.shutdown()?;
    println!("server shut down cleanly.");
    Ok(())
}
