//! End-to-end chaos suite: a real `CounterServer` behind a
//! [`ChaosProxy`], real clients in front, one scenario per toxic. The
//! invariant under every fault is the paper's exactly-once story made
//! observable over the wire: with a sufficient retry budget every
//! operation is acked (`failed == 0`) and the acked values are exactly
//! `0..ops` — nothing lost, nothing double-counted, no matter how the
//! network tears, delays, stalls, or mangles the bytes in between.

use std::time::Duration;

use distctr_chaos::{ChaosPlan, ChaosProxy};
use distctr_core::TreeCounter;
use distctr_server::{run_load, ClientConfig, CounterServer, LoadConfig, LoadReport, RetryPolicy};

/// A combining server over the deterministic in-process tree — the
/// dedup path under test here is the session answer table (the backend
/// ignores tokens, and combining rounds carry none), the harder of the
/// two replay stories.
fn serve() -> CounterServer<TreeCounter> {
    CounterServer::serve_async_combining(TreeCounter::new(8).expect("backend")).expect("serve")
}

/// A client hardened for a hostile network: a snappy reply timeout (so
/// blackholes cost milliseconds, not the 10 s default) and a deep,
/// fast-cycling retry budget.
fn hardened(reply_timeout: Duration, budget: u32) -> ClientConfig {
    ClientConfig {
        reply_timeout,
        retry: RetryPolicy {
            max_retries: budget,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            seed: 0xC0FFEE,
        },
    }
}

/// Runs `ops` closed-loop operations over `conns` connections through
/// a proxy applying `plan`, and returns `(report, proxy)` with the
/// server already shut down.
fn run_through(
    plan: ChaosPlan,
    conns: usize,
    ops: usize,
    client: ClientConfig,
) -> (LoadReport, ChaosProxy) {
    let mut server = serve();
    let proxy = ChaosProxy::start(server.local_addr(), plan).expect("proxy");
    let report = run_load(proxy.local_addr(), &LoadConfig::closed(conns, ops).with_client(client))
        .expect("load");
    server.shutdown().expect("shutdown");
    (report, proxy)
}

/// The one assertion that matters: every op acked, values exactly
/// `0..ops`.
fn assert_exactly_once(report: &LoadReport, ops: usize) {
    assert_eq!(report.failed, 0, "ops failed despite the retry budget");
    assert_eq!(report.ops, ops, "not every op completed");
    assert!((report.availability() - 1.0).abs() < f64::EPSILON);
    assert!(report.values_are_distinct(), "a value was handed out twice");
    assert!(
        report.values_are_sequential_from(0),
        "values are not exactly 0..{ops}: {:?}",
        report.values
    );
}

#[test]
fn a_faithful_proxy_is_transparent() {
    let (report, proxy) =
        run_through(ChaosPlan::new(1), 2, 24, hardened(Duration::from_secs(5), 4));
    assert_exactly_once(&report, 24);
    let stats = proxy.stats();
    assert!(stats.connections >= 2);
    assert_eq!(stats.resets + stats.blackholed + stats.corrupted_bytes, 0);
}

#[test]
fn latency_and_jitter_slow_every_op_but_lose_none() {
    let plan = ChaosPlan::new(2).latency(Duration::from_millis(2), Duration::from_millis(3));
    let (report, _proxy) = run_through(plan, 2, 30, hardened(Duration::from_secs(5), 4));
    assert_exactly_once(&report, 30);
    // Each op crosses the proxy twice; the fixed component alone is
    // 2 ms per crossing, so the observed floor is ~4 ms.
    assert!(
        report.latency_percentile_us(50.0) >= 4_000,
        "p50 {} us is below the injected latency floor",
        report.latency_percentile_us(50.0)
    );
}

#[test]
fn a_bandwidth_throttle_preserves_exactly_once() {
    let plan = ChaosPlan::new(3).throttle(4096);
    let (report, _proxy) = run_through(plan, 2, 20, hardened(Duration::from_secs(5), 4));
    assert_exactly_once(&report, 20);
}

#[test]
fn frames_sliced_to_single_bytes_reassemble_exactly_once() {
    // Frames shredded to 3-byte segments with delays: each one crosses
    // the reactor as many separate readable events, and the partial
    // prefixes buffer in the per-connection state machine.
    let plan = ChaosPlan::new(4).slice(3, Duration::from_micros(200));
    let (report, _proxy) = run_through(plan, 2, 24, hardened(Duration::from_secs(5), 8));
    assert_exactly_once(&report, 24);
}

#[test]
fn byte_corruption_is_caught_by_checksums_and_retried_exactly_once() {
    // ~0.2% of bytes flip; every mangled frame fails its CRC on one
    // side or the other, the connection resynchronizes by reconnect,
    // and the session replay dedups anything already applied.
    let plan = ChaosPlan::new(5).corrupt(0.002);
    let (report, _proxy) = run_through(plan, 2, 40, hardened(Duration::from_secs(5), 30));
    assert_exactly_once(&report, 40);
}

#[test]
fn connection_resets_force_resume_and_replay_exactly_once() {
    // Cut every connection after 600 forwarded bytes per direction —
    // a handful of ops per connection life, dozens of cuts per run. A
    // combining reply can race the close of the very connection it
    // belongs to, and the session answer table must cover the replay.
    let plan = ChaosPlan::new(6).reset_after(600);
    let (report, proxy) = run_through(plan, 2, 40, hardened(Duration::from_secs(5), 30));
    assert_exactly_once(&report, 40);
    let stats = proxy.stats();
    assert!(stats.resets >= 1, "the reset toxic never fired");
    assert!(stats.connections > 2, "no reconnect ever happened");
}

#[test]
fn a_blackhole_partition_is_survived_by_timeout_and_reconnect() {
    // The stall is silent — no FIN, no RST — so only the client's
    // reply deadline gets it moving again.
    let plan = ChaosPlan::new(7).blackhole_after(300);
    let (report, proxy) = run_through(plan, 1, 12, hardened(Duration::from_millis(300), 30));
    assert_exactly_once(&report, 12);
    assert!(proxy.stats().blackholed >= 1, "the blackhole toxic never fired");
}

#[test]
fn a_composed_storm_of_toxics_still_counts_exactly_once() {
    let plan = ChaosPlan::new(8)
        .latency(Duration::from_millis(1), Duration::from_millis(1))
        .slice(5, Duration::from_micros(100))
        .corrupt(0.001)
        .reset_after(900);
    let (report, proxy) = run_through(plan, 2, 30, hardened(Duration::from_millis(500), 40));
    assert_exactly_once(&report, 30);
    assert!(proxy.stats().connections >= 2);
}

#[test]
fn a_promotion_mid_storm_keeps_every_key_exactly_once() {
    // The hardest composition in the suite: a keyspace whose policy
    // promotes hot keys on the faintest contention signal, driven with
    // a Zipf-skewed keyed load *through* a proxy that slices frames to
    // shreds and resets every connection after a few ops. Promotions
    // and demotion-free migrations race reconnect replays; the reply
    // caches the migration carries across must keep every key's values
    // exactly `0..ops_k` regardless.
    use distctr_keyspace::{Keyspace, KeyspaceConfig, PromotionPolicy};

    let policy = PromotionPolicy {
        window: Duration::from_millis(50),
        promote_rate: 1.0,
        promote_depth: 1,
        demote_rate: 0.0,
        cooldown: Duration::from_secs(3600),
        ..PromotionPolicy::default()
    };
    let backend = Keyspace::sim(KeyspaceConfig { policy, ..KeyspaceConfig::new(8) });
    let mut server = CounterServer::serve_async_combining(backend).expect("serve");
    let plan = ChaosPlan::new(24).slice(5, Duration::from_micros(100)).reset_after(900);
    let proxy = ChaosProxy::start(server.local_addr(), plan).expect("proxy");
    let cfg = LoadConfig::closed(4, 120)
        .with_client(hardened(Duration::from_secs(5), 30))
        .with_keys(4, 1.4, 0x5707);
    let report = run_load(proxy.local_addr(), &cfg).expect("load");
    let stats = server.stats();
    server.shutdown().expect("shutdown");

    assert_eq!(report.failed, 0, "ops failed despite the retry budget");
    assert_eq!(report.ops, 120, "not every op completed");
    assert!(
        report.values_are_sequential_per_key(),
        "a key lost or double-counted a grant across a mid-storm migration: {:?}",
        report.per_key
    );
    assert!(stats.promotions >= 1, "the storm never tripped a promotion: {stats:?}");
    assert!(proxy.stats().resets >= 1, "the reset toxic never fired");
    assert!(proxy.stats().connections > 4, "no reconnect ever happened");
}

#[test]
fn the_same_seed_and_plan_replay_the_same_fault_decisions() {
    // The replay discipline: per-(connection, direction) random streams
    // are fully determined by `(seed, plan)`. Two proxies with the same
    // plan draw identical corruption/jitter/slice decisions for the
    // same connection index; a different seed diverges.
    let a = ChaosPlan::new(99).corrupt(0.5);
    let b = ChaosPlan::new(99).corrupt(0.5);
    let c = ChaosPlan::new(100).corrupt(0.5);
    assert_eq!(a.stream_seed(3, 1), b.stream_seed(3, 1));
    assert_ne!(a.stream_seed(3, 1), c.stream_seed(3, 1));
}
