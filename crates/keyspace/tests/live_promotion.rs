//! The keyspace behind a real TCP server: keyed clients, live
//! promotion under concurrent load, exactly-once across reconnects
//! that straddle a migration, and the single-counter fallback.

use std::time::Duration;

use distctr_keyspace::{Keyspace, KeyspaceConfig, PromotionPolicy};
use distctr_server::{run_load, CounterServer, ErrCode, LoadConfig, RemoteCounter, ServerError};

/// A policy that promotes on the faintest contention signal: any
/// sustained rate above ~1 op/s or a single queued combiner waiter.
/// Demotion never fires (infinite cooldown would need a clock; an
/// impossible rate floor does the same job).
fn eager() -> PromotionPolicy {
    PromotionPolicy {
        window: Duration::from_millis(50),
        promote_rate: 1.0,
        promote_depth: 1,
        demote_rate: 0.0,
        cooldown: Duration::from_secs(3600),
        ..PromotionPolicy::default()
    }
}

fn keyspace(n: usize, policy: PromotionPolicy) -> Keyspace<distctr_core::TreeCounter> {
    Keyspace::sim(KeyspaceConfig { policy, ..KeyspaceConfig::new(n) })
}

#[test]
fn keyed_sessions_drive_independent_counters_over_tcp() {
    let mut server = CounterServer::serve_async(keyspace(27, PromotionPolicy::default())).unwrap();
    let addr = server.local_addr();

    let mut alice = RemoteCounter::connect_keyed(addr, 3).unwrap();
    let mut bob = RemoteCounter::connect_keyed(addr, 8).unwrap();
    for expect in 0..20u64 {
        // A keyed client's plain `inc` drives the client's counter.
        assert_eq!(alice.inc().unwrap(), expect, "key 3 counts alone");
        assert_eq!(bob.inc().unwrap(), expect, "key 8 counts alone");
    }
    // Explicit per-request keys work from any session, and reads see
    // every grant.
    assert_eq!(alice.inc_key(8).unwrap(), 20, "cross-session keyed inc lands on key 8");
    assert_eq!(alice.read(3).unwrap(), 20);
    assert_eq!(alice.read(8).unwrap(), 21);
    assert_eq!(alice.read(999).unwrap(), 0, "an untouched key reads zero");

    let stats = server.stats();
    assert!(stats.keys_hosted >= 2, "both keys hosted: {}", stats.keys_hosted);
    server.shutdown().unwrap();
}

#[test]
fn a_resumed_session_replays_exactly_once_across_a_migration() {
    let mut server = CounterServer::serve_async(keyspace(27, eager())).unwrap();
    let addr = server.local_addr();

    let mut client = RemoteCounter::connect_keyed(addr, 7).unwrap();
    let session = client.session();
    // Enough traffic to trip the eager policy: the promotion marks
    // itself pending on the first op and settles mid-burst, so the
    // early grants' cache entries must survive the move to the tree.
    let mut last = 0;
    for _ in 0..10 {
        last = client.inc().unwrap();
    }
    assert_eq!(last, 9);
    drop(client);

    // A resumed session carries no key (the key travels in each
    // request), and replaying an acked request id answers from the
    // caches — never a second grant.
    let mut resumed = RemoteCounter::resume(addr, session).unwrap();
    let replayed = resumed.inc_key_with_id(7, 9, None).unwrap();
    assert_eq!(replayed, 9, "the replay answered the original grant, not a new one");
    assert_eq!(resumed.inc_key(7).unwrap(), 10, "fresh ops continue where the sequence left off");
    assert_eq!(resumed.read(7).unwrap(), 11);

    let stats = server.stats();
    assert!(stats.promotions >= 1, "the burst promoted key 7: {stats:?}");
    assert!(stats.deduped >= 1, "the replay was deduplicated: {stats:?}");
    server.shutdown().unwrap();
}

#[test]
fn single_counter_backends_reject_foreign_keys_with_no_such_key() {
    let backend = distctr_core::TreeCounter::new(27).unwrap();
    let mut server = CounterServer::serve_async(backend).unwrap();
    let addr = server.local_addr();

    let mut client = RemoteCounter::connect(addr).unwrap();
    assert_eq!(client.inc().unwrap(), 0, "the default counter still serves");
    assert_eq!(client.inc_key(0).unwrap(), 1, "key 0 aliases the default counter");
    assert!(
        matches!(client.inc_key(5), Err(ServerError::Remote(ErrCode::NoSuchKey))),
        "a single-counter backend routes no other key"
    );
    server.shutdown().unwrap();
}

#[test]
fn live_promotion_under_concurrent_load_preserves_per_key_sequences() {
    // The whole keyed story on a combining server: keyed clients,
    // per-request keys, reads, and eager promotion under concurrent
    // Zipf load. Per-key exactly-once must hold across promotions.
    let mut server = CounterServer::serve_async_combining(keyspace(27, eager())).unwrap();
    let addr = server.local_addr();

    // Warm-up keys sit outside the load mix below (keys 0..5), so the
    // per-key sequence check sees each mixed key from zero.
    let mut alice = RemoteCounter::connect_keyed(addr, 7).unwrap();
    let mut bob = RemoteCounter::connect_keyed(addr, 8).unwrap();
    assert_eq!(alice.inc().unwrap(), 0, "key 7 counts alone");
    assert_eq!(bob.inc().unwrap(), 0, "key 8 counts alone");
    assert_eq!(alice.inc_key(8).unwrap(), 1, "cross-session keyed inc lands on key 8");
    assert_eq!(alice.read(8).unwrap(), 2);
    drop(alice);
    drop(bob);

    let cfg = LoadConfig::closed(8, 1200).with_keys(5, 1.3, 0xBEEF);
    let report = run_load(addr, &cfg).unwrap();
    assert_eq!(report.failed, 0, "no operation lost its retry budget");
    assert!(
        report.values_are_sequential_per_key(),
        "every key's acked values are exactly 0..ops_k across promotions"
    );
    // The warm-up keys tripped the eager policy too; one more op each
    // settles their pending migrations before the drain check.
    let mut settle = RemoteCounter::connect(addr).unwrap();
    assert_eq!(settle.inc_key(7).unwrap(), 1);
    assert_eq!(settle.inc_key(8).unwrap(), 2);
    drop(settle);

    let stats = server.stats();
    assert!(stats.promotions >= 1, "the eager policy promoted under load: {stats:?}");
    assert_eq!(stats.migrations_inflight, 0, "the run drained every pending migration");
    server.shutdown().unwrap();
}
