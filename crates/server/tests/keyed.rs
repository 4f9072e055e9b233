//! Keyed protocol behavior of a *single-counter* backend: key 0
//! aliases the legacy counter, every other key is rejected with
//! `NoSuchKey`, and the stats snapshot reports the degenerate
//! keyspace of one. (The adaptive multi-counter behavior lives in
//! `distctr-keyspace`'s own integration tests — this file pins down
//! the default-trait fallback every existing backend inherits.)

use distctr_core::TreeCounter;
use distctr_server::{CounterServer, ErrCode, RemoteCounter, ServerError};

#[test]
fn key_zero_aliases_the_legacy_counter() {
    let mut server = CounterServer::serve_async(TreeCounter::new(27).unwrap()).unwrap();
    let addr = server.local_addr();

    // A client keyed to 0 and an unkeyed one drive the same counter,
    // interleaved.
    let mut keyed = RemoteCounter::connect_keyed(addr, 0).unwrap();
    let mut legacy = RemoteCounter::connect(addr).unwrap();
    assert_eq!(keyed.inc().unwrap(), 0);
    assert_eq!(legacy.inc().unwrap(), 1);
    assert_eq!(keyed.inc_batch_key(0, 5).unwrap(), 2, "keyed batch grants 2..7");
    assert_eq!(legacy.inc().unwrap(), 7);

    let stats = server.stats();
    assert_eq!(stats.keys_hosted, 1, "a single-counter backend hosts exactly key 0");
    assert_eq!(stats.promotions, 0);
    assert_eq!(stats.demotions, 0);
    assert_eq!(stats.migrations_inflight, 0);
    server.shutdown().unwrap();
}

#[test]
fn foreign_keys_and_reads_are_rejected_not_misrouted() {
    let mut server = CounterServer::serve_async(TreeCounter::new(27).unwrap()).unwrap();
    let addr = server.local_addr();

    let mut client = RemoteCounter::connect(addr).unwrap();
    assert!(matches!(
        client.inc_key(3), //
        Err(ServerError::Remote(ErrCode::NoSuchKey))
    ));
    assert!(matches!(client.inc_batch_key(3, 4), Err(ServerError::Remote(ErrCode::NoSuchKey))));
    // The default backend exposes no read index at all — not even for
    // key 0: reads are a keyspace feature.
    assert!(matches!(client.read(0), Err(ServerError::Remote(ErrCode::NoSuchKey))));

    // The rejections consumed no values: the sequence is unbroken.
    assert_eq!(client.inc().unwrap(), 0);
    server.shutdown().unwrap();
}
