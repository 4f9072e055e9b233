//! The reactor's own mechanics, observed from outside the service
//! boundary: torn-frame reassembly, many frames behind one readable
//! event, combining replies routed through the reply channel, drain at
//! a frame boundary, and hundreds of connections on one thread — plus
//! the open-loop load driver that faces it from one thread. (The
//! protocol's error and overload behavior is pinned in `robustness.rs`
//! and `hardening.rs`.)

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use distctr_core::TreeCounter;
use distctr_server::wire::{encode_frame_into, write_frame, FrameReader};
use distctr_server::{run_load, CounterServer, LoadConfig, RemoteCounter, ServerConfig, WireMsg};

fn tree(n: usize) -> TreeCounter {
    TreeCounter::new(n).expect("tree")
}

/// Opens a raw socket and completes the Hello handshake.
fn raw_hello(addr: SocketAddr) -> (TcpStream, u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write_frame(&mut stream, &WireMsg::Hello { resume: None }).expect("hello");
    match FrameReader::new().next_frame(&mut stream).expect("hello reply") {
        WireMsg::HelloOk { session, .. } => (stream, session),
        other => panic!("expected HelloOk, got {other:?}"),
    }
}

#[test]
fn sequential_async_server_serves_real_clients_exactly_once() {
    let mut server = CounterServer::serve_async(tree(8)).expect("serve");
    let mut a = RemoteCounter::connect(server.local_addr()).expect("connect");
    let mut b = RemoteCounter::connect(server.local_addr()).expect("connect");
    assert_eq!(a.inc().expect("inc"), 0);
    assert_eq!(b.inc().expect("inc"), 1);
    assert_eq!(a.inc_batch(5).expect("batch"), 2, "batch grants 2..7");
    assert_eq!(b.inc().expect("inc"), 7);
    let stats = server.stats();
    assert_eq!(stats.ops, 8);
    assert_eq!(stats.connections, 2);
    server.shutdown().expect("shutdown");
}

#[test]
fn combining_async_server_is_exactly_once_under_concurrent_load() {
    let mut server = CounterServer::serve_async_combining(tree(8)).expect("serve");
    let report = run_load(server.local_addr(), &LoadConfig::closed(8, 400)).expect("load");
    assert_eq!(report.failed, 0);
    assert!(report.values_are_sequential_from(0), "exactly-once across 8 concurrent conns");
    let stats = server.stats();
    assert_eq!(stats.ops, 400);
    assert!(stats.combined_traversals > 0, "the combiner actually batched");
    assert!(stats.combined_traversals < 400, "combining coalesced at least some concurrent incs");
    server.shutdown().expect("shutdown");
}

#[test]
fn a_frame_trickled_one_byte_at_a_time_is_reassembled() {
    let mut server = CounterServer::serve_async(tree(8)).expect("serve");
    let (mut stream, _) = raw_hello(server.local_addr());
    let mut frame = Vec::new();
    encode_frame_into(&WireMsg::Inc { request_id: 0, initiator: None }, &mut frame);
    // Each byte is its own TCP segment, microseconds apart: the reactor
    // sees up to `frame.len()` separate readable events, buffering the
    // torn prefix until the frame completes.
    for byte in frame {
        stream.write_all(&[byte]).expect("trickle byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_micros(300));
    }
    match FrameReader::new().next_frame(&mut stream).expect("reply") {
        WireMsg::IncOk { request_id: 0, value: 0 } => {}
        other => panic!("expected IncOk(0, 0), got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn pipelined_requests_in_one_write_all_get_answers() {
    let mut server = CounterServer::serve_async_combining(tree(8)).expect("serve");
    let (mut stream, _) = raw_hello(server.local_addr());
    // 50 Incs in a single write: one readable event carries many
    // frames, and the replies queue behind one write buffer.
    let mut burst = Vec::new();
    for request_id in 0..50 {
        encode_frame_into(&WireMsg::Inc { request_id, initiator: None }, &mut burst);
    }
    stream.write_all(&burst).expect("burst");
    let mut frames = FrameReader::new();
    let mut values: Vec<u64> = (0..50)
        .map(|_| match frames.next_frame(&mut stream).expect("reply") {
            WireMsg::IncOk { value, .. } => value,
            other => panic!("expected IncOk, got {other:?}"),
        })
        .collect();
    values.sort_unstable();
    assert_eq!(values, (0..50).collect::<Vec<u64>>(), "every pipelined inc got its own value");
    server.shutdown().expect("shutdown");
}

#[test]
fn drain_completes_buffered_work_then_refuses_new_connections() {
    let mut server = CounterServer::serve_async_combining(tree(8)).expect("serve");
    let addr = server.local_addr();
    let (mut stream, _) = raw_hello(addr);
    // Work already on the wire when drain begins must still be served.
    let mut burst = Vec::new();
    for request_id in 0..20 {
        encode_frame_into(&WireMsg::Inc { request_id, initiator: None }, &mut burst);
    }
    stream.write_all(&burst).expect("burst");
    let mut frames = FrameReader::new();
    let mut values: Vec<u64> = (0..20)
        .map(|_| match frames.next_frame(&mut stream).expect("reply") {
            WireMsg::IncOk { value, .. } => value,
            other => panic!("expected IncOk, got {other:?}"),
        })
        .collect();
    server.drain().expect("drain");
    values.sort_unstable();
    assert_eq!(values, (0..20).collect::<Vec<u64>>(), "drain lost an acked value");
    // The drained connection was closed at a frame boundary.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "no torn bytes after the drain close");
    assert!(RemoteCounter::connect(addr).is_err(), "a drained server admits nobody");
}

#[test]
fn stats_and_reads_are_served_inline_by_the_reactor() {
    let mut server = CounterServer::serve_async(tree(8)).expect("serve");
    let mut client = RemoteCounter::connect(server.local_addr()).expect("connect");
    assert_eq!(client.inc().expect("inc"), 0);
    let stats = client.stats().expect("stats over the wire");
    assert_eq!(stats.ops, 1);
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.accept_errors, 0);
    // A single-counter backend rejects reads with NoSuchKey.
    assert!(client.read(0).is_err());
    server.shutdown().expect("shutdown");
}

#[test]
fn the_open_loop_driver_sustains_hundreds_of_conns_on_one_thread_each_side() {
    // A smoke-sized C10k shape: 256 concurrent connections, one client
    // thread, one reactor thread. (The full 10k run is experiment E27,
    // which splits client and server across processes to stay inside
    // RLIMIT_NOFILE.)
    let mut server = CounterServer::serve_async_combining(tree(8)).expect("serve");
    let cfg = LoadConfig::open(256, 2048, 20_000.0);
    let report = run_load(server.local_addr(), &cfg).expect("open loop");
    assert_eq!(report.failed, 0, "no op failed at smoke load");
    assert!(report.values_are_sequential_from(0), "exactly-once at 256 conns");
    assert_eq!(report.per_conn.len(), 256);
    let stats = server.stats();
    assert_eq!(stats.ops, 2048);
    assert_eq!(stats.connections, 256);
    server.shutdown().expect("shutdown");
}

#[test]
fn a_connection_refused_at_hello_is_not_reported_as_established() {
    // The server admits 4 and answers the other 4 `Busy` at `Hello`.
    // The survivors carry every op, so nothing fails — the shortfall
    // must show in `per_conn`, which is what E27's "opened" column and
    // its `established == conns` gate read.
    let config = ServerConfig { max_conns: Some(4), ..ServerConfig::default() };
    let mut server =
        CounterServer::serve_async_on_with("127.0.0.1:0", tree(8), true, config).expect("serve");
    let report = run_load(server.local_addr(), &LoadConfig::open(8, 400, 8000.0)).expect("open");
    assert_eq!(report.failed, 0);
    assert!(report.values_are_sequential_from(0));
    assert_eq!(report.per_conn.len(), 4, "only the admitted connections were established");
    assert!(report.per_conn.iter().all(|c| c.ops > 0), "and each of them carried ops");
    server.shutdown().expect("shutdown");
}

#[test]
fn closed_then_open_below_and_above_capacity_stay_sequential_on_one_server() {
    // The three regimes E19 recorded, on one live server so the value
    // sequence keeps going: the closed loop measures the capacity, the
    // open loop runs under it (flat latency) and past it (the queue
    // grows, nothing is lost).
    let (conns, ops) = (4, 200);
    let backend = distctr_net::ThreadedTreeCounter::new(8).expect("threaded tree");
    let mut server = CounterServer::serve_async(backend).expect("serve");
    let addr = server.local_addr();
    let closed = run_load(addr, &LoadConfig::closed(conns, ops)).expect("closed loop");
    assert!(closed.values_are_sequential_from(0), "closed loop");
    let capacity = closed.throughput().max(500.0);
    let below = run_load(addr, &LoadConfig::open(conns, ops, capacity * 0.5)).expect("0.5x");
    assert!(below.values_are_sequential_from(ops as u64), "open loop at 0.5x capacity");
    let above = run_load(addr, &LoadConfig::open(conns, ops, capacity * 2.0)).expect("2x");
    assert!(above.values_are_sequential_from(2 * ops as u64), "open loop at 2x capacity");
    assert_eq!(below.failed + above.failed, 0, "saturation queues, it does not shed");
    let stats = server.stats();
    assert_eq!((stats.ops, stats.wire_errors), (3 * ops as u64, 0));
    server.shutdown().expect("shutdown");
}
