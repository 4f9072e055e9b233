//! Smoke: the shared-memory backends served over real TCP.
//!
//! The same serving stack the loadgen binary uses (`CounterServer` +
//! `run_load`), hosting each `distctr-shm` structure behind the
//! `CounterBackend` trait. Tree and central are linearizable, so the
//! values observed across connections must be exactly `0..ops`; the
//! counting network is quiescently consistent, so the check is the
//! gap-free multiset (the same split E26 gates on). The tree case is the
//! path that ships — reactor, combiner, shm tree at n = 81 — driven
//! with pipelined connections.

use std::io::Write as _;
use std::net::TcpStream;

use distctr::server::wire::{encode_frame_into, write_frame, FrameReader};
use distctr::server::{run_load, CounterServer, LoadConfig, WireMsg};
use distctr::shm::{AtomicBitonicCounter, CentralCounter, ShmTreeCounter};

const CONNS: usize = 4;
const OPS: usize = 200;

fn sorted_values(report: &distctr::server::LoadReport) -> Vec<u64> {
    let mut v = report.values.clone();
    v.sort_unstable();
    v
}

#[test]
fn shm_tree_serves_sequential_values_over_tcp() {
    let backend = ShmTreeCounter::new(81).expect("arena");
    let mut server = CounterServer::serve_async_combining(backend).expect("serve");
    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            write_frame(&mut stream, &WireMsg::Hello { resume: None }).expect("hello");
            let hello = FrameReader::new().next_frame(&mut stream);
            assert!(matches!(hello, Ok(WireMsg::HelloOk { .. })));
            stream
        })
        .collect();
    // Every connection's whole share goes out in one write, so each has
    // OPS / CONNS incs in flight and the combiner sees wide rounds.
    let per_conn = (OPS / CONNS) as u64;
    let mut burst = Vec::new();
    for request_id in 0..per_conn {
        encode_frame_into(&WireMsg::Inc { request_id, initiator: None }, &mut burst);
    }
    for stream in &mut conns {
        stream.write_all(&burst).expect("burst");
    }
    let mut values = Vec::with_capacity(OPS);
    for stream in &mut conns {
        let mut frames = FrameReader::new();
        for _ in 0..per_conn {
            match frames.next_frame(stream).expect("reply") {
                WireMsg::IncOk { value, .. } => values.push(value),
                other => panic!("expected IncOk, got {other:?}"),
            }
        }
    }
    values.sort_unstable();
    assert_eq!(values, (0..OPS as u64).collect::<Vec<_>>(), "tree over TCP is exact");
    let stats = server.stats();
    assert_eq!(stats.ops, OPS as u64);
    assert!(stats.combined_traversals < OPS as u64, "pipelined incs were combined");
    assert!(stats.bottleneck > 0, "arena load accounting flows through server stats");
    server.shutdown().expect("shutdown");
}

#[test]
fn shm_central_serves_sequential_values_over_tcp() {
    let backend = CentralCounter::new(4);
    let mut server = CounterServer::serve_async(backend).expect("serve");
    let report = run_load(server.local_addr(), &LoadConfig::closed(CONNS, OPS)).expect("load");
    assert!(report.values_are_sequential_from(0), "one fetch_add cell over TCP is exact");
    server.shutdown().expect("shutdown");
}

#[test]
fn shm_network_serves_a_gap_free_multiset_over_tcp() {
    let backend = AtomicBitonicCounter::new(4);
    let mut server = CounterServer::serve_async(backend).expect("serve");
    let report = run_load(server.local_addr(), &LoadConfig::closed(CONNS, OPS)).expect("load");
    // The server serializes ops behind one mutex anyway, but the
    // promise we hold the network to is the quiescent one: every value
    // exactly once.
    assert_eq!(sorted_values(&report), (0..OPS as u64).collect::<Vec<_>>());
    server.shutdown().expect("shutdown");
}
