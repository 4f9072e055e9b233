//! Batched increments and flat combining at the service boundary.
//!
//! Three guarantees, observed through real loopback sockets:
//!
//! * a `KeyBatchInc` grants a contiguous range in one round-trip, and a
//!   retry of the same request id returns the *same* range without
//!   incrementing again (exactly-once for batches);
//! * the flat-combining inc path stays exact under genuinely
//!   concurrent clients — every value 0..ops is handed out exactly
//!   once, no gaps, no duplicates;
//! * combining really combines: the hosted backend sees markedly fewer
//!   traversals' worth of messages than one-traversal-per-inc serving.

use std::collections::HashSet;

use distctr_core::CounterBackend;
use distctr_net::ThreadedTreeCounter;
use distctr_server::wire::{write_frame, FrameReader};
use distctr_server::{CounterServer, ErrCode, RemoteCounter, WireMsg};
use distctr_sim::ProcessorId;

#[test]
fn a_batch_inc_grants_a_contiguous_range_exactly_once() {
    let server =
        CounterServer::serve_async(ThreadedTreeCounter::new(8).expect("backend")).expect("serve");
    let mut client = RemoteCounter::connect(server.local_addr()).expect("connect");

    assert_eq!(client.inc().expect("inc"), 0);
    let first = client.inc_batch(10).expect("batch");
    assert_eq!(first, 1, "the batch owns [1, 11)");
    assert_eq!(client.inc().expect("inc"), 11);

    // Replaying the batch's request id (id 1: inc took 0) must be
    // answered from the dedup state with the original range.
    let replay = client.inc_batch_with_id(1, 10, None).expect("replay");
    assert_eq!(replay, first, "a retry returns the original range");
    assert_eq!(client.inc().expect("inc"), 12, "the replay did not increment");

    let stats = server.stats();
    assert_eq!(stats.ops, 13, "3 incs + 10 batched");
    assert_eq!(stats.deduped, 1);
}

#[test]
fn a_zero_count_batch_grants_one_value_on_one_connection() {
    let server =
        CounterServer::serve_async(ThreadedTreeCounter::new(8).expect("backend")).expect("serve");
    let mut client = RemoteCounter::connect(server.local_addr()).expect("connect");
    // A batch of 0 is a batch of 1 on the client, as on every backend —
    // not a frame the server refuses and the client retries into a
    // reconnect storm.
    assert_eq!(client.inc_batch(0).expect("batch of 0"), 0);
    assert_eq!(client.inc().expect("inc"), 1, "the batch took exactly one value");
    let p = ProcessorId::new(3);
    assert_eq!(CounterBackend::inc_batch(&mut client, p, 0).expect("trait batch of 0"), 2);
    assert_eq!(client.inc_batch_key(0, 0).expect("keyed batch of 0"), 3);
    assert_eq!(client.stats().expect("stats").connections, 1, "no reconnects");

    // The wire itself still refuses a batch of 0.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    write_frame(&mut stream, &WireMsg::Hello { resume: None }).expect("hello");
    let mut frames = FrameReader::new();
    assert!(matches!(frames.next_frame(&mut stream), Ok(WireMsg::HelloOk { .. })));
    let zero = WireMsg::KeyBatchInc { key: 0, request_id: 0, count: 0, initiator: None };
    write_frame(&mut stream, &zero).expect("batch of 0");
    assert_eq!(frames.next_frame(&mut stream), Ok(WireMsg::Err { code: ErrCode::Malformed }));
}

#[test]
fn combining_hands_out_every_value_exactly_once_under_concurrency() {
    const CONNS: usize = 8;
    const OPS_PER_CONN: usize = 8;

    let server =
        CounterServer::serve_async_combining(ThreadedTreeCounter::new(8).expect("backend"))
            .expect("serve");
    let addr = server.local_addr();
    let handles: Vec<_> = (0..CONNS)
        .map(|_| {
            std::thread::spawn(move || -> Vec<u64> {
                let mut client = RemoteCounter::connect(addr).expect("connect");
                (0..OPS_PER_CONN).map(|_| client.inc().expect("inc")).collect()
            })
        })
        .collect();
    let mut values: Vec<u64> = handles.into_iter().flat_map(|h| h.join().expect("join")).collect();

    // Per-connection values must be strictly increasing (each client is
    // sequential), and globally the ranges partition [0, ops).
    let distinct: HashSet<u64> = values.iter().copied().collect();
    assert_eq!(distinct.len(), values.len(), "no value handed out twice");
    values.sort_unstable();
    let expected: Vec<u64> = (0..(CONNS * OPS_PER_CONN) as u64).collect();
    assert_eq!(values, expected, "combined serving stays exact");

    let stats = server.stats();
    assert_eq!(stats.ops, (CONNS * OPS_PER_CONN) as u64);
}

#[test]
fn combining_retries_after_reconnect_stay_exactly_once() {
    let server =
        CounterServer::serve_async_combining(ThreadedTreeCounter::new(8).expect("backend"))
            .expect("serve");
    let mut client = RemoteCounter::connect(server.local_addr()).expect("connect");
    let v0 = client.inc().expect("inc");
    let session = client.session();

    // Reconnect and replay the same request id: the combining round
    // recorded the slice in the session's answer table, so the retry is
    // served from dedup state, not a new traversal.
    let mut resumed = RemoteCounter::resume(server.local_addr(), session).expect("resume");
    assert_eq!(resumed.inc_with_id(0, None).expect("replay"), v0);
    assert_eq!(resumed.inc_with_id(1, None).expect("fresh"), v0 + 1);

    let stats = server.stats();
    assert_eq!(stats.ops, 2);
    assert_eq!(stats.deduped, 1);
}
