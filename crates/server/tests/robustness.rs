//! Codec and session robustness at the socket boundary: truncated
//! frames, oversized length prefixes, garbage tags and mid-operation
//! disconnects each produce a *typed* error — and never wedge or crash
//! the server, which keeps serving subsequent connections exactly-once.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use distctr_core::TreeCounter;
use distctr_net::ThreadedTreeCounter;
use distctr_server::wire::{frame_raw, write_frame, FrameReader};
use distctr_server::{CounterServer, ErrCode, RemoteCounter, WireMsg, MAX_FRAME};

/// Opens a raw socket and completes the Hello handshake, returning the
/// stream and the session id.
fn raw_hello(addr: SocketAddr) -> (TcpStream, u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write_frame(&mut stream, &WireMsg::Hello { resume: None }).expect("hello");
    match FrameReader::new().next_frame(&mut stream).expect("hello reply") {
        WireMsg::HelloOk { session, .. } => (stream, session),
        other => panic!("expected HelloOk, got {other:?}"),
    }
}

/// Polls a server statistic until it reaches `want`.
fn await_stat<B: distctr_core::CounterBackend + Send + 'static>(
    server: &CounterServer<B>,
    what: &str,
    stat: impl Fn(&CounterServer<B>) -> u64,
    want: u64,
) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while stat(server) < want {
        assert!(Instant::now() < deadline, "server never recorded the {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls the server's wire-error counter until it reaches `want`.
fn await_wire_errors<B: distctr_core::CounterBackend + Send + 'static>(
    server: &CounterServer<B>,
    want: u64,
) {
    await_stat(server, "wire error", |s| s.stats().wire_errors, want);
}

/// After any abuse, a *fresh* client must still get exact values.
fn assert_still_serving<B: distctr_core::CounterBackend + Send + 'static>(
    server: &CounterServer<B>,
    expected_next: u64,
) {
    let mut client = RemoteCounter::connect(server.local_addr()).expect("fresh connect");
    assert_eq!(client.inc().expect("fresh inc"), expected_next, "server wedged or lost count");
}

#[test]
fn truncated_frame_is_detected_and_survived() {
    let mut server = CounterServer::serve_async(TreeCounter::new(8).expect("sim")).expect("serve");
    let (mut stream, _) = raw_hello(server.local_addr());
    // A length prefix promising 10 bytes, followed by only 3 — then the
    // connection vanishes mid-frame.
    stream.write_all(&10u32.to_le_bytes()).expect("prefix");
    stream.write_all(&[0x02, 0x00, 0x00]).expect("partial payload");
    drop(stream);
    // The server classifies it (WireError::Truncated, distinct from a
    // clean close), counts it, and keeps serving.
    await_wire_errors(&server, 1);
    assert_still_serving(&server, 0);
    server.shutdown().expect("shutdown");
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let mut server = CounterServer::serve_async(TreeCounter::new(8).expect("sim")).expect("serve");
    let (mut stream, _) = raw_hello(server.local_addr());
    // Claim a frame far beyond MAX_FRAME; the server must answer with a
    // typed error without ever trying to buffer it.
    let huge = (MAX_FRAME + 1) * 1000;
    stream.write_all(&huge.to_le_bytes()).expect("oversized prefix");
    stream.flush().expect("flush");
    match FrameReader::new().next_frame(&mut stream).expect("error reply") {
        WireMsg::Err { code } => assert_eq!(code, ErrCode::Oversized),
        other => panic!("expected Err {{ Oversized }}, got {other:?}"),
    }
    await_wire_errors(&server, 1);
    assert_still_serving(&server, 0);
    server.shutdown().expect("shutdown");
}

#[test]
fn garbage_tag_and_malformed_payload_get_typed_errors() {
    let mut server = CounterServer::serve_async(TreeCounter::new(8).expect("sim")).expect("serve");

    // Unknown tag 0x7f in an otherwise well-formed frame (honest
    // length prefix and checksum, so the tag is what gets flagged).
    let (mut stream, _) = raw_hello(server.local_addr());
    stream.write_all(&frame_raw(&[0x7f])).expect("tag");
    match FrameReader::new().next_frame(&mut stream).expect("error reply") {
        WireMsg::Err { code } => assert_eq!(code, ErrCode::UnknownTag),
        other => panic!("expected Err {{ UnknownTag }}, got {other:?}"),
    }
    // The connection is closed right after the error frame.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty());
    drop(stream);

    // A valid Inc tag with a short body (framed honestly, so the
    // layout mismatch is what gets flagged).
    let (mut stream, _) = raw_hello(server.local_addr());
    stream.write_all(&frame_raw(&[0x02, 0x01, 0x02])).expect("short inc");
    match FrameReader::new().next_frame(&mut stream).expect("error reply") {
        WireMsg::Err { code } => assert_eq!(code, ErrCode::Malformed),
        other => panic!("expected Err {{ Malformed }}, got {other:?}"),
    }
    drop(stream);

    // A server-only frame from a client is a protocol violation, not a
    // crash.
    let (mut stream, _) = raw_hello(server.local_addr());
    write_frame(&mut stream, &WireMsg::IncOk { request_id: 0, value: 99 }).expect("wrong frame");
    match FrameReader::new().next_frame(&mut stream).expect("error reply") {
        WireMsg::Err { code } => assert_eq!(code, ErrCode::Malformed),
        other => panic!("expected Err {{ Malformed }}, got {other:?}"),
    }
    drop(stream);

    await_wire_errors(&server, 3);
    assert_still_serving(&server, 0);
    server.shutdown().expect("shutdown");
}

#[test]
fn hello_must_come_first() {
    let server = CounterServer::serve_async(TreeCounter::new(8).expect("sim")).expect("serve");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write_frame(&mut stream, &WireMsg::Inc { request_id: 0, initiator: None }).expect("inc");
    match FrameReader::new().next_frame(&mut stream).expect("error reply") {
        WireMsg::Err { code } => assert_eq!(code, ErrCode::BadHandshake),
        other => panic!("expected Err {{ BadHandshake }}, got {other:?}"),
    }
    assert_eq!(server.stats().ops, 0, "nothing was counted");
    assert_still_serving(&server, 0);
}

#[test]
fn resuming_an_unknown_session_is_refused() {
    let server = CounterServer::serve_async(TreeCounter::new(8).expect("sim")).expect("serve");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write_frame(&mut stream, &WireMsg::Hello { resume: Some(0xdead_beef) }).expect("hello");
    match FrameReader::new().next_frame(&mut stream).expect("error reply") {
        WireMsg::Err { code } => assert_eq!(code, ErrCode::UnknownSession),
        other => panic!("expected Err {{ UnknownSession }}, got {other:?}"),
    }
    assert_still_serving(&server, 0);
}

#[test]
fn out_of_range_initiator_is_refused_without_counting() {
    let mut server = CounterServer::serve_async(TreeCounter::new(8).expect("sim")).expect("serve");
    let mut client = RemoteCounter::connect(server.local_addr()).expect("connect");
    let err = client.inc_as(distctr_sim::ProcessorId::new(8)).expect_err("out of range");
    match err {
        distctr_server::ServerError::Remote(code) => assert_eq!(code, ErrCode::BadInitiator),
        other => panic!("expected Remote(BadInitiator), got {other:?}"),
    }
    // The refused operation did not consume a counter value.
    assert_still_serving(&server, 0);
    server.shutdown().expect("shutdown");
}

/// The headline reconnect story, on the threaded backend: a client whose
/// connection dies *after* sending an `Inc` but *before* reading the
/// reply resumes its session and replays the same request id — and the
/// operation counts exactly once: answered from the session's answer
/// table, or — if the first attempt failed after landing — by the net
/// backend's root reply cache under the same token.
#[test]
fn mid_op_disconnect_then_replay_is_exactly_once_on_threads() {
    let mut server =
        CounterServer::serve_async(ThreadedTreeCounter::new(8).expect("threads")).expect("serve");
    exercise_replay(&server);
    // Whichever delivery was the retry (ours or the dead connection's
    // still-buffered one), it was answered from dedup state.
    await_stat(&server, "dedup", |s| s.stats().deduped, 1);
    server.shutdown().expect("shutdown");
}

/// The same story on the simulator backend, which ignores the token:
/// the session's answer table alone provides the same exactly-once
/// guarantee.
#[test]
fn mid_op_disconnect_then_replay_is_exactly_once_on_sim() {
    let mut server = CounterServer::serve_async(TreeCounter::new(8).expect("sim")).expect("serve");
    exercise_replay(&server);
    await_stat(&server, "dedup", |s| s.stats().deduped, 1);
    server.shutdown().expect("shutdown");
}

fn exercise_replay<B: distctr_core::CounterBackend + Send + 'static>(server: &CounterServer<B>) {
    let addr = server.local_addr();
    let (mut stream, session) = raw_hello(addr);
    // Request 0 completes normally.
    write_frame(&mut stream, &WireMsg::Inc { request_id: 0, initiator: None }).expect("inc 0");
    let v0 = match FrameReader::new().next_frame(&mut stream).expect("inc 0 reply") {
        WireMsg::IncOk { request_id: 0, value } => value,
        other => panic!("expected IncOk, got {other:?}"),
    };
    assert_eq!(v0, 0);
    // Request 1 goes out — and the connection dies before the reply is
    // read. The server may or may not have applied it yet.
    write_frame(&mut stream, &WireMsg::Inc { request_id: 1, initiator: None }).expect("inc 1");
    drop(stream);

    // Resume the session on a new connection and replay request 1: the
    // client cannot know whether it was applied, so it *must* retry, and
    // the retry must not double-count.
    let mut replayer = RemoteCounter::resume(addr, session).expect("resume");
    let v1 = replayer.inc_with_id(1, None).expect("replayed inc");
    assert_eq!(v1, 1, "replay returned the original value, not a second increment");
    // A replay of a request whose reply *was* delivered is answered the
    // same way.
    assert_eq!(replayer.inc_with_id(0, None).expect("replay of an acked inc"), 0);
    // The next fresh operation proves nothing was double-counted.
    assert_eq!(replayer.inc().expect("fresh inc"), 2);
}
