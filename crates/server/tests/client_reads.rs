//! How [`RemoteCounter`] reads its replies, against a scripted peer on a
//! raw `TcpListener`: a reply torn into single bytes, two replies behind
//! one `read`, a stream that ends mid-frame, and the bytes a reconnect
//! must forget. Each script answers the client's handshake (`Hello`,
//! then the `Stats` that learns the processor count) like a server.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use distctr_core::CounterBackend;
use distctr_server::wire::{encode_frame_into, FrameReader};
use distctr_server::{
    ClientConfig, ErrCode, RemoteCounter, RetryPolicy, ServerError, StatsSnapshot, WireError,
    WireMsg,
};

const SESSION: u64 = 5;

fn frame(msg: &WireMsg) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(msg, &mut out);
    out
}

fn stats(bottleneck: u64) -> WireMsg {
    WireMsg::StatsOk(StatsSnapshot { processors: 8, bottleneck, ..StatsSnapshot::default() })
}

/// Answers the handshake on an accepted connection: `Hello` (checking
/// whether it resumes), then the client's `Stats`. Returns the stream
/// and the reader of its requests.
fn accept_hello(listener: &TcpListener, resume: Option<u64>) -> (TcpStream, FrameReader) {
    let (mut stream, _) = listener.accept().expect("accept");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut frames = FrameReader::new();
    assert_eq!(frames.next_frame(&mut stream).expect("hello"), WireMsg::Hello { resume });
    stream.write_all(&frame(&WireMsg::HelloOk { session: SESSION, processor: 1 })).expect("ok");
    if resume.is_none() {
        assert_eq!(frames.next_frame(&mut stream).expect("stats"), WireMsg::Stats);
        stream.write_all(&frame(&stats(0))).expect("stats reply");
    }
    (stream, frames)
}

/// Runs `script` as the peer of one client and hands back its listener
/// thread, joined by the test to surface the script's assertions.
fn peer(script: impl FnOnce(TcpListener) + Send + 'static) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    (addr, std::thread::spawn(move || script(listener)))
}

fn config(max_retries: u32) -> ClientConfig {
    ClientConfig {
        reply_timeout: Duration::from_secs(5),
        retry: RetryPolicy {
            max_retries,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
    }
}

fn expect_inc((stream, frames): &mut (TcpStream, FrameReader), request_id: u64) {
    match frames.next_frame(stream).expect("inc") {
        WireMsg::Inc { request_id: r, initiator: None } => assert_eq!(r, request_id),
        other => panic!("expected Inc {request_id}, got {other:?}"),
    }
}

#[test]
fn a_reply_written_one_byte_at_a_time_decodes() {
    let (addr, script) = peer(|listener| {
        let mut conn = accept_hello(&listener, None);
        conn.0.set_nodelay(true).expect("nodelay");
        expect_inc(&mut conn, 0);
        for byte in frame(&WireMsg::IncOk { request_id: 0, value: 42 }) {
            conn.0.write_all(&[byte]).expect("trickle byte");
            std::thread::sleep(Duration::from_micros(300));
        }
    });
    let mut client = RemoteCounter::connect_with(addr, config(0)).expect("connect");
    assert_eq!(client.inc().expect("inc"), 42);
    script.join().expect("peer");
}

#[test]
fn two_replies_behind_one_read_decode_in_order() {
    let (addr, script) = peer(|listener| {
        let mut conn = accept_hello(&listener, None);
        expect_inc(&mut conn, 0);
        // One write carries the answer to this request, the answer to
        // the next one and a statistics reply: the client must decode
        // the last two from its buffer, not from the socket.
        let mut burst = frame(&WireMsg::IncOk { request_id: 0, value: 10 });
        burst.extend(frame(&WireMsg::IncOk { request_id: 1, value: 11 }));
        burst.extend(frame(&stats(17)));
        conn.0.write_all(&burst).expect("burst");
        expect_inc(&mut conn, 1);
        assert_eq!(conn.1.next_frame(&mut conn.0).expect("stats"), WireMsg::Stats);
        expect_inc(&mut conn, 2);
        conn.0.write_all(&frame(&WireMsg::IncOk { request_id: 2, value: 12 })).expect("reply");
    });
    let mut client = RemoteCounter::connect_with(addr, config(0)).expect("connect");
    assert_eq!(client.inc().expect("inc"), 10);
    assert_eq!(client.inc().expect("buffered inc"), 11);
    assert_eq!(client.bottleneck(), 17, "the shared-reference reader reads the buffer first");
    assert_eq!(client.inc().expect("inc"), 12);
    script.join().expect("peer");
}

#[test]
fn a_stream_that_ends_mid_frame_is_truncated() {
    let (addr, script) = peer(|listener| {
        let mut conn = accept_hello(&listener, None);
        expect_inc(&mut conn, 0);
        let reply = frame(&WireMsg::IncOk { request_id: 0, value: 3 });
        conn.0.write_all(&reply[..10]).expect("torn reply");
    });
    let mut client = RemoteCounter::connect_with(addr, config(0)).expect("connect");
    match client.inc() {
        Err(ServerError::Wire(WireError::Truncated { context: "the payload" })) => {}
        other => panic!("expected a truncated payload, got {other:?}"),
    }
    script.join().expect("peer");
}

#[test]
fn a_retry_after_a_torn_reply_resumes_and_gets_the_same_value() {
    let (addr, script) = peer(|listener| {
        let mut first = accept_hello(&listener, None);
        expect_inc(&mut first, 0);
        let reply = frame(&WireMsg::IncOk { request_id: 0, value: 7 });
        first.0.write_all(&reply[..6]).expect("torn reply");
        drop(first);
        // The retry resumes the session and replays request 0; the
        // peer answers it from its dedup table.
        let mut second = accept_hello(&listener, Some(SESSION));
        expect_inc(&mut second, 0);
        second.0.write_all(&reply).expect("replayed reply");
        expect_inc(&mut second, 1);
        second.0.write_all(&frame(&WireMsg::IncOk { request_id: 1, value: 8 })).expect("reply");
    });
    let mut client = RemoteCounter::connect_with(addr, config(1)).expect("connect");
    assert_eq!(client.inc().expect("inc after a reconnect"), 7);
    assert_eq!(client.inc().expect("inc"), 8);
    script.join().expect("peer");
}

#[test]
fn a_reconnect_forgets_the_bytes_behind_a_corrupt_reply() {
    let (addr, script) = peer(|listener| {
        let mut first = accept_hello(&listener, None);
        expect_inc(&mut first, 0);
        // A decode-failure code and the start of a frame that never
        // completes: the client reconnects with these bytes buffered.
        let mut reply = frame(&WireMsg::Err { code: ErrCode::Corrupt });
        reply.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        first.0.write_all(&reply).expect("corrupt reply");
        let mut second = accept_hello(&listener, Some(SESSION));
        drop(first);
        expect_inc(&mut second, 0);
        second.0.write_all(&frame(&WireMsg::IncOk { request_id: 0, value: 4 })).expect("reply");
    });
    let mut client = RemoteCounter::connect_with(addr, config(1)).expect("connect");
    assert_eq!(client.inc().expect("inc after a reconnect"), 4);
    script.join().expect("peer");
}
