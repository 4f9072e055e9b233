//! Overload and failure hardening at the server boundary: admission
//! control sheds with `Busy` instead of queueing without bound, a
//! panicking backend round is contained (the server keeps serving and
//! the waiters' retries succeed), a retry after a failed attempt is
//! exactly-once, and a graceful drain never loses an acked operation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use distctr_core::{CoreError, CounterBackend, KeyedReply, TreeCounter};
use distctr_server::wire::{write_frame, FrameReader};
use distctr_server::{
    ClientConfig, CounterServer, RemoteCounter, RetryPolicy, ServerConfig, ServerError, WireMsg,
};
use distctr_sim::ProcessorId;

/// A backend that panics on the next counting operation while `armed`,
/// disarming itself first — the operation after the panic succeeds.
/// The panic fires *before* the inner counter is touched, so the
/// contained state stays consistent (as any correctly-written backend
/// must keep itself on unwind).
struct PanicOnce {
    inner: TreeCounter,
    armed: Arc<AtomicBool>,
}

impl PanicOnce {
    fn trip(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected backend panic");
        }
    }
}

impl CounterBackend for PanicOnce {
    type Error = CoreError;

    fn processors(&self) -> usize {
        CounterBackend::processors(&self.inner)
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error> {
        self.trip();
        CounterBackend::inc(&mut self.inner, initiator)
    }

    fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, Self::Error> {
        self.trip();
        CounterBackend::inc_batch(&mut self.inner, initiator, count)
    }

    fn bottleneck(&self) -> u64 {
        self.inner.bottleneck()
    }

    fn retirements(&self) -> u64 {
        CounterBackend::retirements(&self.inner)
    }
}

/// A backend that applies an op, caches its grant under the op's token
/// (the way a keyspace key does), then reports failure once while
/// `armed` — an increment that landed although its attempt failed. Only
/// a retry that re-drives the *same* token is answered from the cache;
/// any other would increment again.
struct FailOnceAfterApply {
    inner: TreeCounter,
    armed: Arc<AtomicBool>,
    answers: HashMap<(u64, u64), u64>,
}

impl CounterBackend for FailOnceAfterApply {
    type Error = CoreError;

    fn processors(&self) -> usize {
        CounterBackend::processors(&self.inner)
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error> {
        CounterBackend::inc(&mut self.inner, initiator)
    }

    fn inc_batch_key(
        &mut self,
        key: u64,
        initiator: ProcessorId,
        count: u64,
        token: Option<(u64, u64)>,
    ) -> Result<KeyedReply, Self::Error> {
        if let Some(&first) = token.and_then(|t| self.answers.get(&t)) {
            return Ok(KeyedReply::Replay(first));
        }
        let reply = self.inner.inc_batch_key(key, initiator, count, None)?;
        if let (Some(t), KeyedReply::Fresh(first)) = (token, reply) {
            self.answers.insert(t, first);
        }
        if self.armed.swap(false, Ordering::SeqCst) {
            return Err(CoreError::RecoveryFailed { attempts: 1 });
        }
        Ok(reply)
    }

    fn bottleneck(&self) -> u64 {
        self.inner.bottleneck()
    }

    fn retirements(&self) -> u64 {
        CounterBackend::retirements(&self.inner)
    }
}

/// A backend whose batch operations take a fixed nap — long enough for
/// pipelined requests to pile up behind the combiner and hit the
/// in-flight cap or their deadline.
struct SlowBackend {
    inner: TreeCounter,
    nap: Duration,
}

impl CounterBackend for SlowBackend {
    type Error = CoreError;

    fn processors(&self) -> usize {
        CounterBackend::processors(&self.inner)
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error> {
        std::thread::sleep(self.nap);
        CounterBackend::inc(&mut self.inner, initiator)
    }

    fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, Self::Error> {
        std::thread::sleep(self.nap);
        CounterBackend::inc_batch(&mut self.inner, initiator, count)
    }

    fn bottleneck(&self) -> u64 {
        self.inner.bottleneck()
    }

    fn retirements(&self) -> u64 {
        CounterBackend::retirements(&self.inner)
    }
}

fn fast_retries() -> ClientConfig {
    ClientConfig {
        reply_timeout: Duration::from_secs(5),
        retry: RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            seed: 7,
        },
    }
}

#[test]
fn a_panicking_combiner_round_is_contained_and_the_retry_succeeds() {
    let armed = Arc::new(AtomicBool::new(false));
    let backend = PanicOnce { inner: TreeCounter::new(8).expect("sim"), armed: Arc::clone(&armed) };
    let mut server = CounterServer::serve_async_combining(backend).expect("serve");
    let mut client =
        RemoteCounter::connect_with(server.local_addr(), fast_retries()).expect("connect");

    assert_eq!(client.inc().expect("pre-panic inc"), 0);
    armed.store(true, Ordering::SeqCst);
    // The combining round serving this inc panics inside the backend;
    // the server contains it, replies `Err { Backend }`, and the
    // client's retry lands in a later (healthy) round.
    assert_eq!(client.inc().expect("inc across the panic"), 1);
    assert_eq!(client.inc().expect("post-panic inc"), 2);

    let stats = server.stats();
    assert_eq!(stats.panics_contained, 1, "exactly one contained panic");
    // A second client still gets exact values: nothing was lost or
    // double-applied around the panic.
    let mut fresh = RemoteCounter::connect(server.local_addr()).expect("fresh connect");
    assert_eq!(fresh.inc().expect("fresh inc"), 3);
    server.shutdown().expect("shutdown");
}

#[test]
fn a_panicking_sequential_request_is_contained_too() {
    let armed = Arc::new(AtomicBool::new(false));
    let backend = PanicOnce { inner: TreeCounter::new(8).expect("sim"), armed: Arc::clone(&armed) };
    let mut server = CounterServer::serve_async(backend).expect("serve");
    let mut client =
        RemoteCounter::connect_with(server.local_addr(), fast_retries()).expect("connect");

    assert_eq!(client.inc().expect("pre-panic inc"), 0);
    armed.store(true, Ordering::SeqCst);
    assert_eq!(client.inc().expect("inc across the panic"), 1);
    assert_eq!(server.stats().panics_contained, 1);
    server.shutdown().expect("shutdown");
}

#[test]
fn a_panic_surfaces_as_a_backend_error_without_retries() {
    let armed = Arc::new(AtomicBool::new(true));
    let backend = PanicOnce { inner: TreeCounter::new(8).expect("sim"), armed: Arc::clone(&armed) };
    let mut server = CounterServer::serve_async(backend).expect("serve");
    let config = ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() };
    let mut client = RemoteCounter::connect_with(server.local_addr(), config).expect("connect");
    match client.inc() {
        Err(ServerError::Remote(distctr_server::ErrCode::Backend)) => {}
        other => panic!("expected Remote(Backend), got {other:?}"),
    }
    // The session and the server both survived the contained panic.
    assert_eq!(client.inc().expect("inc after the contained panic"), 0);
    server.shutdown().expect("shutdown");
}

#[test]
fn a_retry_after_a_failed_attempt_re_drives_the_same_token() {
    let armed = Arc::new(AtomicBool::new(false));
    let backend = FailOnceAfterApply {
        inner: TreeCounter::new(8).expect("sim"),
        armed: Arc::clone(&armed),
        answers: HashMap::new(),
    };
    let mut server = CounterServer::serve_async(backend).expect("serve");
    let mut client =
        RemoteCounter::connect_with(server.local_addr(), fast_retries()).expect("connect");

    assert_eq!(client.inc().expect("inc"), 0);
    armed.store(true, Ordering::SeqCst);
    // The attempt applies and then fails with `Err { Backend }`; the
    // server records nothing, and the client's retry carries the same
    // request id, so the backend sees the same token and replays.
    assert_eq!(client.inc().expect("inc across the failed attempt"), 1);
    assert_eq!(client.inc().expect("inc"), 2, "the failed attempt left no gap");
    assert_eq!(server.stats().deduped, 1, "the retry was a replay");
    server.shutdown().expect("shutdown");
}

#[test]
fn admission_control_sheds_connections_past_the_cap_with_busy() {
    let config = ServerConfig {
        max_conns: Some(1),
        busy_retry_after: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let mut server = CounterServer::serve_async_on_with(
        "127.0.0.1:0",
        TreeCounter::new(8).expect("sim"),
        false,
        config,
    )
    .expect("serve");
    let fail_fast = ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() };

    let first = RemoteCounter::connect(server.local_addr()).expect("first connect");
    match RemoteCounter::connect_with(server.local_addr(), fail_fast.clone()) {
        Err(ServerError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 5),
        other => panic!("expected Busy at the cap, got {other:?}"),
    }
    assert_eq!(server.stats().shed, 1, "the shed connection is counted");

    // Freeing the slot re-admits: drop the first client and poll until
    // the reactor closes its connection and a new connect succeeds.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut readmitted = loop {
        match RemoteCounter::connect_with(server.local_addr(), fail_fast.clone()) {
            Ok(client) => break client,
            Err(_) => {
                assert!(Instant::now() < deadline, "slot never freed");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    assert_eq!(readmitted.inc().expect("inc after readmission"), 0);
    server.shutdown().expect("shutdown");
}

#[test]
fn per_connection_inflight_cap_sheds_with_busy_and_replays_stay_exactly_once() {
    let backend =
        SlowBackend { inner: TreeCounter::new(8).expect("sim"), nap: Duration::from_millis(80) };
    let config = ServerConfig {
        max_inflight_per_conn: Some(2),
        busy_retry_after: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let mut server =
        CounterServer::serve_async_on_with("127.0.0.1:0", backend, true, config).expect("serve");

    // Raw pipelined connection: fire 6 incs back-to-back while the
    // combiner naps, so the in-flight cap must trip.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    write_frame(&mut stream, &WireMsg::Hello { resume: None }).expect("hello");
    let mut frames = FrameReader::new();
    match frames.next_frame(&mut stream).expect("hello reply") {
        WireMsg::HelloOk { .. } => {}
        other => panic!("expected HelloOk, got {other:?}"),
    }
    let total = 6u64;
    for request_id in 0..total {
        write_frame(&mut stream, &WireMsg::Inc { request_id, initiator: None }).expect("inc");
    }
    let mut acked: Vec<(u64, u64)> = Vec::new();
    let mut shed = 0u64;
    for _ in 0..total {
        match frames.next_frame(&mut stream).expect("reply") {
            WireMsg::IncOk { request_id, value } => acked.push((request_id, value)),
            WireMsg::Busy { .. } => shed += 1,
            other => panic!("expected IncOk or Busy, got {other:?}"),
        }
    }
    assert!(shed >= 1, "the in-flight cap never tripped");
    assert!(!acked.is_empty(), "capped pipelining still makes progress");
    assert_eq!(server.stats().ops, acked.len() as u64, "shed requests consumed nothing");

    // Replay every shed id: the shed requests were never applied, so
    // each replay gets a *fresh* value and the union stays duplicate-
    // and gap-free.
    let acked_ids: Vec<u64> = acked.iter().map(|&(id, _)| id).collect();
    for request_id in (0..total).filter(|id| !acked_ids.contains(id)) {
        write_frame(&mut stream, &WireMsg::Inc { request_id, initiator: None }).expect("replay");
        loop {
            match frames.next_frame(&mut stream).expect("replay reply") {
                WireMsg::IncOk { request_id: rid, value } => {
                    assert_eq!(rid, request_id);
                    acked.push((rid, value));
                    break;
                }
                WireMsg::Busy { .. } => {
                    std::thread::sleep(Duration::from_millis(20));
                    write_frame(&mut stream, &WireMsg::Inc { request_id, initiator: None })
                        .expect("replay again");
                }
                other => panic!("expected IncOk, got {other:?}"),
            }
        }
    }
    let mut values: Vec<u64> = acked.iter().map(|&(_, v)| v).collect();
    values.sort_unstable();
    let expect: Vec<u64> = (0..total).collect();
    assert_eq!(values, expect, "every op applied exactly once, sheds included");
    assert!(server.stats().shed >= shed);
    server.shutdown().expect("shutdown");
}

#[test]
fn drain_never_loses_an_acked_operation() {
    let mut server =
        CounterServer::serve_async_combining(TreeCounter::new(8).expect("sim")).expect("serve");
    let addr = server.local_addr();

    // A background client hammers incs until the drain cuts it off;
    // every value it collected was acked over the wire.
    let fail_fast = ClientConfig {
        reply_timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            seed: 3,
        },
    };
    let driver = std::thread::spawn(move || {
        let mut acked = Vec::new();
        let Ok(mut client) = RemoteCounter::connect_with(addr, fail_fast) else {
            return acked;
        };
        while let Ok(v) = client.inc() {
            acked.push(v);
        }
        acked
    });
    // Let it get going, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(150));
    server.drain().expect("drain");
    let acked = driver.join().expect("driver thread");
    assert!(!acked.is_empty(), "the driver made progress before the drain");

    // Every acked value is distinct and the sequence has no gaps: the
    // drain flushed every in-flight reply before closing, and nothing
    // acked was lost or double-applied.
    let expect: Vec<u64> = (0..acked.len() as u64).collect();
    assert_eq!(acked, expect, "acked values form an exact prefix");

    // The reclaimed backend agrees: at most one in-flight operation
    // (sent but never acked before the cut) may have consumed an extra
    // value; an acked one never disappears.
    let mut backend = server.into_backend().expect("backend");
    let next = CounterBackend::inc(&mut backend, ProcessorId::new(0)).expect("direct inc");
    assert!(
        next == acked.len() as u64 || next == acked.len() as u64 + 1,
        "backend counted {next} vs {} acked",
        acked.len()
    );
}

#[test]
fn shutdown_of_an_idle_server_is_prompt_without_a_wakeup_connection() {
    // The reactor parks in a readiness wait with no timeout; shutdown
    // reaches it through the waker — it must not need a throwaway
    // connect, and must come back quickly.
    let mut server = CounterServer::serve_async(TreeCounter::new(8).expect("sim")).expect("serve");
    let t0 = Instant::now();
    server.shutdown().expect("shutdown");
    assert!(t0.elapsed() < Duration::from_secs(2), "idle shutdown took {:?}", t0.elapsed());
}
