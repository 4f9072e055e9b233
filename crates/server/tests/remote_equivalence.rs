//! Cross-backend equivalence at the *service boundary*: the canonical
//! one-inc-per-processor workload at `n = 81` driven (a) on the
//! simulator in-process, (b) on the real-threads backend in-process,
//! and (c) through a real loopback TCP socket via [`RemoteCounter`],
//! must hand out identical sequential values — and every backend's
//! bottleneck stays within the documented `20k` bound (k = 3), plus the
//! small additive shim slack the net crate's differential tests price.

use distctr_core::{CounterBackend, TreeCounter};
use distctr_net::ThreadedTreeCounter;
use distctr_server::{CounterServer, RemoteCounter};
use distctr_sim::ProcessorId;

/// `n = 81 = 3^4`, so the tree order is `k = 3`.
const N: usize = 81;
const K: u64 = 3;
/// The repo-wide documented bottleneck bound (README quickstart).
const BOUND: u64 = 20 * K;
/// Cross-backend handshake-traffic slack (see
/// `crates/net/tests/cross_backend.rs`).
const SLACK: u64 = 4;

/// Drives the canonical workload through any backend in-process.
fn drive_local<B: CounterBackend>(backend: &mut B) -> Vec<u64> {
    (0..N).map(|p| backend.inc(ProcessorId::new(p)).expect("local inc")).collect()
}

#[test]
fn remote_counter_matches_both_local_backends_at_n_81() {
    // (a) The simulator, in-process.
    let mut sim = TreeCounter::new(N).expect("sim counter");
    let sim_values = drive_local(&mut sim);
    let sim_bottleneck = sim.bottleneck();

    // (b) The real-threads backend, in-process.
    let mut threads = ThreadedTreeCounter::new(N).expect("threaded counter");
    let thread_values = drive_local(&mut threads);
    let thread_bottleneck = CounterBackend::bottleneck(&threads);
    let thread_retirements = CounterBackend::retirements(&threads);
    threads.shutdown().expect("shutdown");

    // (c) The same workload through a real TCP socket: one connection
    // (sequential driving preserved), explicit initiators on the wire.
    let server = CounterServer::serve_async(ThreadedTreeCounter::new(N).expect("threaded counter"))
        .expect("serve");
    let mut remote = RemoteCounter::connect(server.local_addr()).expect("connect");
    assert_eq!(CounterBackend::processors(&remote), N);
    let remote_values: Vec<u64> =
        (0..N).map(|p| remote.inc_as(ProcessorId::new(p)).expect("remote inc")).collect();
    let stats = server.stats();
    let hosted = server.into_backend().expect("into_backend");
    let remote_bottleneck = CounterBackend::bottleneck(&hosted);
    drop(hosted);

    // Identical sequential values 0..81 from all three vantage points.
    let expected: Vec<u64> = (0..N as u64).collect();
    assert_eq!(sim_values, expected, "simulator values");
    assert_eq!(thread_values, expected, "threaded values");
    assert_eq!(remote_values, expected, "remote values over TCP");

    // Every backend honours the O(k) bottleneck bound.
    for (name, b) in
        [("sim", sim_bottleneck), ("threads", thread_bottleneck), ("remote", remote_bottleneck)]
    {
        assert!(b <= BOUND + SLACK, "{name} bottleneck {b} exceeds {BOUND} + {SLACK}");
        assert!(b >= K, "{name} bottleneck {b} beats the Omega(k) lower bound");
    }

    // Putting a socket in front of the backend changed *nothing* about
    // the protocol: sequential driving is deterministic, so the hosted
    // run agrees exactly with the in-process threaded run.
    assert_eq!(remote_bottleneck, thread_bottleneck, "TCP indirection changed message loads");
    assert_eq!(stats.retirements, thread_retirements, "TCP indirection changed retirements");
    assert_eq!(stats.ops, N as u64);
    assert_eq!(stats.deduped, 0, "no retries in a clean run");
}

#[test]
fn hosting_the_simulator_backend_is_equally_transparent() {
    // The service layer is generic over `CounterBackend`: the simulator
    // served over TCP agrees exactly with the simulator in-process.
    let mut local = TreeCounter::new(N).expect("sim counter");
    let local_values = drive_local(&mut local);

    let server =
        CounterServer::serve_async(TreeCounter::new(N).expect("sim counter")).expect("serve");
    let mut remote = RemoteCounter::connect(server.local_addr()).expect("connect");
    let remote_values: Vec<u64> =
        (0..N).map(|p| remote.inc_as(ProcessorId::new(p)).expect("remote inc")).collect();
    let stats = server.stats();
    let hosted = server.into_backend().expect("into_backend");

    assert_eq!(remote_values, local_values);
    assert_eq!(hosted.bottleneck(), local.bottleneck(), "deterministic backend, equal loads");
    assert_eq!(stats.bottleneck, local.bottleneck());
    assert!(stats.bottleneck <= BOUND + SLACK);
}
