//! Cross-backend differential tests: the threaded counter must exhibit
//! the same observable behaviour as the simulated one.

use distctr_core::TreeCounter;
use distctr_net::ThreadedTreeCounter;
use distctr_sim::{Counter, ProcessorId, TraceMode};

#[test]
fn threaded_and_simulated_backends_agree_on_values() {
    let n = 81usize;
    let mut sim = TreeCounter::builder(n)
        .expect("builder")
        .trace(TraceMode::Off)
        .build()
        .expect("sim counter");
    let mut threads = ThreadedTreeCounter::new(n).expect("threaded counter");
    assert_eq!(sim.processors(), threads.processors());

    // Same deterministic (but non-trivial) initiator order on both.
    let order: Vec<usize> = (0..n).map(|i| (i * 37) % n).collect();
    {
        let mut seen = vec![false; n];
        order.iter().for_each(|&p| seen[p] = true);
        assert!(seen.iter().all(|&b| b), "order is a permutation");
    }
    for &p in &order {
        let sim_value = sim.inc(ProcessorId::new(p)).expect("sim inc").value;
        let thread_value = threads.inc(ProcessorId::new(p)).expect("threaded inc");
        assert_eq!(sim_value, thread_value, "initiator P{p}");
    }
    threads.shutdown().expect("shutdown");
}

#[test]
fn threaded_loads_match_the_simulator_up_to_shim_traffic() {
    // The protocol messages are identical across backends; the only
    // divergence is *handshake* (shim-forward) traffic, because the two
    // backends model routing staleness differently: the simulator's
    // senders read the node's worker field (stale only while a handoff
    // is in flight), while threads rely on their own NewWorker-updated
    // routing tables. The paper prices this as "a constant number of
    // extra messages"; we assert exactly that — per-processor loads agree
    // within a small additive constant.
    let n = 81usize;
    let mut sim = TreeCounter::builder(n)
        .expect("builder")
        .trace(TraceMode::Off)
        .build()
        .expect("sim counter");
    let mut threads = ThreadedTreeCounter::new(n).expect("threaded counter");
    for p in 0..n {
        sim.inc(ProcessorId::new(p)).expect("sim inc");
        threads.inc(ProcessorId::new(p)).expect("threaded inc");
    }
    let sim_loads = sim.loads().to_vec();
    let thread_loads = threads.loads();
    let mut total_diff = 0u64;
    for (i, (&a, &b)) in sim_loads.iter().zip(&thread_loads).enumerate() {
        let diff = a.abs_diff(b);
        assert!(diff <= 4, "P{i}: sim {a} vs threads {b} differ by more than shim slack");
        total_diff += diff;
    }
    assert!(
        total_diff <= 2 * sim.audit().shim_forwards().max(4) * 2 + 8,
        "aggregate divergence {total_diff} stays within O(shim) messages"
    );
    // The headline quantity agrees tightly.
    let sim_b = sim.loads().max_load();
    let thread_b = threads.bottleneck();
    assert!(sim_b.abs_diff(thread_b) <= 4, "bottlenecks {sim_b} vs {thread_b}");
    threads.shutdown().expect("shutdown");
}

#[test]
fn threaded_retirement_counts_match_the_audit() {
    let n = 81usize;
    let mut sim = TreeCounter::new(n).expect("sim counter");
    let mut threads = ThreadedTreeCounter::new(n).expect("threaded counter");
    for p in 0..n {
        sim.inc(ProcessorId::new(p)).expect("sim inc");
        threads.inc(ProcessorId::new(p)).expect("threaded inc");
    }
    let sim_retirements: u64 = sim.audit().retirements_by_level().iter().sum();
    assert_eq!(sim_retirements, threads.retirements());
    threads.shutdown().expect("shutdown");
}

#[test]
#[ignore = "spawns 1024 OS threads; run with --ignored --release"]
fn threaded_backend_at_k4_scale() {
    let n = 1024usize;
    let mut threads = ThreadedTreeCounter::new(n).expect("1024 threads");
    for p in 0..n {
        let v = threads.inc(ProcessorId::new(p)).expect("inc");
        assert_eq!(v, p as u64);
    }
    let b = threads.bottleneck();
    assert!(b >= 4, "k = 4 lower bound");
    assert!(b <= 20 * 4, "O(k) bound on 1024 real threads: {b}");
    threads.shutdown().expect("shutdown");
}

#[test]
fn stale_sends_to_a_retired_worker_are_forwarded_and_counted() {
    use distctr_core::{CounterObject, NodeRef};
    use distctr_net::ThreadedTreeClient;

    let mut c = ThreadedTreeClient::<CounterObject>::new(8).expect("client");
    // One full round of ops ages the root by 2 each (it sits on every
    // path), so it has certainly retired from its initial worker.
    for i in 0..8u64 {
        let v = c.invoke(ProcessorId::new(i as usize), ()).expect("inc");
        assert_eq!(v, i);
    }
    assert!(c.retirements() >= 1, "the root retired during the round");
    let old_root_worker = c.topology().initial_worker(NodeRef::ROOT);
    let forwards_before = c.shim_forwards();
    let load_before = c.loads()[old_root_worker.index()];

    // A peer with a stale routing view addresses the root's Apply to the
    // *retired* worker. The retirement shim must forward it to the pool
    // successor and the operation must still count: the returned value
    // stays exactly in sequence.
    let v = c
        .invoke_stale(old_root_worker, NodeRef::ROOT, ProcessorId::new(7), ())
        .expect("stale invoke");
    assert_eq!(v, 8, "the forwarded apply is counted exactly once");
    assert!(c.shim_forwards() > forwards_before, "the shim forwarded the stale apply");
    // The retired worker is charged for the hop — one receive plus one
    // forwarded send — which is exactly how the simulator's audit prices
    // shim traffic (`audit().shim_forwards()` over there).
    assert!(
        c.loads()[old_root_worker.index()] >= load_before + 2,
        "forwarding hops count toward the retired worker's load"
    );
    // The network is still healthy afterwards.
    assert_eq!(c.invoke(ProcessorId::new(0), ()).expect("inc"), 9);
    c.shutdown().expect("shutdown");
}

#[test]
fn a_crashed_worker_degrades_one_subtree_across_backends() {
    // Differential fault injection: crash the same leaf-parent worker in
    // both backends; in both, the untouched subtree keeps the exact
    // value sequence (the dead subtree's operations never reach the
    // root object).
    let n = 81usize;
    let mut sim = TreeCounter::builder(n)
        .expect("builder")
        .trace(TraceMode::Off)
        .faults(distctr_sim::FaultPlan::new(0))
        .build()
        .expect("sim counter");
    let mut threads = ThreadedTreeCounter::new(n).expect("threaded counter");
    // Processor 80 works for the last level-3 node, which serves leaves
    // 77..80 and nothing else (level-k pools are singletons).
    let crash_target = ProcessorId::new(80);
    sim.crash(crash_target);
    threads.crash_worker(crash_target).expect("crash");
    // Both backends refuse the dead initiator outright.
    assert!(sim.inc_fault_tolerant(crash_target).is_err());
    assert!(threads.inc(crash_target).is_err());
    // Both keep exact sequential values for initiators outside the dead
    // subtree.
    for (expected, p) in (0..40usize).enumerate() {
        let sim_value = sim.inc_fault_tolerant(ProcessorId::new(p)).expect("sim inc").value;
        let thread_value = threads.inc(ProcessorId::new(p)).expect("threaded inc");
        assert_eq!(sim_value, expected as u64, "sim initiator P{p}");
        assert_eq!(thread_value, expected as u64, "threaded initiator P{p}");
    }
    threads.shutdown().expect("shutdown");
}

#[test]
fn repeated_runs_are_deterministic_despite_real_threads() {
    // Sequential driving fully serializes the protocol, so even with OS
    // scheduling in play, observable outcomes repeat run to run.
    let run = || {
        let mut c = ThreadedTreeCounter::new(8).expect("counter");
        let values: Vec<u64> = (0..8).map(|i| c.inc(ProcessorId::new(i)).expect("inc")).collect();
        let loads = c.loads();
        c.shutdown().expect("shutdown");
        (values, loads)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
