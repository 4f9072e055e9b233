//! Cross-driver conformance suite for the shared protocol engine.
//!
//! The simulator and the threaded backend are now thin drivers around
//! the *same* sans-io [`distctr_core::engine::NodeEngine`], so their
//! observable behaviour must not merely agree within slack — it must be
//! **identical**: the same workload produces the same value sequence,
//! the same per-processor message counts, and the same retirement and
//! shim tallies, across a grid of tree orders and under fault injection.
//! Any future edit that forks the two code paths again fails here first.

use distctr_check::{combined_fingerprint, Budget, CheckConfig, Checker};
use distctr_core::engine::EngineConfig;
use distctr_core::{Topology, TreeCounter};
use distctr_net::ThreadedTreeCounter;
use distctr_sim::{Counter, FaultPlan, ProcessorId, TraceMode};

/// Observables of one full round through one backend.
#[derive(Debug, PartialEq)]
struct RoundObservables {
    values: Vec<u64>,
    loads: Vec<u64>,
    retirements: u64,
    shim_forwards: u64,
}

/// One full round of `n` operations under a seeded permutation, driven
/// through both backends.
fn drive_both(n: usize, seed: u64) -> (RoundObservables, RoundObservables) {
    let mut sim = TreeCounter::builder(n)
        .expect("builder")
        .trace(TraceMode::Off)
        .build()
        .expect("sim counter");
    let mut threads = ThreadedTreeCounter::new(n).expect("threaded counter");
    assert_eq!(sim.processors(), threads.processors());
    let n = sim.processors();

    // A seeded permutation of initiators: x -> (a*x + b) mod n with a
    // coprime to n covers every processor exactly once.
    let a = (2 * seed + 7) | 1;
    let order: Vec<usize> = (0..n).map(|i| ((a as usize * i) + seed as usize) % n).collect();
    let mut seen = vec![false; n];
    order.iter().for_each(|&p| seen[p] = true);
    assert!(seen.iter().all(|&b| b), "seed {seed}: order is a permutation of 0..{n}");

    let mut sim_values = Vec::with_capacity(n);
    let mut thread_values = Vec::with_capacity(n);
    for &p in &order {
        sim_values.push(sim.inc(ProcessorId::new(p)).expect("sim inc").value);
        thread_values.push(threads.inc(ProcessorId::new(p)).expect("threaded inc"));
    }
    let out = (
        RoundObservables {
            values: sim_values,
            loads: sim.loads().to_vec(),
            retirements: sim.audit().retirements_by_level().iter().sum(),
            shim_forwards: sim.audit().shim_forwards(),
        },
        RoundObservables {
            values: thread_values,
            loads: threads.loads(),
            retirements: threads.retirements(),
            shim_forwards: threads.shim_forwards(),
        },
    );
    threads.shutdown().expect("shutdown");
    out
}

#[test]
fn both_drivers_report_identical_values_loads_and_retirements() {
    // Property-style over a small grid: every supported thread-scale
    // order, several workload permutations each.
    for n in [8usize, 81] {
        for seed in [0u64, 3, 11] {
            let (sim, threads) = drive_both(n, seed);
            assert_eq!(
                sim.values,
                (0..sim.values.len() as u64).collect::<Vec<_>>(),
                "n={n} seed={seed}: values are exactly sequential"
            );
            for (p, (&s, &t)) in sim.loads.iter().zip(&threads.loads).enumerate() {
                assert_eq!(s, t, "n={n} seed={seed}: P{p} message count (sim {s}, threads {t})");
            }
            assert_eq!(sim, threads, "n={n} seed={seed}: observables diverge");
        }
    }
}

#[test]
fn both_drivers_agree_under_a_crash_fault_plan() {
    // Crash the same level-k singleton worker in both backends, then
    // drive operations whose paths avoid the dead subtree: the engine
    // must produce the same values and the same per-processor counts.
    let n = 81usize;
    let mut sim = TreeCounter::builder(n)
        .expect("builder")
        .trace(TraceMode::Off)
        .faults(distctr_sim::FaultPlan::new(0))
        .build()
        .expect("sim counter");
    let mut threads = ThreadedTreeCounter::new(n).expect("threaded counter");
    let crash_target = ProcessorId::new(80);
    sim.crash(crash_target);
    threads.crash_worker(crash_target).expect("crash");

    for (expected, p) in (0..54usize).enumerate() {
        let s = sim.inc_fault_tolerant(ProcessorId::new(p)).expect("sim inc").value;
        let t = threads.inc(ProcessorId::new(p)).expect("threaded inc");
        assert_eq!(s, expected as u64, "sim initiator P{p}");
        assert_eq!(t, expected as u64, "threaded initiator P{p}");
    }
    assert_eq!(
        sim.audit().retirements_by_level().iter().sum::<u64>(),
        threads.retirements(),
        "retirement counts under the crash plan"
    );
    let sim_loads = sim.loads().to_vec();
    let thread_loads = threads.loads();
    for (p, (&s, &t)) in sim_loads.iter().zip(&thread_loads).enumerate() {
        assert_eq!(s, t, "crash plan: P{p} message count (sim {s}, threads {t})");
    }
    threads.shutdown().expect("shutdown");
}

#[test]
fn both_drivers_grant_identical_batch_ranges_under_a_crash_plan() {
    // Batched increments under the same crash: both backends must hand
    // out the *same* contiguous ranges — same starts, same partition of
    // [0, total) — and agree on per-processor message counts, so
    // batching amortizes identically across drivers.
    let n = 81usize;
    let mut sim = TreeCounter::builder(n)
        .expect("builder")
        .trace(TraceMode::Off)
        .faults(distctr_sim::FaultPlan::new(0))
        .build()
        .expect("sim counter");
    let mut threads = ThreadedTreeCounter::new(n).expect("threaded counter");
    let crash_target = ProcessorId::new(80);
    sim.crash(crash_target);
    threads.crash_worker(crash_target).expect("crash");

    // Alternate unit incs and batches away from the dead subtree; the
    // expected range starts are fully determined by the counts.
    let counts: [u64; 8] = [1, 5, 1, 12, 3, 1, 7, 2];
    let mut expected_start = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        let p = ProcessorId::new(i * 5);
        let (s, t) = if count == 1 {
            (
                sim.inc_fault_tolerant(p).expect("sim inc").value,
                threads.inc(p).expect("threaded inc"),
            )
        } else {
            (
                sim.inc_batch_fault_tolerant(p, count).expect("sim batch").value,
                threads.inc_batch(p, count).expect("threaded batch"),
            )
        };
        assert_eq!(s, expected_start, "sim range start, op {i}");
        assert_eq!(t, expected_start, "threaded range start, op {i}");
        expected_start += count;
    }
    assert_eq!(
        sim.audit().retirements_by_level().iter().sum::<u64>(),
        threads.retirements(),
        "retirement counts under the crash plan"
    );
    let sim_loads = sim.loads().to_vec();
    let thread_loads = threads.loads();
    for (p, (&s, &t)) in sim_loads.iter().zip(&thread_loads).enumerate() {
        assert_eq!(s, t, "batch crash plan: P{p} message count (sim {s}, threads {t})");
    }
    threads.shutdown().expect("shutdown");
}

/// The threaded backend's engine configuration, mirrored for the model
/// checker: the driver always dedupes retries through a bounded reply
/// cache and has no stable storage.
fn threaded_parity_engine(k: u32) -> EngineConfig {
    EngineConfig { dedupe: true, ..EngineConfig::paper(k) }
}

#[test]
fn threaded_final_state_is_in_the_checkers_quiescent_set() {
    // The strongest conformance statement the engines allow: the real
    // threaded run, fingerprinted engine-by-engine, lands on a protocol
    // state the model checker *also* reaches while exhausting every
    // delivery order of the same workload under the same crash plan —
    // over a matrix of tree orders and crash plans.
    for k in [2u32, 3] {
        let topo = Topology::new(k).expect("topology");
        let n = usize::try_from(topo.processors()).expect("fits");
        // Two ops whose paths stay inside the first top-level subtree,
        // away from the crash victim below.
        let initiators: Vec<usize> = vec![0, k as usize];
        // The victim serves the *last* initiator's leaf parent — on no
        // explored op's path, so both backends keep answering.
        let victim = topo.initial_worker(topo.leaf_parent(topo.processors() - 1));
        let plans =
            [FaultPlan::new(0), FaultPlan::new(0).crash(victim, 0 /* before any delivery */)];
        for plan in plans {
            let crashes = plan.crashes.len();

            // Drive the real threads.
            let mut threads = ThreadedTreeCounter::new(n).expect("threaded counter");
            for c in &plan.crashes {
                threads.crash_worker(c.processor).expect("crash");
            }
            for (expected, &p) in initiators.iter().enumerate() {
                let v = threads.inc(ProcessorId::new(p)).expect("threaded inc");
                assert_eq!(v, expected as u64, "k={k} crashes={crashes}: P{p}");
            }
            let fps = threads.engine_fingerprints().expect("fingerprints");
            let mut crashed = vec![false; n];
            for c in threads.crashed_workers() {
                crashed[c.index()] = true;
            }
            let threaded_fp = combined_fingerprint(&fps, &crashed);
            threads.shutdown().expect("shutdown");

            // Exhaust every delivery order of the same workload in the
            // checker and demand the threaded state is in its quiescent
            // set.
            let cfg = CheckConfig::new(n)
                .sequential_ops(&initiators)
                .engine(threaded_parity_engine(k))
                .faults(&plan);
            let outcome = Checker::new(cfg)
                .budget(Budget { max_transitions: 60_000, ..Budget::default() })
                .run();
            assert!(outcome.holds(), "k={k} crashes={crashes}: {:?}", outcome.violation);
            assert!(!outcome.stats.truncated, "k={k} crashes={crashes}: exploration exhausted");
            assert!(
                outcome.stats.quiescent_fingerprints.contains(&threaded_fp),
                "k={k} crashes={crashes}: threaded fingerprint {threaded_fp:#x} not among the \
                 checker's {} quiescent states",
                outcome.stats.quiescent_fingerprints.len()
            );
        }
    }
}
