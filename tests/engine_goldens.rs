//! The engine's final state, pinned across storage and drivers.
//!
//! [`NodeEngine::fingerprint`](distctr::core::NodeEngine::fingerprint)
//! hashes a canonical sorted rendering of an engine's protocol state, and
//! `combined_fingerprint` folds a fleet's fingerprints with its crash
//! pattern into one value. The goldens below were captured from the
//! simulator when the engine still kept its nodes in `HashMap`s, on the
//! same seeded workloads, for requested sizes n ∈ {2, 4, 8, 81}. They pin
//! three things at once:
//!
//! * the engine's storage: the arena slots that replaced the maps must be
//!   observationally invisible;
//! * the engine's protocol: any change to forwarding, reply caches,
//!   retirement handoffs, shims, dead-letter purging, pool-successor
//!   promotion, rebuild-share collection or pending buffers moves them;
//! * the shared-memory driver: `ShmTreeCounter` replaces only the
//!   transport (a global FIFO pumped to quiescence per operation), so it
//!   must leave the engines exactly where the simulator's unit-delay
//!   network does. It has no crash injection, so only the fault-free
//!   family applies to it.
//!
//! The fault-free test also pins the ledger: the arena's per-processor
//! loads, retirements and shim forwards equal the simulator's, at every
//! size of the golden table and at n = 1024, since one effect loop
//! realizes both drivers' effects.

use distctr::check::combined_fingerprint;
use distctr::core::{NodeRef, PoolPolicy, TreeCounter};
use distctr::shm::ShmTreeCounter;
use distctr::sim::{Counter, FaultPlan, ProcessorId};

/// Golden `(n, fingerprint)` pairs of the fault-free workload.
const FAULT_FREE_GOLDEN: [(usize, u64); 4] = [
    (2, 0xdcd6_1044_5dfd_084c),
    (4, 0xb767_abdb_91fd_63cb),
    (8, 0x8cf2_8883_1bdc_ee95),
    (81, 0x9aaf_5c99_4bcf_0fdc),
];

/// Golden `(n, fingerprint)` pairs of the crash-plan workload.
const CRASH_PLAN_GOLDEN: [(usize, u64); 4] = [
    (2, 0x4869_e449_551d_1edd),
    (4, 0xd90d_eef9_d8f0_b35f),
    (8, 0x99cd_78df_41a5_face),
    (81, 0x6166_6536_9a02_2c87),
];

/// The fault-free workload on `procs` processors: `n` incs (initiators
/// `i % procs`, ascending), the one halfway being a batch of 3.
fn fault_free_ops(n: usize, procs: usize) -> impl Iterator<Item = (ProcessorId, u64)> {
    (0..n).map(move |i| (ProcessorId::new(i % procs), if i == n / 2 { 3 } else { 1 }))
}

/// Folds a fleet's engine fingerprints and its crashed processors.
fn folded(fps: &[u64], crashed: &[ProcessorId]) -> u64 {
    let mut down = vec![false; fps.len()];
    for p in crashed {
        down[p.index()] = true;
    }
    combined_fingerprint(fps, &down)
}

fn assert_golden(driver: &str, golden: &[(usize, u64)], fingerprint: impl Fn(usize) -> u64) {
    for &(n, want) in golden {
        let got = fingerprint(n);
        assert_eq!(got, want, "n={n}: {driver} fingerprint {got:#018x} diverged from {want:#018x}");
    }
}

/// The fault-free workload run to completion on the simulator.
fn fault_free_sim(n: usize) -> TreeCounter {
    let mut c = TreeCounter::new(n).expect("counter");
    for (p, count) in fault_free_ops(n, c.processors()) {
        if count == 1 { c.inc(p) } else { c.inc_batch(p, count) }.expect("inc");
    }
    c
}

/// The fault-free workload run to completion on the shared-memory arena.
fn fault_free_shm(n: usize) -> ShmTreeCounter {
    let mut c = ShmTreeCounter::new(n).expect("arena");
    for (p, count) in fault_free_ops(n, c.processors()) {
        if count == 1 { c.inc(p) } else { c.inc_batch(p, count) }.expect("inc");
    }
    c
}

/// `(n, max load, retirements, shim forwards)` of the fault-free
/// workload, which the simulator and the arena must both report.
const FAULT_FREE_LEDGER: [(usize, u64, u64, u64); 5] =
    [(2, 10, 0, 0), (4, 33, 2, 2), (8, 33, 4, 4), (81, 52, 37, 6), (1024, 68, 604, 102)];

#[test]
fn fault_free_fingerprints_match_the_pre_refactor_backend() {
    assert_golden("simulator fault-free", &FAULT_FREE_GOLDEN, |n| {
        folded(&fault_free_sim(n).engine_fingerprints(), &[])
    });
    // The served driver's ledger is the simulator's, processor for
    // processor: the same effect loop realizes both.
    for (n, max_load, retirements, shim_forwards) in FAULT_FREE_LEDGER {
        let (sim, shm) = (fault_free_sim(n), fault_free_shm(n));
        let sim_retirements: u64 = sim.audit().retirements_by_level().iter().sum();
        assert_eq!(shm.loads(), sim.loads().to_vec(), "n={n}: per-processor loads");
        assert_eq!(shm.retirements(), sim_retirements, "n={n}: retirements");
        assert_eq!(shm.shim_forwards(), sim.audit().shim_forwards(), "n={n}: shim forwards");
        assert_eq!(
            (sim.loads().max_load(), sim_retirements, sim.audit().shim_forwards()),
            (max_load, retirements, shim_forwards),
            "n={n}: the recorded ledger"
        );
    }
}

/// The crash-plan workload: `n` fault-tolerant unit incs; halfway, the
/// root's current worker crashes and every later op runs through the
/// recovery watchdog.
#[test]
fn crash_plan_fingerprints_match_the_pre_refactor_backend() {
    assert_golden("simulator crash-plan", &CRASH_PLAN_GOLDEN, |n| {
        // Recycling pools keep the crash recoverable at every size: the
        // victim may be the last member of a one-shot pool.
        let mut c = TreeCounter::builder(n)
            .expect("builder")
            .pool(PoolPolicy::Recycling)
            .faults(FaultPlan::new(0))
            .build()
            .expect("counter");
        let procs = c.processors();
        for i in 0..n {
            if i == n / 2 {
                let victim = c.worker_of(NodeRef::ROOT);
                c.crash(victim);
            }
            c.inc_fault_tolerant(ProcessorId::new(i % procs)).expect("fault-tolerant inc");
        }
        folded(&c.engine_fingerprints(), &c.crashed_processors())
    });
}

#[test]
fn shm_driver_fingerprints_match_the_simulator_goldens() {
    assert_golden("shm fault-free", &FAULT_FREE_GOLDEN, |n| {
        folded(&fault_free_shm(n).engine_fingerprints(), &[])
    });
}
