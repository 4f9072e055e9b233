//! Regression sweep for crashes landing at the exact retirement-handoff
//! tick.
//!
//! The nastiest crash point in the protocol is *mid-handoff*: a node has
//! decided to retire, the state-bearing `HandoffFinal` is in flight to
//! the pool successor — and the successor is already dead, or dies the
//! moment it installs. The node's state left the old worker and never
//! (usably) arrived at the new one. The client watchdog's
//! stalled-handoff rescue (`promote_successors` in
//! `crates/core/src/client.rs`) must detect the still-open transfer at
//! quiescence and promote the *next* live pool member, rebuilt from the
//! node's neighbours and the persisted root object.
//!
//! Exhaustively sweeping the crash over **every** network-wide delivery
//! tick of the run guarantees the sweep hits the exact handoff tick (and
//! every other window) — no seed luck involved.

use distctr_core::client::TreeClient;
use distctr_core::{CounterObject, NodeRef};
use distctr_sim::{FaultPlan, ProcessorId, TraceMode};

/// The crash victim: P1 is the root pool's first successor for k = 2
/// (pool {0, 1, 2, 3}), so the first root retirement hands the root —
/// reply cache, counter object and all — straight at the crash.
const VICTIM: usize = 1;

/// Initiators avoiding the victim (a crashed initiator cannot receive
/// its response, which is a *different*, legitimate error).
const INITIATORS: [usize; 7] = [0, 2, 3, 4, 5, 6, 7];

fn client_with_crash_at(tick: u64) -> TreeClient<CounterObject> {
    TreeClient::<CounterObject>::builder(8)
        .expect("builder")
        .trace(TraceMode::Off)
        .faults(FaultPlan::new(0).crash(ProcessorId::new(VICTIM), tick))
        .build()
        .expect("client")
}

/// Per-operation delivery counts of the fault-free run — the sweep's
/// coordinate system.
fn baseline_messages() -> Vec<u64> {
    let mut baseline = TreeClient::<CounterObject>::builder(8)
        .expect("builder")
        .trace(TraceMode::Off)
        .build()
        .expect("client");
    let per_op: Vec<u64> = INITIATORS
        .iter()
        .map(|&p| baseline.invoke(ProcessorId::new(p), ()).expect("baseline inc").messages)
        .collect();
    assert!(
        baseline.audit().retirements_by_level().iter().sum::<u64>() >= 1,
        "the workload must actually cross a retirement for the sweep to mean anything"
    );
    assert_eq!(
        baseline.worker_of(NodeRef::ROOT),
        ProcessorId::new(VICTIM),
        "fault-free, the first root retirement hands off to the victim — \
         so some crash tick in the sweep lands on that handoff"
    );
    per_op
}

#[test]
fn crash_at_every_delivery_tick_keeps_values_sequential() {
    let total: u64 = baseline_messages().iter().sum();

    // The sweep: crash the victim at every delivery tick of the run
    // (plus slack past the end for the fault-free tail). Wherever the
    // tick lands — before the retirement, mid-handoff, right after the
    // install, in the cascade's tail — every operation must still return
    // its sequential value, and one further operation must find (or
    // repair to) a live root worker.
    let mut rescued_ticks = 0usize;
    for tick in 0..=total + 2 {
        let mut client = client_with_crash_at(tick);
        for (expected, &p) in INITIATORS.iter().enumerate() {
            let v = client
                .invoke_fault_tolerant(ProcessorId::new(p), ())
                .unwrap_or_else(|e| panic!("tick {tick}, initiator P{p}: {e}"))
                .value;
            assert_eq!(v, expected as u64, "crash of P{VICTIM} at delivery tick {tick}");
        }
        // One more op: if the crash landed in the last cascade's tail
        // (after the final response), this is the op that discovers the
        // dead or half-installed root worker and rescues it.
        let extra = client
            .invoke_fault_tolerant(ProcessorId::new(0), ())
            .unwrap_or_else(|e| panic!("tick {tick}, post-crash op: {e}"))
            .value;
        assert_eq!(extra, INITIATORS.len() as u64, "tick {tick}: post-crash op value");
        let root_worker = client.worker_of(NodeRef::ROOT);
        assert!(
            !client.is_crashed(root_worker),
            "tick {tick}: the root's worker {root_worker} is dead after a repairing op"
        );
        // The rescue's fingerprint: the root's worker skipped past the
        // corpse to a higher pool member.
        if root_worker.index() > VICTIM {
            rescued_ticks += 1;
        }
    }
    assert!(
        rescued_ticks > 0,
        "no crash tick in 0..={} exercised the promote-past-dead-successor rescue",
        total + 2
    );
}

#[test]
fn crash_inside_the_retirement_cascade_window_is_rescued() {
    // Pin the narrow window directly. The baseline tells us which op
    // triggers the first retirement cascade (its delivery count jumps
    // above the plain climb) and which delivery ticks the cascade spans;
    // a crash at *any* tick inside that span lands between the
    // retirement decision and the cascade's last message — including the
    // tick where the state-bearing final is exactly in flight.
    let per_op = baseline_messages();
    let plain = *per_op.iter().min().expect("non-empty");
    let cascade_op = per_op.iter().position(|&m| m > plain).expect("a cascade op exists");
    let window_start: u64 = per_op[..cascade_op].iter().sum();
    let window_end: u64 = window_start + per_op[cascade_op];

    for tick in window_start + 1..=window_end {
        let mut client = client_with_crash_at(tick);
        // Drive up to and including the cascade-triggering op: its value
        // must come back even though its own cascade is being shot at.
        for (expected, &p) in INITIATORS.iter().take(cascade_op + 1).enumerate() {
            let v = client
                .invoke_fault_tolerant(ProcessorId::new(p), ())
                .unwrap_or_else(|e| panic!("tick {tick}, initiator P{p}: {e}"))
                .value;
            assert_eq!(v, expected as u64, "tick {tick}");
        }
        // The next op walks into whatever the crash left behind — a
        // stalled handoff or a freshly-installed-then-killed root — and
        // must repair it on the spot.
        let next = client
            .invoke_fault_tolerant(ProcessorId::new(INITIATORS[cascade_op + 1]), ())
            .unwrap_or_else(|e| panic!("tick {tick}, rescue op: {e}"))
            .value;
        assert_eq!(next, cascade_op as u64 + 1, "tick {tick}: rescue op value");
        let root_worker = client.worker_of(NodeRef::ROOT);
        assert!(
            root_worker.index() > VICTIM,
            "tick {tick}: the rescue must promote the root past the dead successor, \
             found {root_worker}"
        );
        assert!(!client.is_crashed(root_worker), "tick {tick}: root worker alive");
    }
}
