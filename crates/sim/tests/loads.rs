//! What the load ledger means, checked against a protocol that counts
//! its own traffic under drops, duplicates and a crash: the tracker
//! keeps one load per processor and one send total, so these identities
//! are all it promises.

use distctr_sim::{
    DeliveryPolicy, FaultPlan, LoadTracker, Network, OpId, Outbox, ProcessorId, Protocol, TraceMode,
};

const N: usize = 8;

/// A relay: a message with `ttl > 0` is passed on to two other
/// processors with `ttl - 1`. It records every send it makes and every
/// delivery it gets, per processor.
#[derive(Clone)]
struct Relay {
    sent: [u64; N],
    received: [u64; N],
}

impl Relay {
    fn new() -> Self {
        Relay { sent: [0; N], received: [0; N] }
    }

    /// Per-processor sends plus receives: the ledger `m_p` should keep.
    fn loads(&self) -> Vec<u64> {
        self.sent.iter().zip(&self.received).map(|(s, r)| s + r).collect()
    }

    fn sends(&self) -> u64 {
        self.sent.iter().sum()
    }

    fn deliveries(&self) -> u64 {
        self.received.iter().sum()
    }

    /// Injects one op at `from`, counted as `from`'s send, and runs it
    /// to quiescence.
    fn run_op(&mut self, net: &mut Network<u32>, op: usize, from: usize) {
        let from = ProcessorId::new(from);
        self.sent[from.index()] += 1;
        net.inject(OpId::new(op), from, ProcessorId::new((from.index() + 1) % N), 6);
        net.run_to_quiescence(self).expect("a relay quiesces");
        net.finish_op(OpId::new(op));
    }
}

impl Protocol for Relay {
    type Msg = u32;

    fn on_deliver(&mut self, out: &mut Outbox<'_, u32>, _from: ProcessorId, ttl: u32) {
        let me = out.me().index();
        self.received[me] += 1;
        if ttl == 0 {
            return;
        }
        for hop in [1, 3] {
            out.send(ProcessorId::new((me + hop) % N), ttl - 1);
            self.sent[me] += 1;
        }
    }
}

#[test]
fn the_ledger_counts_every_send_once_and_every_end_of_a_message_in_a_load() {
    let plan = FaultPlan::new(0x10AD).drop_prob(0.1).dup_prob(0.1).crash(ProcessorId::new(5), 150);
    let policy = DeliveryPolicy::random_delay(7, 5);
    let mut net = Network::with_faults(N, TraceMode::Off, policy, plan).expect("network");
    let mut relay = Relay::new();
    relay.run_op(&mut net, 0, 0);
    let first: LoadTracker = net.loads().clone();
    let before = relay.clone();
    for op in 1..4 {
        relay.run_op(&mut net, op, op);
    }
    let second = net.loads().clone();

    let faults = net.fault_stats();
    assert!(
        faults.drops > 0 && faults.dups > 0 && faults.crashes == 1 && faults.dead_letters > 0,
        "the plan dropped, duplicated, crashed and dead-lettered: {faults:?}"
    );
    // A dropped or dead-lettered send is still a send; a duplicate is
    // one send with two deliveries.
    assert_eq!(second.total_messages(), relay.sends(), "every send, undelivered ones included");
    assert!(relay.deliveries() != relay.sends(), "faults part sends from deliveries");
    let total_load: u64 = second.iter().map(|(_, load)| load).sum();
    assert_eq!(total_load, relay.sends() + relay.deliveries());
    assert_eq!(second.to_vec(), relay.loads(), "each processor's m_p");

    let span = second.delta_since(&first);
    let span_loads: Vec<u64> =
        relay.loads().iter().zip(before.loads()).map(|(now, then)| now - then).collect();
    assert_eq!(span.to_vec(), span_loads, "the loads of the three ops between the snapshots");
    assert_eq!(span.total_messages(), relay.sends() - before.sends());
}
