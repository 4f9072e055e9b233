//! Integration tests of the simulator engine through its public API:
//! a multi-phase protocol exercised across every delivery policy, with
//! trace, load and timing accounting checked end to end.

use distctr_sim::{
    DeliveryPolicy, Network, OpId, Outbox, ProcessorId, Protocol, SimTime, TraceMode, Workload,
};

/// A scatter-gather protocol: the coordinator fans a request out to every
/// worker and collects one ack per worker; when all acks are in, it
/// notifies the initiator.
#[derive(Clone)]
struct ScatterGather {
    n: usize,
    acks: usize,
    done: Vec<ProcessorId>,
}

#[derive(Clone, Debug)]
enum SgMsg {
    Start { coordinator: usize },
    Work,
    Ack,
    Done,
}

impl Protocol for ScatterGather {
    type Msg = SgMsg;
    fn on_deliver(&mut self, out: &mut Outbox<'_, SgMsg>, from: ProcessorId, msg: SgMsg) {
        match msg {
            SgMsg::Start { coordinator } => {
                debug_assert_eq!(out.me().index(), coordinator);
                for w in 0..self.n {
                    if w != out.me().index() {
                        out.send(ProcessorId::new(w), SgMsg::Work);
                    }
                }
            }
            SgMsg::Work => out.send(from, SgMsg::Ack),
            SgMsg::Ack => {
                self.acks += 1;
                if self.acks == self.n - 1 {
                    out.send(out.me(), SgMsg::Done);
                }
            }
            SgMsg::Done => self.done.push(out.me()),
        }
    }
}

fn scatter_gather(n: usize) -> ScatterGather {
    ScatterGather { n, acks: 0, done: Vec::new() }
}

#[test]
fn scatter_gather_under_every_policy() {
    for policy in DeliveryPolicy::test_suite() {
        let n = 9usize;
        let mut net = Network::with_policy(n, TraceMode::Full, policy.clone()).expect("net");
        let op = OpId::new(0);
        let coordinator = ProcessorId::new(4);
        net.inject(op, coordinator, coordinator, SgMsg::Start { coordinator: 4 });
        let mut proto = scatter_gather(n);
        let stats = net.run_to_quiescence(&mut proto).expect("quiesces");
        // start + (n-1) work + (n-1) acks + done = 2n messages.
        assert_eq!(stats.delivered, 2 * n as u64, "policy {}", policy.name());
        assert_eq!(proto.done, vec![coordinator]);
        let trace = net.finish_op(op).expect("trace");
        assert_eq!(trace.contacts.len(), n, "everyone participated");
        assert_eq!(trace.messages, 2 * n as u64);
        let dag = trace.dag.expect("full trace");
        assert_eq!(dag.arc_count(), 2 * n);
        assert_eq!(dag.sources().len(), 1);
        // Coordinator load: 1 start recv + (n-1) sends + (n-1) ack recvs
        // + done send + done recv + start send (self-injection counts the
        // send at the coordinator too).
        assert_eq!(
            net.loads().load_of(coordinator),
            2 + 2 * (n as u64 - 1) + 2,
            "policy {}",
            policy.name()
        );
        // Every worker: 1 recv + 1 send.
        for w in 0..n {
            if w != 4 {
                assert_eq!(net.loads().load_of(ProcessorId::new(w)), 2);
            }
        }
    }
}

#[test]
fn timing_is_policy_dependent_but_counts_are_not() {
    let mut end_times = Vec::new();
    for policy in [DeliveryPolicy::Fifo, DeliveryPolicy::random_delay(5, 20)] {
        let mut net = Network::with_policy(5, TraceMode::Contacts, policy).expect("net");
        let op = OpId::new(0);
        net.inject(op, ProcessorId::new(0), ProcessorId::new(0), SgMsg::Start { coordinator: 0 });
        let mut proto = scatter_gather(5);
        let stats = net.run_to_quiescence(&mut proto).expect("quiesces");
        assert_eq!(stats.delivered, 10);
        end_times.push(stats.end_time);
    }
    assert_eq!(end_times[0], SimTime::from_ticks(4), "fifo: 4 synchronous rounds");
    assert!(end_times[1] > end_times[0], "random delays stretch wall time");
}

#[test]
fn workload_driven_contact_sets_compose() {
    // Drive one scatter-gather per initiator from a workload generator
    // and check per-op contact attribution stays separate.
    let n = 6usize;
    let mut net = Network::new(n, TraceMode::Contacts).expect("net");
    let mut proto = scatter_gather(n);
    for (i, p) in Workload::Identity.generate(n).into_iter().enumerate() {
        proto.acks = 0;
        let op = OpId::new(i);
        net.inject(op, p, p, SgMsg::Start { coordinator: p.index() });
        net.run_to_quiescence(&mut proto).expect("quiesces");
        let trace = net.finish_op(op).expect("trace");
        assert_eq!(trace.initiator, p);
        assert_eq!(trace.contacts.len(), n);
        assert!(trace.completed_at >= trace.started_at);
    }
    assert_eq!(proto.done.len(), n);
    // 2n messages per op, n ops.
    assert_eq!(net.loads().total_messages(), (2 * n * n) as u64);
}
