//! The discrete-event network engine.
//!
//! A [`Network`] delivers messages between `n` processors according to a
//! [`DeliveryPolicy`], charging every send and receive to the
//! [`LoadTracker`] and (optionally) recording per-operation traces.
//! Protocol logic lives outside the network in a [`Protocol`]
//! implementation: a state machine that reacts to deliveries by emitting
//! further messages into an [`Outbox`].

use std::collections::VecDeque;
use std::fmt;

use crate::error::SimError;
use crate::fault::{FaultEvent, FaultPlan, FaultState, FaultStats};
use crate::id::{OpId, ProcessorId};
use crate::load::LoadTracker;
use crate::policy::DeliveryPolicy;
use crate::queue::{Envelope, EventQueue};
use crate::time::SimTime;
use crate::trace::{OpTrace, TraceMode, TraceRecorder};

/// Default cap on deliveries per [`Network::run_to_quiescence`] call;
/// hitting it means the protocol almost certainly livelocks.
pub const DEFAULT_MESSAGE_CAP: u64 = 1 << 30;

/// The bound on messages queued at once in a network of `processors`: a
/// run whose queue reaches it stops with [`SimError::Livelock`]. The
/// delivery cap bounds time, not memory — a message that circles while
/// the fault plan duplicates it grows the queue geometrically long before
/// that cap.
const fn queue_bound(processors: usize) -> usize {
    64 * processors + (1 << 16)
}

/// How many trailing deliveries and pending heads a
/// [`SimError::Livelock`] report captures.
const LIVELOCK_RECENT: usize = 4;

/// A distributed protocol: the state of all processors plus the reaction
/// to message deliveries.
///
/// The protocol owns every processor's local state (the simulator is
/// single-threaded, so a single struct holding a vector of per-processor
/// states is both simple and fast). The network calls
/// [`Protocol::on_deliver`] once per delivered message; any messages the
/// handler emits through the [`Outbox`] are sent *by the receiving
/// processor* (`out.me()`).
pub trait Protocol {
    /// The protocol's message type.
    type Msg: Clone + fmt::Debug;

    /// Handles delivery of `msg` from `from` to `out.me()`.
    fn on_deliver(&mut self, out: &mut Outbox<'_, Self::Msg>, from: ProcessorId, msg: Self::Msg);
}

/// The sending side of one delivery: each message the handling processor
/// emits goes straight to the network's event queue, charged to the
/// sender at once.
pub struct Outbox<'a, M> {
    me: ProcessorId,
    op: OpId,
    /// The delivery's DAG event, which every send of the handler leaves
    /// from (under [`TraceMode::Full`]).
    event: Option<u32>,
    sent: usize,
    net: &'a mut Network<M>,
}

impl<M: Clone + fmt::Debug> Outbox<'_, M> {
    /// The processor currently handling a delivery.
    #[must_use]
    pub fn me(&self) -> ProcessorId {
        self.me
    }

    /// The operation the delivered message belongs to.
    #[must_use]
    pub fn op(&self) -> OpId {
        self.op
    }

    /// Simulated time of the delivery being handled (protocols with
    /// timer logic stamp deadlines relative to this).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// Sends `msg` from [`Outbox::me`] to `to`. Delivery time is chosen by
    /// the network's policy; the send is charged to `me` immediately.
    ///
    /// # Panics
    ///
    /// Panics if `to` is outside the network.
    pub fn send(&mut self, to: ProcessorId, msg: M) {
        self.net.check_processor(to);
        self.net.schedule_send(self.op, self.me, to, msg, self.event);
        self.sent += 1;
    }

    /// Number of messages sent while handling this delivery so far.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.sent
    }
}

impl<M> fmt::Debug for Outbox<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Outbox")
            .field("me", &self.me)
            .field("op", &self.op)
            .field("now", &self.net.now)
            .field("sent", &self.sent)
            .finish_non_exhaustive()
    }
}

/// Statistics of one call to [`Network::run_to_quiescence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Messages delivered during the call.
    pub delivered: u64,
    /// Simulated time at quiescence.
    pub end_time: SimTime,
}

/// An asynchronous message-passing network of `n` processors.
///
/// See the crate-level docs for a complete example.
#[derive(Debug, Clone)]
pub struct Network<M> {
    processors: usize,
    queue: EventQueue<M>,
    policy: DeliveryPolicy,
    loads: LoadTracker,
    recorder: TraceRecorder,
    now: SimTime,
    seq: u64,
    message_cap: u64,
    faults: Option<FaultState>,
}

impl<M: Clone + fmt::Debug> Network<M> {
    /// Creates a network of `processors` processors with FIFO delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `processors == 0`.
    pub fn new(processors: usize, trace: TraceMode) -> Result<Self, SimError> {
        Self::with_policy(processors, trace, DeliveryPolicy::default())
    }

    /// Creates a network with an explicit delivery policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `processors == 0`.
    pub fn with_policy(
        processors: usize,
        trace: TraceMode,
        policy: DeliveryPolicy,
    ) -> Result<Self, SimError> {
        if processors == 0 {
            return Err(SimError::EmptyNetwork);
        }
        Ok(Network {
            processors,
            queue: EventQueue::new(),
            policy,
            loads: LoadTracker::new(processors),
            recorder: TraceRecorder::new(trace),
            now: SimTime::ZERO,
            seq: 0,
            message_cap: DEFAULT_MESSAGE_CAP,
            faults: None,
        })
    }

    /// Creates a network with an explicit delivery policy and a seeded
    /// [`FaultPlan`]. Every probabilistic fault decision comes from the
    /// plan's own RNG, so the run replays exactly from
    /// `(policy, plan)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if `processors == 0`, or
    /// [`SimError::UnknownProcessor`] if the plan schedules a crash for
    /// a processor outside the network.
    pub fn with_faults(
        processors: usize,
        trace: TraceMode,
        policy: DeliveryPolicy,
        plan: FaultPlan,
    ) -> Result<Self, SimError> {
        let mut net = Self::with_policy(processors, trace, policy)?;
        for point in &plan.crashes {
            if point.processor.index() >= processors {
                return Err(SimError::UnknownProcessor {
                    index: point.processor.index(),
                    processors,
                });
            }
        }
        net.faults = Some(FaultState::new(plan, processors));
        Ok(net)
    }

    /// Number of processors.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// The per-processor load accounting so far.
    #[must_use]
    pub fn loads(&self) -> &LoadTracker {
        &self.loads
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Messages currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Whether no messages are in flight.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Replaces the livelock-protection cap on deliveries per run call.
    pub fn set_message_cap(&mut self, cap: u64) {
        self.message_cap = cap.max(1);
    }

    /// The fault plan in force, if the network was built with one.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(FaultState::plan)
    }

    /// Every fault injected so far, in order (empty without a plan).
    #[must_use]
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.as_ref().map_or(&[], FaultState::log)
    }

    /// Aggregate fault counts (all zero without a plan).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map_or_else(FaultStats::default, FaultState::stats)
    }

    /// Whether `p` has crashed.
    #[must_use]
    pub fn is_crashed(&self, p: ProcessorId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.is_crashed(p))
    }

    /// The processors that have crashed so far, in index order.
    #[must_use]
    pub fn crashed_processors(&self) -> Vec<ProcessorId> {
        self.faults.as_ref().map_or_else(Vec::new, FaultState::crashed_processors)
    }

    /// Crashes `p` immediately: its pending inbox is discarded as dead
    /// letters and later sends to it are dropped on the floor. Works
    /// with or without a configured [`FaultPlan`] (tests use this to
    /// stage precise crash scenarios without probability machinery).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the network.
    pub fn crash(&mut self, p: ProcessorId) {
        self.check_processor(p);
        let faults =
            self.faults.get_or_insert_with(|| FaultState::new(FaultPlan::new(0), self.processors));
        if faults.mark_crashed(p, self.now) {
            for (rank, env) in self.queue.drain_for(p) {
                faults.note_dead_letter(env.op, env.from, env.to, rank.at);
            }
        }
    }

    /// Injects the first message of operation `op`: `from` (the initiator
    /// or a processor acting for it) sends `msg` to `to`. Begins trace
    /// recording for `op` if it is not already open.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is outside the network — sending to an
    /// unknown processor is a protocol bug, not a recoverable condition.
    pub fn inject(&mut self, op: OpId, from: ProcessorId, to: ProcessorId, msg: M) {
        self.check_processor(from);
        self.check_processor(to);
        // The recorder's open op holds its trace source; with tracing off
        // it opens nothing, so the injection path allocates nothing.
        let source = if self.recorder.is_open(op) {
            self.recorder.record_contact(op, from);
            self.recorder.source(op)
        } else {
            self.recorder.begin_op(op, from, self.now)
        };
        self.schedule_send(op, from, to, msg, source);
    }

    /// Delivers messages until none are in flight, handing each to
    /// `protocol`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] (with delivery and queue
    /// diagnostics) if more than the configured cap of messages is
    /// delivered in this single call, or once 64 messages per processor
    /// plus 2^16 are queued at once.
    pub fn run_to_quiescence<P: Protocol<Msg = M>>(
        &mut self,
        protocol: &mut P,
    ) -> Result<RunStats, SimError> {
        self.run_while(protocol, None)
    }

    /// Delivers every message due at or before `deadline`, then advances
    /// the clock to `deadline` (simulated time passes even if nothing was
    /// in flight). Messages scheduled after `deadline` stay queued —
    /// this is how overlapping-operation schedules are constructed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] (with delivery and queue
    /// diagnostics) if more than the configured cap of messages is
    /// delivered in this single call, or once 64 messages per processor
    /// plus 2^16 are queued at once.
    pub fn run_until<P: Protocol<Msg = M>>(
        &mut self,
        protocol: &mut P,
        deadline: SimTime,
    ) -> Result<RunStats, SimError> {
        let stats = self.run_while(protocol, Some(deadline))?;
        self.now = self.now.max_with(deadline);
        Ok(stats)
    }

    fn run_while<P: Protocol<Msg = M>>(
        &mut self,
        protocol: &mut P,
        deadline: Option<SimTime>,
    ) -> Result<RunStats, SimError> {
        let queue_cap = queue_bound(self.processors);
        let mut delivered: u64 = 0;
        let mut recent: VecDeque<String> = VecDeque::new();
        loop {
            self.apply_due_crashes();
            match self.queue.peek_rank() {
                None => break,
                Some(rank) if deadline.is_some_and(|d| rank.at > d) => break,
                Some(_) => {}
            }
            let queued = self.queue.len();
            if delivered >= self.message_cap || queued >= queue_cap {
                return Err(SimError::Livelock {
                    cap: if queued >= queue_cap { queue_cap as u64 } else { self.message_cap },
                    delivered,
                    queue_depth: queued,
                    recent_deliveries: recent.into_iter().collect(),
                    next_pending: self.queue.head_summaries(LIVELOCK_RECENT),
                });
            }
            let (rank, env) = self.queue.pop().expect("peeked nonempty");
            // Messages whose recipient crashed after they were queued are
            // discarded, never delivered (the scheduled-crash path purges
            // the inbox eagerly; this covers direct `crash` calls racing
            // a deadline-bounded run).
            if let Some(faults) = &mut self.faults {
                if faults.is_crashed(env.to) {
                    faults.note_dead_letter(env.op, env.from, env.to, rank.at);
                    continue;
                }
            }
            delivered += 1;
            self.now = self.now.max_with(rank.at);
            self.loads.record_receive(env.to);
            if let Some(faults) = &mut self.faults {
                faults.note_delivered();
            }
            if delivered + LIVELOCK_RECENT as u64 > self.message_cap {
                if recent.len() == LIVELOCK_RECENT {
                    recent.pop_front();
                }
                recent.push_back(format!(
                    "{} {} -> {} ({}): {:?}",
                    rank.at, env.from, env.to, env.op, env.msg
                ));
            }
            let event = self.recorder.record_delivery(
                env.op,
                env.from,
                env.to,
                env.sent_from_event,
                self.now,
            );
            let mut outbox = Outbox { me: env.to, op: env.op, event, sent: 0, net: self };
            protocol.on_deliver(&mut outbox, env.from, env.msg);
        }
        Ok(RunStats { delivered, end_time: self.now })
    }

    /// Applies every scheduled crash whose delivery threshold has been
    /// reached, purging the downed processors' inboxes as dead letters.
    fn apply_due_crashes(&mut self) {
        let Some(faults) = &mut self.faults else { return };
        for p in faults.take_due_crashes(self.now) {
            for (rank, env) in self.queue.drain_for(p) {
                faults.note_dead_letter(env.op, env.from, env.to, rank.at);
            }
        }
    }

    /// Ends trace recording for `op`, returning what was recorded (always
    /// `None` under [`TraceMode::Off`]).
    pub fn finish_op(&mut self, op: OpId) -> Option<OpTrace> {
        self.recorder.finish_op(op)
    }

    fn schedule_send(
        &mut self,
        op: OpId,
        from: ProcessorId,
        to: ProcessorId,
        msg: M,
        sent_from_event: Option<u32>,
    ) {
        self.loads.record_send(from);
        self.recorder.record_send(op);
        if let Some(faults) = &mut self.faults {
            // Fault decisions happen at send time: the sender has paid
            // for the send either way.
            if faults.is_crashed(to) {
                faults.note_dead_letter(op, from, to, self.now);
                return;
            }
            if faults.roll_drop() {
                faults.note_drop(op, from, to, self.now);
                return;
            }
            if faults.roll_dup() {
                let rank = self.policy.schedule(
                    self.now,
                    self.seq,
                    from.index() as u32,
                    to.index() as u32,
                );
                self.seq += 1;
                faults.note_dup(op, from, to, rank.at);
                self.queue.push(rank, Envelope { from, to, op, msg: msg.clone(), sent_from_event });
            }
        }
        let rank = self.policy.schedule(self.now, self.seq, from.index() as u32, to.index() as u32);
        self.seq += 1;
        self.queue.push(rank, Envelope { from, to, op, msg, sent_from_event });
    }

    fn check_processor(&self, p: ProcessorId) {
        assert!(
            p.index() < self.processors,
            "processor {p} out of range for a network of {} processors",
            self.processors
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    /// A relay ring: processor i forwards a token to i+1 until it has made
    /// `hops` hops.
    #[derive(Clone)]
    struct Ring {
        n: usize,
    }
    impl Protocol for Ring {
        type Msg = u32; // remaining hops
        fn on_deliver(&mut self, out: &mut Outbox<'_, u32>, _from: ProcessorId, hops: u32) {
            if hops > 0 {
                let next = (out.me().index() + 1) % self.n;
                out.send(p(next), hops - 1);
            }
        }
    }

    #[test]
    fn token_ring_loads_and_time() {
        let mut net = Network::new(4, TraceMode::Full).expect("net");
        let op = OpId::new(0);
        net.inject(op, p(0), p(1), 6);
        let stats = net.run_to_quiescence(&mut Ring { n: 4 }).expect("quiesce");
        assert_eq!(stats.delivered, 7, "inject + 6 forwards");
        assert_eq!(stats.end_time, SimTime::from_ticks(7), "unit delays");
        // 7 messages, each charged to one sender and one receiver.
        assert_eq!(net.loads().total_messages(), 7);
        // Every processor touched: ring of 4 over 7 hops -> loads 3..4.
        assert_eq!(net.loads().max_load(), 4);
        let trace = net.finish_op(op).expect("trace recorded");
        assert_eq!(trace.messages, 7);
        assert_eq!(trace.contacts.len(), 4);
        let dag = trace.dag.expect("full trace");
        assert_eq!(dag.arc_count(), 7);
        assert_eq!(dag.sources().len(), 1);
    }

    /// Processor 1 answers the injected message (payload 0) with three
    /// sends, to 2, 3 and 0 in that order; processor 2 forwards its one
    /// to 3. Every delivery is logged as `(from, to, payload)`.
    #[derive(Default)]
    struct Fanout {
        delivered: Vec<(usize, usize, u32)>,
        /// `Outbox::pending` before and after each send of the fan-out.
        pending: Vec<usize>,
    }
    impl Protocol for Fanout {
        type Msg = u32;
        fn on_deliver(&mut self, out: &mut Outbox<'_, u32>, from: ProcessorId, msg: u32) {
            self.delivered.push((from.index(), out.me().index(), msg));
            match msg {
                0 => {
                    self.pending.push(out.pending());
                    for (to, payload) in [(2, 10), (3, 11), (0, 12)] {
                        out.send(p(to), payload);
                        self.pending.push(out.pending());
                    }
                }
                10 => out.send(p(3), 20),
                _ => {}
            }
        }
    }

    #[test]
    fn sends_of_one_delivery_are_scheduled_in_send_order() {
        let cases = [
            (DeliveryPolicy::Fifo, [(0, 1, 0), (1, 2, 10), (1, 3, 11), (1, 0, 12), (2, 3, 20)], 3),
            (DeliveryPolicy::Lifo, [(0, 1, 0), (1, 0, 12), (1, 3, 11), (1, 2, 10), (2, 3, 20)], 3),
            // The fan-out's first send (the script's second delay) stalls
            // until t = 6, so the other two overtake it.
            (
                DeliveryPolicy::scripted([1, 5, 1, 1]),
                [(0, 1, 0), (1, 3, 11), (1, 0, 12), (1, 2, 10), (2, 3, 20)],
                7,
            ),
        ];
        for (policy, expected, end) in cases {
            let label = format!("{policy:?}");
            let mut net = Network::with_policy(4, TraceMode::Full, policy).expect("net");
            let mut fanout = Fanout::default();
            net.inject(OpId::new(0), p(0), p(1), 0);
            let stats = net.run_to_quiescence(&mut fanout).expect("quiesce");
            assert_eq!(fanout.delivered, expected, "{label}");
            assert_eq!(fanout.pending, [0, 1, 2, 3], "{label}");
            assert_eq!(stats, RunStats { delivered: 5, end_time: SimTime::from_ticks(end) });
            assert_eq!(net.loads().to_vec(), [2, 4, 2, 2], "{label}");
            let trace = net.finish_op(OpId::new(0)).expect("trace");
            assert_eq!((trace.messages, trace.contacts.len()), (5, 4), "{label}");
            assert_eq!(trace.dag.expect("full trace").arc_count(), 5, "{label}");
        }
    }

    #[test]
    fn an_injection_into_an_open_op_adds_its_sender_to_the_contacts() {
        for mode in [TraceMode::Contacts, TraceMode::Full] {
            let mut net = Network::new(6, mode).expect("net");
            let op = OpId::new(3);
            // A chain 0 -> 1 -> 2 -> 3.
            net.inject(op, p(0), p(1), 2);
            net.run_to_quiescence(&mut Ring { n: 6 }).expect("quiesce");
            // A retry from processor 5, which the op has not contacted.
            net.inject(op, p(5), p(4), 0);
            net.run_to_quiescence(&mut Ring { n: 6 }).expect("quiesce");
            let trace = net.finish_op(op).expect("trace");
            assert_eq!(trace.messages, 4, "{mode:?}");
            assert_eq!(trace.contacts, (0..6).map(p).collect(), "{mode:?}");
        }
    }

    #[test]
    fn quiescent_network_runs_are_empty() {
        let mut net: Network<u32> = Network::new(1, TraceMode::Off).expect("net");
        assert!(net.is_quiescent());
        let stats = net.run_to_quiescence(&mut Ring { n: 1 }).expect("quiesce");
        assert_eq!(stats.delivered, 0);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn zero_processors_rejected() {
        assert_eq!(Network::<u32>::new(0, TraceMode::Off).unwrap_err(), SimError::EmptyNetwork);
    }

    #[test]
    fn message_cap_detects_livelock() {
        /// Ping-pong forever.
        #[derive(Clone)]
        struct Forever;
        impl Protocol for Forever {
            type Msg = ();
            fn on_deliver(&mut self, out: &mut Outbox<'_, ()>, from: ProcessorId, (): ()) {
                out.send(from, ());
            }
        }
        let mut net = Network::new(2, TraceMode::Off).expect("net");
        net.set_message_cap(100);
        net.inject(OpId::new(0), p(0), p(1), ());
        let err = net.run_to_quiescence(&mut Forever).unwrap_err();
        match err {
            SimError::Livelock { cap, delivered, queue_depth, recent_deliveries, next_pending } => {
                assert_eq!(cap, 100);
                assert_eq!(delivered, 100);
                assert_eq!(queue_depth, 1, "the ping-pong message is still in flight");
                assert_eq!(recent_deliveries.len(), 4, "last few deliveries captured");
                assert_eq!(next_pending.len(), 1);
                assert!(
                    recent_deliveries.iter().all(|s| s.contains("op0")),
                    "summaries name the op: {recent_deliveries:?}"
                );
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn a_queue_that_outgrows_its_bound_is_a_livelock() {
        /// Every delivery sends two messages: the queue grows by one per
        /// delivery and the run never quiesces.
        struct Doubling;
        impl Protocol for Doubling {
            type Msg = ();
            fn on_deliver(&mut self, out: &mut Outbox<'_, ()>, from: ProcessorId, (): ()) {
                out.send(from, ());
                out.send(from, ());
            }
        }
        let mut net = Network::new(2, TraceMode::Off).expect("net");
        net.inject(OpId::new(0), p(0), p(1), ());
        let err = net.run_to_quiescence(&mut Doubling).unwrap_err();
        let bound = 64 * 2 + (1 << 16);
        match err {
            SimError::Livelock { cap, delivered, queue_depth, .. } => {
                assert_eq!(queue_depth, bound);
                assert_eq!(cap, bound as u64);
                assert_eq!(delivered, bound as u64 - 1, "one more queued per delivery");
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_unknown_processor_panics() {
        let mut net: Network<u32> = Network::new(2, TraceMode::Off).expect("net");
        net.inject(OpId::new(0), p(0), p(7), 1);
    }

    #[test]
    fn policies_agree_on_loads() {
        // Loads are delay-independent: run the same protocol under every
        // policy and compare load vectors.
        let mut reference: Option<Vec<u64>> = None;
        for policy in DeliveryPolicy::test_suite() {
            let mut net = Network::with_policy(5, TraceMode::Contacts, policy).expect("net");
            net.inject(OpId::new(0), p(0), p(1), 9);
            net.run_to_quiescence(&mut Ring { n: 5 }).expect("quiesce");
            let loads = net.loads().to_vec();
            match &reference {
                None => reference = Some(loads),
                Some(r) => assert_eq!(&loads, r, "loads must not depend on delivery policy"),
            }
        }
    }

    #[test]
    fn trace_contacts_only_has_no_dag() {
        let mut net = Network::new(3, TraceMode::Contacts).expect("net");
        let op = OpId::new(5);
        net.inject(op, p(0), p(1), 2);
        net.run_to_quiescence(&mut Ring { n: 3 }).expect("quiesce");
        let t = net.finish_op(op).expect("trace");
        assert!(t.dag.is_none());
        assert_eq!(t.contacts.len(), 3);
    }

    #[test]
    fn multiple_ops_attribute_contacts_separately() {
        let mut net = Network::new(6, TraceMode::Contacts).expect("net");
        let a = OpId::new(0);
        let b = OpId::new(1);
        net.inject(a, p(0), p(1), 0);
        net.inject(b, p(3), p(4), 0);
        net.run_to_quiescence(&mut Ring { n: 6 }).expect("quiesce");
        let ta = net.finish_op(a).expect("a");
        let tb = net.finish_op(b).expect("b");
        assert!(ta.contacts.contains(p(0)) && ta.contacts.contains(p(1)));
        assert!(!ta.contacts.contains(p(3)));
        assert!(tb.contacts.contains(p(3)) && tb.contacts.contains(p(4)));
        assert!(!tb.contacts.contains(p(0)));
    }

    #[test]
    fn finished_ops_leave_no_per_op_state_behind() {
        let mut net = Network::new(3, TraceMode::Contacts).expect("net");
        for i in 0..10_000 {
            let op = OpId::new(i);
            net.inject(op, p(i % 3), p((i + 1) % 3), 1);
            net.run_to_quiescence(&mut Ring { n: 3 }).expect("quiesce");
            assert_eq!(net.finish_op(op).expect("trace").contacts.len(), 3);
        }
        assert_eq!(net.recorder.open_ops(), 0, "no op is held once finished");
    }

    #[test]
    fn reinjecting_an_open_op_keeps_its_trace_source() {
        let mut net = Network::new(4, TraceMode::Full).expect("net");
        let op = OpId::new(0);
        net.inject(op, p(0), p(1), 0);
        net.run_to_quiescence(&mut Ring { n: 4 }).expect("quiesce");
        // A retry injected while the op is still open joins its trace.
        net.inject(op, p(2), p(3), 0);
        net.run_to_quiescence(&mut Ring { n: 4 }).expect("quiesce");
        let trace = net.finish_op(op).expect("trace");
        assert_eq!((trace.initiator, trace.messages), (p(0), 2));
        let dag = trace.dag.expect("full trace");
        assert_eq!(dag.sources().len(), 1, "both sends hang off the one initiation event");
        assert_eq!(dag.arc_count(), 2);
    }

    #[test]
    fn clock_is_monotone_across_runs() {
        let mut net = Network::new(2, TraceMode::Off).expect("net");
        net.inject(OpId::new(0), p(0), p(1), 0);
        let s1 = net.run_to_quiescence(&mut Ring { n: 2 }).expect("run");
        net.inject(OpId::new(1), p(0), p(1), 0);
        let s2 = net.run_to_quiescence(&mut Ring { n: 2 }).expect("run");
        assert!(s2.end_time >= s1.end_time);
    }

    #[test]
    fn run_until_delivers_only_due_messages_and_advances_clock() {
        let mut net = Network::new(4, TraceMode::Contacts).expect("net");
        let op = OpId::new(0);
        net.inject(op, p(0), p(1), 6); // 7 unit-delay hops total
        let stats = net.run_until(&mut Ring { n: 4 }, SimTime::from_ticks(3)).expect("runs");
        assert_eq!(stats.delivered, 3, "hops due by t=3");
        assert_eq!(net.in_flight(), 1, "the rest stays queued");
        assert_eq!(net.now(), SimTime::from_ticks(3));
        // Time passes even with nothing due.
        let stats = net.run_until(&mut Ring { n: 4 }, SimTime::from_ticks(3)).expect("runs");
        assert_eq!(stats.delivered, 0);
        let _ = net.run_until(&mut Ring { n: 4 }, SimTime::from_ticks(10)).expect("runs");
        assert!(net.is_quiescent());
        assert_eq!(net.now(), SimTime::from_ticks(10));
        let trace = net.finish_op(op).expect("trace");
        assert_eq!(trace.started_at, SimTime::ZERO);
        assert_eq!(trace.completed_at, SimTime::from_ticks(7), "last delivery stamped");
    }

    #[test]
    fn scripted_policy_stalls_a_chosen_message() {
        let mut net = Network::with_policy(3, TraceMode::Off, DeliveryPolicy::scripted([1, 50]))
            .expect("net");
        net.inject(OpId::new(0), p(0), p(1), 2); // 3 sends total
        let stats = net.run_until(&mut Ring { n: 3 }, SimTime::from_ticks(10)).expect("runs");
        assert_eq!(stats.delivered, 1, "second hop is stalled until t=51");
        net.run_to_quiescence(&mut Ring { n: 3 }).expect("drains");
        assert_eq!(net.now(), SimTime::from_ticks(52), "1 + 50 + 1");
    }

    #[test]
    fn dropped_messages_charge_the_sender_only() {
        // drop_prob = 1: the injected message is lost; sender charged,
        // receiver untouched, fault logged.
        let plan = FaultPlan::new(11).drop_prob(1.0);
        let mut net =
            Network::with_faults(2, TraceMode::Off, DeliveryPolicy::Fifo, plan).expect("net");
        net.inject(OpId::new(0), p(0), p(1), 3);
        let stats = net.run_to_quiescence(&mut Ring { n: 2 }).expect("quiesce");
        assert_eq!(stats.delivered, 0);
        assert_eq!(net.loads().load_of(p(0)), 1, "send was charged");
        assert_eq!(net.loads().load_of(p(1)), 0);
        assert_eq!(net.fault_stats().drops, 1);
        assert!(matches!(net.fault_log()[0], FaultEvent::Dropped { .. }));
    }

    #[test]
    fn duplicated_messages_deliver_twice() {
        let plan = FaultPlan::new(11).dup_prob(1.0);
        let mut net =
            Network::with_faults(2, TraceMode::Off, DeliveryPolicy::Fifo, plan).expect("net");
        // hops = 0: the token stops at p(1), so only the injected send
        // duplicates.
        net.inject(OpId::new(0), p(0), p(1), 0);
        let stats = net.run_to_quiescence(&mut Ring { n: 2 }).expect("quiesce");
        assert_eq!(stats.delivered, 2, "original + duplicate");
        assert_eq!(net.loads().load_of(p(0)), 1, "one send charged");
        assert_eq!(net.loads().load_of(p(1)), 2, "two receives charged");
        assert_eq!(net.fault_stats().dups, 1);
    }

    #[test]
    fn scheduled_crash_dead_letters_the_inbox() {
        // p(2) crashes after the very first delivery; the ring token dies
        // when it reaches p(2)'s inbox.
        let plan = FaultPlan::new(0).crash(p(2), 1);
        let mut net =
            Network::with_faults(3, TraceMode::Off, DeliveryPolicy::Fifo, plan).expect("net");
        net.inject(OpId::new(0), p(0), p(1), 9);
        let stats = net.run_to_quiescence(&mut Ring { n: 3 }).expect("quiesce");
        assert_eq!(stats.delivered, 1, "p(1) got the token; the forward to p(2) died");
        assert!(net.is_crashed(p(2)));
        assert_eq!(net.crashed_processors(), vec![p(2)]);
        assert_eq!(net.fault_stats().dead_letters, 1);
        assert!(net.is_quiescent(), "dead letters drain the queue");
    }

    #[test]
    fn direct_crash_purges_pending_messages() {
        let mut net = Network::new(4, TraceMode::Off).expect("net");
        net.inject(OpId::new(0), p(0), p(1), 6);
        net.crash(p(1));
        let stats = net.run_to_quiescence(&mut Ring { n: 4 }).expect("quiesce");
        assert_eq!(stats.delivered, 0, "inbox purged at crash time");
        assert_eq!(net.fault_stats().dead_letters, 1);
        assert_eq!(net.fault_stats().crashes, 1);
        // Sends to a dead processor after the crash are dead letters too.
        net.inject(OpId::new(1), p(0), p(1), 1);
        assert!(net.is_quiescent(), "nothing was enqueued");
        assert_eq!(net.fault_stats().dead_letters, 2);
    }

    #[test]
    fn fault_runs_replay_exactly_from_seed_and_plan() {
        let run = |policy_seed: u64, plan: FaultPlan| {
            let mut net = Network::with_faults(
                5,
                TraceMode::Off,
                DeliveryPolicy::random_delay(policy_seed, 8),
                plan,
            )
            .expect("net");
            for op in 0..20 {
                net.inject(OpId::new(op), p(op % 5), p((op + 1) % 5), 12);
                net.run_to_quiescence(&mut Ring { n: 5 }).expect("quiesce");
            }
            (net.loads().to_vec(), net.fault_log().to_vec(), net.fault_stats())
        };
        let plan = FaultPlan::new(0xFA11).drop_prob(0.1).dup_prob(0.05).crash(p(4), 60);
        let (loads_a, log_a, stats_a) = run(7, plan.clone());
        let (loads_b, log_b, stats_b) = run(7, plan.clone());
        assert_eq!(loads_a, loads_b, "same (seed, plan) => same loads");
        assert_eq!(log_a, log_b, "same (seed, plan) => same fault log");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.drops > 0 && stats_a.dups > 0, "faults actually fired: {stats_a:?}");
        let (_, log_c, _) = run(7, FaultPlan::new(0xFA12).drop_prob(0.1).dup_prob(0.05));
        assert_ne!(log_a, log_c, "a different fault seed gives a different run");
    }

    #[test]
    fn fault_plan_crash_out_of_range_is_rejected() {
        let plan = FaultPlan::new(0).crash(p(9), 1);
        let err =
            Network::<u32>::with_faults(3, TraceMode::Off, DeliveryPolicy::Fifo, plan).unwrap_err();
        assert_eq!(err, SimError::UnknownProcessor { index: 9, processors: 3 });
    }

    #[test]
    fn faults_do_not_perturb_delivery_delays() {
        // An inactive plan must leave the schedule identical to a
        // fault-free run: the fault RNG is separate from the policy RNG.
        let mut plain = Network::with_policy(3, TraceMode::Off, DeliveryPolicy::random_delay(5, 9))
            .expect("net");
        let mut faulty = Network::with_faults(
            3,
            TraceMode::Off,
            DeliveryPolicy::random_delay(5, 9),
            FaultPlan::new(123),
        )
        .expect("net");
        plain.inject(OpId::new(0), p(0), p(1), 20);
        faulty.inject(OpId::new(0), p(0), p(1), 20);
        let sp = plain.run_to_quiescence(&mut Ring { n: 3 }).expect("run");
        let sf = faulty.run_to_quiescence(&mut Ring { n: 3 }).expect("run");
        assert_eq!(sp, sf, "identical stats with an empty plan");
        assert_eq!(plain.loads().to_vec(), faulty.loads().to_vec());
    }

    #[test]
    fn cloned_network_diverges_independently() {
        let mut net = Network::new(3, TraceMode::Off).expect("net");
        net.inject(OpId::new(0), p(0), p(1), 1);
        let mut fork = net.clone();
        net.run_to_quiescence(&mut Ring { n: 3 }).expect("run");
        assert!(net.is_quiescent());
        assert_eq!(fork.in_flight(), 1, "fork kept the pending message");
        fork.run_to_quiescence(&mut Ring { n: 3 }).expect("run");
        assert_eq!(fork.loads().to_vec(), net.loads().to_vec());
    }
}
