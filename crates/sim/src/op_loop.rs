//! The one loop that schedules a simulated op, for the retirement tree
//! and every baseline alike.
//!
//! A simulated counter is a protocol — an automaton reacting to
//! deliveries — plus a scheduler. [`OpLoop`] is the scheduler, written
//! once; a counter supplies its protocol's [`OpProtocol`] side: what an
//! op returns and where its replies land.

use crate::counter::{CompletedOp, OpResult};
use crate::network::{Network, Protocol, RunStats};
use crate::trace::OpTrace;
use crate::{OpId, ProcessorId, SimError, SimTime};

/// A value delivered to an initiator: the op it answers, when the
/// protocol knows it, the receiving processor, and the value.
pub type Delivered<V> = (Option<OpId>, ProcessorId, V);

/// How an op enters a protocol at its initiator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry<M, V> {
    /// The initiator sends the op's first message to a processor.
    Send(ProcessorId, M),
    /// The initiator answers at once with this value, sending nothing.
    Local(V),
}

/// What [`OpLoop`] needs of a protocol beyond [`Protocol`].
pub trait OpProtocol: Protocol {
    /// What an op returns to its initiator.
    type Value;

    /// The replies delivered to initiators so far, in delivery order.
    fn delivered(&mut self) -> &mut Vec<Delivered<Self::Value>>;

    /// An op was opened; its entry goes in next.
    fn op_opened(&mut self) {}

    /// An op was closed, with or without its value.
    fn op_closed(&mut self) {}
}

/// Takes the reply to `op` at `initiator`: the one marked with `op`, else
/// the first unmarked one there. Combining and diffracting replies are
/// unmarked: they travel in a partner's envelope.
pub fn claim<V>(replies: &mut Vec<Delivered<V>>, op: OpId, initiator: ProcessorId) -> Option<V> {
    let pos = replies
        .iter()
        .position(|&(o, _, _)| o == Some(op))
        .or_else(|| replies.iter().position(|&(o, at, _)| o.is_none() && at == initiator))?;
    Some(replies.swap_remove(pos).2)
}

const UNANSWERED: &str = "every initiator receives a value before quiescence";

/// A protocol on its network, and the loop that runs its ops: each op is
/// opened (its initiator checked, numbered from 0), started (its entry
/// let in), run to quiescence, closed on either outcome, and claimed.
#[derive(Debug, Clone)]
pub struct OpLoop<P: OpProtocol> {
    /// The network the protocol runs on.
    pub net: Network<P::Msg>,
    /// The protocol: every processor's state.
    pub proto: P,
    opened: usize,
    /// Ops started and not yet settled.
    started: Vec<(OpId, ProcessorId)>,
}

impl<P: OpProtocol> OpLoop<P> {
    /// Runs `proto`'s ops on `net`.
    pub fn new(net: Network<P::Msg>, proto: P) -> Self {
        OpLoop { net, proto, opened: 0, started: Vec::with_capacity(1) }
    }

    /// Ops opened so far.
    #[must_use]
    pub fn opened(&self) -> usize {
        self.opened
    }

    fn check(&self, initiator: ProcessorId) -> Result<(), SimError> {
        let (index, processors) = (initiator.index(), self.net.processors());
        if index >= processors {
            return Err(SimError::UnknownProcessor { index, processors });
        }
        Ok(())
    }

    /// Opens the next op at `initiator`, its entry not yet in.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownProcessor`] if `initiator` is out of range.
    pub fn open(&mut self, initiator: ProcessorId) -> Result<OpId, SimError> {
        self.check(initiator)?;
        self.opened += 1;
        self.proto.op_opened();
        Ok(OpId::new(self.opened - 1))
    }

    /// Closes `op`, returning its trace if one was recorded and open.
    pub fn close(&mut self, op: OpId) -> Option<OpTrace> {
        self.proto.op_closed();
        self.net.finish_op(op)
    }

    /// Opens an op at `initiator` and lets in the entry `entry` builds,
    /// without running the network; [`OpLoop::finish_all`] settles it.
    ///
    /// # Errors
    ///
    /// As [`OpLoop::open`].
    pub fn start(
        &mut self,
        initiator: ProcessorId,
        entry: impl FnOnce(&mut P, OpId) -> Entry<P::Msg, P::Value>,
    ) -> Result<OpId, SimError> {
        let op = self.open(initiator)?;
        match entry(&mut self.proto, op) {
            Entry::Send(to, msg) => self.net.inject(op, initiator, to, msg),
            Entry::Local(value) => self.proto.delivered().push((Some(op), initiator, value)),
        }
        self.started.push((op, initiator));
        Ok(op)
    }

    /// Runs to quiescence, then closes each op started since the
    /// `from`th, whatever the outcome, and on success hands it to
    /// `settled` with its trace and claimed value.
    fn settle(
        &mut self,
        from: usize,
        mut settled: impl FnMut((OpId, ProcessorId), Option<OpTrace>, P::Value),
    ) -> Result<RunStats, SimError> {
        let run = self.net.run_to_quiescence(&mut self.proto);
        let mut started = std::mem::take(&mut self.started);
        for &(op, p) in &started[from..] {
            let trace = self.close(op);
            if run.is_ok() {
                settled((op, p), trace, claim(self.proto.delivered(), op, p).expect(UNANSWERED));
            }
        }
        started.truncate(from);
        self.started = started;
        run
    }

    /// Runs one op at `initiator`, its entry built by `entry`, to
    /// quiescence; panics if the op gets no value, a protocol bug.
    ///
    /// # Errors
    ///
    /// As [`OpLoop::open`], or [`SimError::Livelock`].
    pub fn run(
        &mut self,
        initiator: ProcessorId,
        entry: impl FnOnce(&mut P, OpId) -> Entry<P::Msg, P::Value>,
    ) -> Result<OpResult<P::Value>, SimError> {
        // Emptied, not taken: the buffer's allocation serves every op.
        self.proto.delivered().clear();
        let from = self.started.len();
        self.start(initiator, entry)?;
        let mut done = None;
        let stats = self.settle(from, |_, trace, value| done = Some((trace, value)))?;
        let (trace, value) = done.expect(UNANSWERED);
        Ok(OpResult { value, messages: stats.delivered, completed_at: stats.end_time, trace })
    }

    /// Runs one op per initiator at once, as [`OpLoop::run`], and returns
    /// their values in input order; none opens unless all initiators are
    /// in range.
    ///
    /// # Errors
    ///
    /// As [`OpLoop::run`].
    pub fn run_batch(
        &mut self,
        initiators: &[ProcessorId],
        mut entry: impl FnMut(&mut P, ProcessorId) -> Entry<P::Msg, P::Value>,
    ) -> Result<Vec<P::Value>, SimError> {
        initiators.iter().try_for_each(|&p| self.check(p))?;
        self.proto.delivered().clear();
        let (from, mut values) = (self.started.len(), Vec::with_capacity(initiators.len()));
        for &p in initiators {
            self.start(p, |proto, _| entry(proto, p))?;
        }
        self.settle(from, |_, _, value| values.push(value))?;
        Ok(values)
    }

    /// Delivers every message due by `deadline` and advances the clock
    /// to it.
    ///
    /// # Errors
    ///
    /// [`SimError::Livelock`] if the protocol livelocks.
    pub fn advance_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        self.net.run_until(&mut self.proto, deadline).map(drop)
    }
}

impl<P: OpProtocol<Value = u64>> OpLoop<P> {
    /// Settles every started op, as [`OpLoop::run`], and returns them in
    /// start order with their timings; panics if the network records no
    /// per-op traces.
    ///
    /// # Errors
    ///
    /// [`SimError::Livelock`] if the protocol livelocks.
    pub fn finish_all(&mut self) -> Result<Vec<CompletedOp>, SimError> {
        let mut completed = Vec::with_capacity(self.started.len());
        self.settle(0, |(op, initiator), trace, value| {
            let trace =
                trace.expect("overlapped execution requires per-op tracing (TraceMode::Contacts)");
            let (started_at, completed_at) = (trace.started_at, trace.completed_at);
            completed.push(CompletedOp { op, initiator, value, started_at, completed_at });
        })?;
        Ok(completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Outbox;
    use crate::trace::TraceMode;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    /// Processor 0 answers each request with the number of requests it
    /// answered before; a `Ping` bounces between two processors forever.
    #[derive(Debug, Default)]
    struct Echo {
        answered: u64,
        delivered: Vec<Delivered<u64>>,
        opened: u32,
        closed: u32,
    }

    #[derive(Debug, Clone)]
    enum EchoMsg {
        Request,
        Reply(u64),
        Ping,
    }

    impl Protocol for Echo {
        type Msg = EchoMsg;

        fn on_deliver(&mut self, out: &mut Outbox<'_, EchoMsg>, from: ProcessorId, msg: EchoMsg) {
            match msg {
                EchoMsg::Request => {
                    out.send(from, EchoMsg::Reply(self.answered));
                    self.answered += 1;
                }
                EchoMsg::Reply(value) => self.delivered.push((Some(out.op()), out.me(), value)),
                EchoMsg::Ping => out.send(from, EchoMsg::Ping),
            }
        }
    }

    impl OpProtocol for Echo {
        type Value = u64;

        fn delivered(&mut self) -> &mut Vec<Delivered<u64>> {
            &mut self.delivered
        }

        fn op_opened(&mut self) {
            self.opened += 1;
        }

        fn op_closed(&mut self) {
            self.closed += 1;
        }
    }

    fn echo(n: usize) -> OpLoop<Echo> {
        OpLoop::new(Network::new(n, TraceMode::Contacts).expect("net"), Echo::default())
    }

    fn request(_: &mut Echo, _: OpId) -> Entry<EchoMsg, u64> {
        Entry::Send(p(0), EchoMsg::Request)
    }

    fn ping(_: &mut Echo, _: OpId) -> Entry<EchoMsg, u64> {
        Entry::Send(p(0), EchoMsg::Ping)
    }

    #[test]
    fn an_op_is_numbered_run_closed_and_claimed() {
        let mut sim = echo(3);
        for i in 0..3 {
            let r = sim.run(p(2), request).expect("op");
            assert_eq!((r.value, r.messages), (i, 2));
            assert!(r.trace.expect("traced").contacts.contains(p(2)));
        }
        assert_eq!((sim.opened(), sim.proto.opened, sim.proto.closed), (3, 3, 3));
        let local = sim.run(p(1), |_, _| Entry::Local(7)).expect("op");
        assert_eq!((local.value, local.messages), (7, 0));
        assert_eq!(
            sim.run_batch(&[p(1), p(2)], |_, _| Entry::Send(p(0), EchoMsg::Request)),
            Ok(vec![3, 4])
        );
        sim.start(p(1), request).expect("started");
        sim.start(p(2), request).expect("started");
        let done = sim.finish_all().expect("finished");
        let values: Vec<(OpId, u64)> = done.iter().map(|c| (c.op, c.value)).collect();
        assert_eq!(values, [(OpId::new(6), 5), (OpId::new(7), 6)]);
        assert_eq!(sim.proto.closed, 8, "every op was closed once");
    }

    #[test]
    fn an_op_that_errors_closes_its_trace() {
        let mut sim = echo(2);
        sim.net.set_message_cap(10);
        let err = sim.run(p(1), ping).unwrap_err();
        assert!(matches!(err, SimError::Livelock { cap: 10, .. }), "{err:?}");
        assert!(sim.net.finish_op(OpId::new(0)).is_none(), "the loop closed the op");
        assert_eq!((sim.proto.opened, sim.proto.closed), (1, 1), "and the protocol saw it close");

        let err = sim.run_batch(&[p(0), p(1)], |_, _| Entry::Send(p(0), EchoMsg::Ping));
        assert!(matches!(err, Err(SimError::Livelock { .. })));
        assert_eq!((sim.proto.opened, sim.proto.closed), (3, 3), "a batch closes every op");

        sim.start(p(1), ping).expect("started");
        assert!(matches!(sim.finish_all(), Err(SimError::Livelock { .. })));
        assert_eq!((sim.proto.opened, sim.proto.closed), (4, 4), "an overlapped op is closed too");
        assert!(sim.finish_all().is_err(), "the pings still circle");
        assert_eq!(sim.proto.closed, 4, "nothing was left open to close twice");
    }

    #[test]
    fn an_unknown_initiator_opens_nothing() {
        let mut sim = echo(2);
        let unknown = SimError::UnknownProcessor { index: 2, processors: 2 };
        assert_eq!(sim.run(p(2), request).unwrap_err(), unknown);
        assert_eq!(sim.run_batch(&[p(0), p(2)], |_, _| Entry::Local(0)).unwrap_err(), unknown);
        assert_eq!(sim.start(p(2), request).unwrap_err(), unknown);
        assert_eq!(sim.open(p(2)).unwrap_err(), unknown);
        assert_eq!((sim.opened(), sim.proto.opened, sim.proto.closed), (0, 0, 0));
        assert!(sim.net.is_quiescent());
    }

    #[test]
    fn claim_prefers_the_marked_reply_then_an_unmarked_one_at_the_initiator() {
        let mut replies = vec![(None, p(1), 10), (Some(OpId::new(1)), p(1), 11), (None, p(2), 12)];
        assert_eq!(claim(&mut replies, OpId::new(1), p(1)), Some(11));
        assert_eq!(claim(&mut replies, OpId::new(2), p(2)), Some(12));
        assert_eq!(claim(&mut replies, OpId::new(3), p(3)), None);
        assert_eq!(claim(&mut replies, OpId::new(3), p(1)), Some(10));
        assert!(replies.is_empty());
    }
}
