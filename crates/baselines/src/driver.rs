//! The one simulated-counter driver every message-passing baseline rides.
//!
//! A baseline is a protocol — an automaton reacting to deliveries — plus
//! the three things that differ between baselines: its name, how an
//! `inc` enters it at its initiator, and the buffer its replies land in
//! ([`CounterProtocol`]). [`SimCounter`] is the scheduler around it,
//! written once: it injects each `inc`, runs the network to quiescence
//! (or to a deadline), closes the op's trace and matches replies to ops.
//! Each baseline's counter type is an alias, e.g.
//! [`CentralCounter`](crate::CentralCounter) `= SimCounter<CentralState>`.
//!
//! Every counter implements [`Counter`]; a protocol opts into
//! [`ConcurrentCounter`] and [`OverlappedCounter`] with the marker traits
//! [`ConcurrentProtocol`] and [`OverlappedProtocol`].

use distctr_sim::{
    CompletedOp, ConcurrentCounter, Counter, IncResult, LoadTracker, Network, OpId,
    OverlappedCounter, ProcessorId, Protocol, SimError, SimTime,
};

/// A value delivered to an initiator: the op it answers, when the protocol
/// knows it, the receiving processor, and the value.
pub type Delivered = (Option<OpId>, ProcessorId, u64);

/// How an `inc` enters a protocol at its initiator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry<M> {
    /// The initiator sends the op's first message to a processor.
    Send(ProcessorId, M),
    /// The initiator answers at once with this value, sending nothing.
    Local(u64),
}

/// A baseline counter's protocol: what the driver needs beyond
/// [`Protocol`].
pub trait CounterProtocol: Protocol {
    /// The counter's short stable name ([`Counter::name`]).
    const NAME: &'static str;

    /// Starts an `inc` at `initiator` (a processor of the network).
    fn enter(&mut self, initiator: ProcessorId) -> Entry<Self::Msg>;

    /// The replies delivered to initiators so far, in delivery order.
    fn delivered(&mut self) -> &mut Vec<Delivered>;
}

/// Protocols whose counter runs batches of concurrent `inc`s.
pub trait ConcurrentProtocol: CounterProtocol {}

/// Protocols whose counter runs overlapped `inc`s under time control.
pub trait OverlappedProtocol: CounterProtocol {}

/// A baseline counter: protocol `P` driven on a simulated network.
#[derive(Debug, Clone)]
pub struct SimCounter<P: CounterProtocol> {
    pub(crate) net: Network<P::Msg>,
    pub(crate) state: P,
    next_op: usize,
    overlapped: Vec<(OpId, ProcessorId)>,
}

impl<P: CounterProtocol> SimCounter<P> {
    pub(crate) fn from_parts(net: Network<P::Msg>, state: P) -> Self {
        SimCounter { net, state, next_op: 0, overlapped: Vec::new() }
    }

    fn check(&self, p: ProcessorId) -> Result<(), SimError> {
        if p.index() >= self.net.processors() {
            return Err(SimError::UnknownProcessor {
                index: p.index(),
                processors: self.net.processors(),
            });
        }
        Ok(())
    }

    /// Starts one `inc` under the next op id; a local answer is recorded
    /// as the op's reply.
    fn start(&mut self, initiator: ProcessorId) -> OpId {
        let op = OpId::new(self.next_op);
        self.next_op += 1;
        match self.state.enter(initiator) {
            Entry::Send(to, msg) => self.net.inject(op, initiator, to, msg),
            Entry::Local(value) => self.state.delivered().push((Some(op), initiator, value)),
        }
        op
    }
}

/// Takes the reply to `op` at `initiator`: the one marked with `op`, else
/// the first unclaimed unmarked one there. Combining and diffracting
/// replies are unmarked: they travel in a partner's envelope.
fn claim(replies: &mut Vec<Delivered>, op: OpId, initiator: ProcessorId) -> u64 {
    let pos = replies
        .iter()
        .position(|&(o, _, _)| o == Some(op))
        .or_else(|| replies.iter().position(|&(o, at, _)| o.is_none() && at == initiator))
        .expect("every initiator receives a value before quiescence");
    replies.swap_remove(pos).2
}

impl<P: CounterProtocol> Counter for SimCounter<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn processors(&self) -> usize {
        self.net.processors()
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<IncResult, SimError> {
        self.check(initiator)?;
        // The reply buffer is emptied, not taken: its allocation serves
        // the next `inc` too.
        self.state.delivered().clear();
        let op = self.start(initiator);
        let stats = self.net.run_to_quiescence(&mut self.state)?;
        let trace = self.net.finish_op(op);
        let value = claim(self.state.delivered(), op, initiator);
        Ok(IncResult { value, messages: stats.delivered, completed_at: stats.end_time, trace })
    }

    fn loads(&self) -> &LoadTracker {
        self.net.loads()
    }
}

impl<P: ConcurrentProtocol> ConcurrentCounter for SimCounter<P> {
    fn inc_batch(&mut self, initiators: &[ProcessorId]) -> Result<Vec<u64>, SimError> {
        for &p in initiators {
            self.check(p)?;
        }
        self.state.delivered().clear();
        let ops: Vec<OpId> = initiators.iter().map(|&p| self.start(p)).collect();
        self.net.run_to_quiescence(&mut self.state)?;
        let values = ops.into_iter().zip(initiators).map(|(op, &p)| {
            self.net.finish_op(op);
            claim(self.state.delivered(), op, p)
        });
        Ok(values.collect())
    }
}

impl<P: OverlappedProtocol> OverlappedCounter for SimCounter<P> {
    fn start_inc(&mut self, initiator: ProcessorId) -> Result<OpId, SimError> {
        self.check(initiator)?;
        let op = self.start(initiator);
        self.overlapped.push((op, initiator));
        Ok(op)
    }

    fn advance_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        self.net.run_until(&mut self.state, deadline)?;
        Ok(())
    }

    fn finish_all(&mut self) -> Result<Vec<CompletedOp>, SimError> {
        self.net.run_to_quiescence(&mut self.state)?;
        let mut replies = std::mem::take(self.state.delivered());
        let mut completed = Vec::with_capacity(self.overlapped.len());
        for (op, initiator) in std::mem::take(&mut self.overlapped) {
            let trace = self
                .net
                .finish_op(op)
                .expect("overlapped execution requires per-op tracing (TraceMode::Contacts)");
            completed.push(CompletedOp {
                op,
                initiator,
                value: claim(&mut replies, op, initiator),
                started_at: trace.started_at,
                completed_at: trace.completed_at,
            });
        }
        Ok(completed)
    }
}
