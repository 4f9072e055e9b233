//! The simulated-counter type every message-passing baseline rides.
//!
//! A baseline is a protocol — an automaton reacting to deliveries, with
//! the buffer its replies land in ([`OpProtocol`]) — plus what differs
//! between baselines: its name and how an `inc` enters it at its
//! initiator ([`CounterProtocol`]). [`SimCounter`] holds the protocol on
//! its network in the simulator's one op loop ([`OpLoop`]), the loop the
//! retirement tree's client runs too. Each baseline's counter type is an
//! alias, e.g. [`CentralCounter`](crate::CentralCounter) `=
//! SimCounter<CentralState>`.
//!
//! Every counter implements [`Counter`]; a protocol opts into
//! [`ConcurrentCounter`] and [`OverlappedCounter`] with the marker traits
//! [`ConcurrentProtocol`] and [`OverlappedProtocol`].

use distctr_sim::{
    CompletedOp, ConcurrentCounter, Counter, IncResult, LoadTracker, Network, OpId, OpLoop,
    OverlappedCounter, ProcessorId, SimError, SimTime,
};
pub(crate) use distctr_sim::{Delivered, Entry, OpProtocol};

/// A baseline counter's protocol: what [`SimCounter`] needs beyond
/// [`OpProtocol`].
pub trait CounterProtocol: OpProtocol<Value = u64> {
    /// The counter's short stable name ([`Counter::name`]).
    const NAME: &'static str;

    /// Starts an `inc` at `initiator` (a processor of the network).
    fn enter(&mut self, initiator: ProcessorId) -> Entry<Self::Msg, u64>;
}

/// Protocols whose counter runs batches of concurrent `inc`s.
pub trait ConcurrentProtocol: CounterProtocol {}

/// Protocols whose counter runs overlapped `inc`s under time control.
pub trait OverlappedProtocol: CounterProtocol {}

/// A baseline counter: protocol `P` driven on a simulated network.
#[derive(Debug, Clone)]
pub struct SimCounter<P: CounterProtocol> {
    pub(crate) sim: OpLoop<P>,
}

impl<P: CounterProtocol> SimCounter<P> {
    pub(crate) fn from_parts(net: Network<P::Msg>, state: P) -> Self {
        SimCounter { sim: OpLoop::new(net, state) }
    }
}

impl<P: CounterProtocol> Counter for SimCounter<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn processors(&self) -> usize {
        self.sim.net.processors()
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<IncResult, SimError> {
        self.sim.run(initiator, |state, _| state.enter(initiator))
    }

    fn loads(&self) -> &LoadTracker {
        self.sim.net.loads()
    }
}

impl<P: ConcurrentProtocol> ConcurrentCounter for SimCounter<P> {
    fn inc_batch(&mut self, initiators: &[ProcessorId]) -> Result<Vec<u64>, SimError> {
        self.sim.run_batch(initiators, P::enter)
    }
}

impl<P: OverlappedProtocol> OverlappedCounter for SimCounter<P> {
    fn start_inc(&mut self, initiator: ProcessorId) -> Result<OpId, SimError> {
        self.sim.start(initiator, |state, _| state.enter(initiator))
    }

    fn advance_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        self.sim.advance_until(deadline)
    }

    fn finish_all(&mut self) -> Result<Vec<CompletedOp>, SimError> {
        self.sim.finish_all()
    }
}

#[cfg(test)]
mod tests {
    use distctr_core::object::FlipBitObject;
    use distctr_core::{CoreError, TreeClient, TreeCounter};
    use distctr_sim::{ConcurrentCounter, Counter, OverlappedCounter, ProcessorId, SimError};

    use crate::{
        ArrowCounter, CentralCounter, CombiningTreeCounter, CountingNetworkCounter,
        DiffractingTreeCounter,
    };

    /// An entry point's name and what it returned, as a `SimError`.
    type Case = (&'static str, Result<(), SimError>);

    fn sim<T>(name: &'static str, r: Result<T, SimError>) -> Case {
        (name, r.map(drop))
    }

    fn core<T>(name: &'static str, r: Result<T, CoreError>) -> Case {
        (
            name,
            r.map(drop).map_err(|e| match e {
                CoreError::Sim(e) => e,
                other => panic!("{name}: {other}"),
            }),
        )
    }

    fn concurrent<C: ConcurrentCounter>(c: &mut C, p: ProcessorId) -> [Case; 2] {
        [sim(c.name(), c.inc(p)), sim(c.name(), c.inc_batch(&[ProcessorId::new(0), p]))]
    }

    fn overlapped<C: ConcurrentCounter + OverlappedCounter>(
        c: &mut C,
        p: ProcessorId,
    ) -> [Case; 3] {
        let [inc, batch] = concurrent(c, p);
        [inc, batch, sim(c.name(), c.start_inc(p))]
    }

    #[test]
    fn every_entry_point_rejects_an_unknown_initiator_with_the_one_check() {
        let n = 8;
        let p = ProcessorId::new(n);
        let mut tree = TreeCounter::new(n).expect("tree");
        let mut bit = TreeClient::<FlipBitObject>::new(n).expect("flip bit");
        let mut cases = vec![
            sim("tree inc", tree.inc(p)),
            sim("tree inc_batch", tree.inc_batch(p, 4)),
            core("tree inc_fault_tolerant", tree.inc_fault_tolerant(p)),
            core("tree inc_batch_fault_tolerant", tree.inc_batch_fault_tolerant(p, 4)),
            sim("flip bit invoke", bit.invoke(p, ())),
            sim("arrow inc", ArrowCounter::new(n).expect("arrow").inc(p)),
        ];
        cases.extend(overlapped(&mut CentralCounter::new(n).expect("central"), p));
        cases.extend(overlapped(&mut CountingNetworkCounter::new(n, 4).expect("counting"), p));
        cases.extend(concurrent(&mut CombiningTreeCounter::new(n).expect("combining"), p));
        cases.extend(concurrent(&mut DiffractingTreeCounter::new(n, 2).expect("diffracting"), p));
        assert_eq!(cases.len(), 16);
        for (name, result) in cases {
            assert_eq!(
                result,
                Err(SimError::UnknownProcessor { index: n, processors: n }),
                "{name}"
            );
        }
        assert_eq!((tree.ops_executed(), tree.audit().ops_seen()), (0, 0), "no op was opened");
    }
}
