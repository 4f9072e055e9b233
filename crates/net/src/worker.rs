//! The worker-thread event loop.
//!
//! Each OS thread *is* one processor, but the thread itself decides
//! nothing about the protocol: it owns a [`NodeEngine`] — the same
//! sans-io state machine the simulator drives — and merely shuttles
//! events in and effects out. Receive a message, feed it to the engine,
//! realize the returned effects through the one effect loop, whose
//! transport here is the channel mesh (sends, driver replies) and whose
//! ledger is the worker's own [`Tally`]. All protocol knowledge is local to the
//! engine; node state genuinely migrates between threads inside handoff
//! messages — there is no shared map of "who serves what" anywhere.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crossbeam_channel::{Receiver, Sender};
use distctr_core::audit::Tally;
use distctr_core::engine::{Event, NodeEngine};
use distctr_core::protocol::{realize, Transport};
use distctr_core::{Msg, RootObject};
use distctr_sim::ProcessorId;

use crate::messages::NetMsg;

/// Shared accounting: per-processor sent/received counters and audit
/// tallies, and the global in-flight message count used for quiescence
/// detection.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) sent: Vec<AtomicU64>,
    pub(crate) received: Vec<AtomicU64>,
    pub(crate) in_flight: AtomicI64,
    /// Each worker's audit tally, locked once per step by its worker and
    /// summed by readers.
    pub(crate) tallies: Vec<Mutex<Tally>>,
    /// Messages abandoned because the destination thread was gone
    /// (crashed or already shut down) — the graceful replacement for the
    /// old `expect()` abort on a closed channel.
    pub(crate) dead_letters: AtomicU64,
}

impl Shared {
    pub(crate) fn new(n: usize) -> Self {
        Shared {
            sent: (0..n).map(|_| AtomicU64::new(0)).collect(),
            received: (0..n).map(|_| AtomicU64::new(0)).collect(),
            in_flight: AtomicI64::new(0),
            tallies: (0..n).map(|_| Mutex::new(Tally::default())).collect(),
            dead_letters: AtomicU64::new(0),
        }
    }

    /// `field` of the workers' tallies, summed.
    pub(crate) fn total(&self, field: impl Fn(&Tally) -> u64) -> u64 {
        self.tallies.iter().map(|t| field(&t.lock().unwrap_or_else(PoisonError::into_inner))).sum()
    }
}

pub(crate) struct Worker<O: RootObject> {
    pub(crate) me: ProcessorId,
    pub(crate) rx: Receiver<NetMsg<O>>,
    pub(crate) peers: Arc<Vec<Sender<NetMsg<O>>>>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) results: Sender<(u64, O::Response)>,
    /// The protocol brain: every routing, aging, retirement and recovery
    /// decision happens inside, never in this thread loop.
    pub(crate) engine: NodeEngine<O>,
    /// Set by [`NetMsg::Crash`]: a crashed processor has lost all hosted
    /// state and silently discards every message (fail-silent model). It
    /// keeps draining its channel so in-flight accounting — and hence
    /// quiescence detection — stays exact.
    pub(crate) crashed: bool,
}

impl<O: RootObject> Worker<O> {
    /// Sends `msg` to `to`, charging this processor's sent counter and
    /// the in-flight gauge (increment happens strictly before the send so
    /// quiescence can never be observed spuriously).
    ///
    /// A closed peer channel is *not* fatal: the message becomes a dead
    /// letter, the in-flight charge is rolled back (nothing will ever
    /// drain it), and this thread keeps running — a killed worker
    /// degrades the network, it no longer aborts it.
    fn send(&self, to: ProcessorId, msg: NetMsg<O>) {
        let load = msg.counts_as_load();
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.peers[to.index()].send(msg).is_err() {
            self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.shared.dead_letters.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if load {
            self.shared.sent[self.me.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The thread main loop: handle messages until `Shutdown`.
    pub(crate) fn run(mut self) {
        while let Ok(msg) = self.rx.recv() {
            let shutdown = matches!(msg, NetMsg::Shutdown);
            // A crashed processor does no work, so nothing it drains
            // counts toward the paper's per-processor load.
            if !self.crashed && msg.counts_as_load() {
                self.shared.received[self.me.index()].fetch_add(1, Ordering::Relaxed);
            }
            self.handle(msg);
            // The decrement strictly follows any sends made by the
            // handler, so in_flight only reaches 0 at true quiescence.
            self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            if shutdown {
                break;
            }
        }
    }

    fn handle(&mut self, msg: NetMsg<O>) {
        if let NetMsg::Fingerprint { reply } = msg {
            // Answered even when crashed: the reset engine plus the
            // crash flag the driver tracks *is* the processor's
            // observable protocol state.
            let _ = reply.send((self.me.index(), self.engine.fingerprint()));
            return;
        }
        if self.crashed {
            // Fail-silent: drain and discard everything except the
            // driver's shutdown (handled by `run`'s break).
            if matches!(msg, NetMsg::Protocol(Msg::Apply { .. } | Msg::Reply { .. })) {
                self.shared.dead_letters.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        match msg {
            NetMsg::Protocol(msg) => self.step(Event::Deliver { msg }),
            NetMsg::Start { op_seq, count, req } => {
                self.step(Event::InvokeBatch { op_seq, count, req });
            }
            NetMsg::Crash => {
                self.crashed = true;
                // All hosted node state dies with the processor: a fresh
                // engine has no hosting, forwarding, or pending buffers.
                self.engine.reset();
            }
            // Handled before the crashed guard above.
            NetMsg::Fingerprint { .. } => unreachable!("fingerprints answered eagerly"),
            NetMsg::Shutdown => {}
        }
    }

    /// Feeds one event to the engine and realizes its effects through
    /// the one effect loop: sends go out on the channel mesh, replies to
    /// the driver's result channel, audit events to this worker's tally.
    fn step(&mut self, event: Event<O>) {
        let mut fx = Vec::new();
        self.engine.on_event_into(event, &mut fx);
        let mut tally =
            self.shared.tallies[self.me.index()].lock().unwrap_or_else(PoisonError::into_inner);
        realize(self.me, &mut fx, &mut &*self, &mut *tally);
    }
}

/// The channel mesh as the effect loop's transport.
impl<O: RootObject> Transport<O> for &Worker<O> {
    fn send(&mut self, _from: ProcessorId, to: ProcessorId, msg: Msg<O>) {
        Worker::send(self, to, NetMsg::Protocol(msg));
    }

    fn complete(&mut self, op_seq: u64, resp: O::Response) {
        // The driver hung up (shutdown race): drop, don't abort.
        let _ = self.results.send((op_seq, resp));
    }
}
