//! The retirement tree as a shared-memory arena: the third
//! `NodeEngine` driver.
//!
//! The sim (`distctr-core`) drives engines through a virtual-time event
//! queue; `distctr-net` gives every processor an OS thread and a
//! channel. This driver keeps the sans-io protocol byte-for-byte — the
//! same [`NodeEngine`], the same [`Msg`] enum, the same effects — but
//! realizes delivery as **mailbox pushes on a shared arena**: every
//! processor slot is an engine behind a mutex plus a [`Mailbox`] of
//! envelopes, and whichever caller thread notices queued work CAS-claims
//! the mailbox and feeds the engine. There are no dedicated worker
//! threads at all; the calling threads *are* the processors, which is
//! the shared-memory reading of the paper's model (a processor computes
//! only when it has something to compute).
//!
//! Two drive modes share one delivery path:
//!
//! * **Sequential** (`&mut self`, the [`CounterBackend`] surface): one
//!   global FIFO work-list drains the cascade to quiescence after every
//!   operation — the same "enough time elapses between increments"
//!   regime as the sim, and deterministic, which is what lets the
//!   conformance suite pin this driver's final engine fingerprints to
//!   the sim's golden values.
//! * **Concurrent** ([`ShmTreeCounter::inc_shared`], the E26 bake-off
//!   surface): free-running threads push invokes and cooperatively pump
//!   every mailbox until their own reply lands. Exactness under this
//!   regime is exactly what the history checker asserts.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use distctr_core::engine::{
    seed_initial_hosting, AuditEvent, Effect, Effects, EngineConfig, Event, NodeEngine, PoolPolicy,
    VirtualTime,
};
use distctr_core::{kmath, CounterBackend, CounterObject, Msg, Topology};
use distctr_sim::ProcessorId;

use crate::error::ShmError;
use crate::mailbox::Mailbox;
use crate::pad::CachePadded;
use crate::sync::{hint, Arc, AtomicBool, AtomicI64, AtomicU64, Mutex, Ordering};

/// How long a concurrent operation may go without observing any arena
/// progress before it reports [`ShmError::Stalled`] instead of spinning
/// forever (a fault-free arena never stalls; this bounds CI damage if a
/// protocol bug ever black-holes a reply).
const STALL_AFTER: Duration = Duration::from_secs(30);

/// Entries the root keeps in its reply cache. This driver never retries
/// (deduplication is off), so nothing reads the cache; the cap bounds
/// what the root carries from handoff to handoff. It is at least 81, so
/// an n ≤ 81 canonical pass evicts nothing and its final engine state is
/// the sim's, entry for entry.
const REPLY_CACHE_CAP: usize = 256;

/// A message to a processor slot: one shared-protocol message, or a
/// driver-level invoke. Mirrors `distctr-net`'s `NetMsg`, minus the
/// transport control that has no meaning without per-processor threads.
#[derive(Debug, Clone)]
enum Envelope {
    /// A protocol message (counts toward the paper's per-processor
    /// message load).
    Protocol(Msg<CounterObject>),
    /// The slot's processor initiates one operation (not load).
    Invoke { op_seq: u64 },
    /// The slot's processor initiates a batch sharing one traversal.
    InvokeBatch { op_seq: u64, count: u64 },
}

impl Envelope {
    fn counts_as_load(&self) -> bool {
        matches!(self, Envelope::Protocol(_))
    }
}

/// Where a caller waits for its reply: written once by whichever thread
/// drains the replying engine, read by the operation's initiator.
#[derive(Debug)]
struct OpCell {
    done: AtomicBool,
    value: AtomicU64,
}

impl OpCell {
    fn new() -> Self {
        OpCell { done: AtomicBool::new(false), value: AtomicU64::new(0) }
    }
}

/// One processor slot: the protocol brain and its inbox.
#[derive(Debug)]
struct Slot {
    engine: Mutex<NodeEngine<CounterObject>>,
    mailbox: Mailbox<Envelope>,
    /// Protocol messages sent / received by this slot, padded so the
    /// bake-off's load accounting does not itself create false sharing.
    sent: CachePadded<AtomicU64>,
    received: CachePadded<AtomicU64>,
}

#[derive(Debug)]
struct Arena {
    topo: Arc<Topology>,
    slots: Vec<Slot>,
    /// Messages pushed but not yet fully handled (handler side effects
    /// included): zero exactly at quiescence, as in `distctr-net`.
    in_flight: AtomicI64,
    next_op: AtomicU64,
    pending: Mutex<HashMap<u64, Arc<OpCell>>>,
    retirements: AtomicU64,
    shim_forwards: AtomicU64,
    dead_letters: AtomicU64,
}

/// The retirement-tree counter on a shared-memory arena.
///
/// # Examples
///
/// ```
/// use distctr_shm::ShmTreeCounter;
/// use distctr_sim::ProcessorId;
///
/// # fn main() -> Result<(), distctr_shm::ShmError> {
/// let mut c = ShmTreeCounter::new(8)?;
/// assert_eq!(c.inc(ProcessorId::new(3))?, 0);
/// assert_eq!(c.inc(ProcessorId::new(5))?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShmTreeCounter {
    arena: Arc<Arena>,
}

impl ShmTreeCounter {
    /// Builds the arena for a tree of at least `n` processors (rounded
    /// up to `k^(k+1)` exactly like the other two drivers).
    ///
    /// # Errors
    ///
    /// [`ShmError::Order`] for invalid sizes.
    pub fn new(n: usize) -> Result<Self, ShmError> {
        if n == 0 {
            return Err(ShmError::Order("n must be at least 1".into()));
        }
        let k = kmath::order_for(n as u64);
        let topo = Arc::new(Topology::new(k).map_err(ShmError::Order)?);
        let processors = usize::try_from(topo.processors())
            .map_err(|_| ShmError::Order("n does not fit usize".into()))?;
        // The sim driver's regime: no retries are ever issued (sequential
        // mode waits, concurrent mode never resends), so deduplication
        // stays off — the configuration whose final state the conformance
        // goldens pin.
        let config = EngineConfig {
            threshold: Some(kmath::retirement_threshold(k)),
            pool_policy: PoolPolicy::OneShot,
            reply_cache_cap: REPLY_CACHE_CAP,
            dedupe: false,
            persist: false,
        };
        let mut engines: Vec<NodeEngine<CounterObject>> = (0..processors)
            .map(|i| NodeEngine::new(ProcessorId::new(i), Arc::clone(&topo), config))
            .collect();
        seed_initial_hosting(&topo, &mut engines, &CounterObject::new());
        let slots = engines
            .into_iter()
            .map(|engine| Slot {
                engine: Mutex::new(engine),
                mailbox: Mailbox::new(),
                sent: CachePadded::new(AtomicU64::new(0)),
                received: CachePadded::new(AtomicU64::new(0)),
            })
            .collect();
        Ok(ShmTreeCounter {
            arena: Arc::new(Arena {
                topo,
                slots,
                in_flight: AtomicI64::new(0),
                next_op: AtomicU64::new(0),
                pending: Mutex::new(HashMap::new()),
                retirements: AtomicU64::new(0),
                shim_forwards: AtomicU64::new(0),
                dead_letters: AtomicU64::new(0),
            }),
        })
    }

    /// Number of processor slots.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.arena.slots.len()
    }

    /// The tree order `k`.
    #[must_use]
    pub fn order(&self) -> u32 {
        self.arena.topo.order()
    }

    /// A second handle to the same arena, for concurrent callers of
    /// [`ShmTreeCounter::inc_shared`]. Sequential (`&mut`) operations
    /// must not run while clones are actively driving.
    #[must_use]
    pub fn share(&self) -> ShmTreeCounter {
        ShmTreeCounter { arena: Arc::clone(&self.arena) }
    }

    fn check_initiator(&self, p: ProcessorId) -> Result<(), ShmError> {
        if p.index() >= self.processors() {
            return Err(ShmError::UnknownProcessor {
                index: p.index(),
                processors: self.processors(),
            });
        }
        Ok(())
    }

    /// Registers an op cell, posts the envelope, and returns the cell.
    fn post(arena: &Arena, dest: usize, env: Envelope, op_seq: u64) -> Arc<OpCell> {
        let cell = Arc::new(OpCell::new());
        arena
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(op_seq, Arc::clone(&cell));
        arena.in_flight.fetch_add(1, Ordering::SeqCst);
        arena.slots[dest].mailbox.push(env);
        cell
    }

    /// Delivers one envelope to slot `dest`: feed the engine, realize
    /// the effects. `fx` is the caller's effect buffer, empty on entry
    /// and on return, so a pump allocates one per call rather than one
    /// per envelope. `on_send` observes every destination pushed to, so
    /// the sequential pump can keep its FIFO work-list exact; the
    /// concurrent pump passes a no-op and discovers work by scanning.
    fn deliver(
        arena: &Arena,
        dest: usize,
        env: Envelope,
        fx: &mut Effects<CounterObject>,
        on_send: &mut dyn FnMut(usize),
    ) {
        if env.counts_as_load() {
            arena.slots[dest].received.fetch_add(1, Ordering::Relaxed);
        }
        let event = match env {
            Envelope::Protocol(msg) => Event::Deliver { msg },
            Envelope::Invoke { op_seq } => Event::Invoke { op_seq, req: () },
            Envelope::InvokeBatch { op_seq, count } => {
                Event::InvokeBatch { op_seq, count, req: () }
            }
        };
        {
            let mut engine =
                arena.slots[dest].engine.lock().unwrap_or_else(PoisonError::into_inner);
            engine.on_event_into(event, VirtualTime::ZERO, fx);
        }
        for effect in fx.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    arena.slots[dest].sent.fetch_add(1, Ordering::Relaxed);
                    arena.in_flight.fetch_add(1, Ordering::SeqCst);
                    arena.slots[to.index()].mailbox.push(Envelope::Protocol(msg));
                    on_send(to.index());
                }
                Effect::Reply { op_seq, resp } => {
                    let cell = arena
                        .pending
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&op_seq);
                    match cell {
                        Some(cell) => {
                            cell.value.store(resp, Ordering::SeqCst);
                            cell.done.store(true, Ordering::SeqCst);
                        }
                        // A reply nobody is waiting for (an abandoned
                        // stalled op): account it rather than lose it
                        // silently.
                        None => {
                            arena.dead_letters.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Effect::Audit(AuditEvent::ShimForward) => {
                    arena.shim_forwards.fetch_add(1, Ordering::Relaxed);
                }
                Effect::Audit(AuditEvent::Retirement { .. }) => {
                    arena.retirements.fetch_add(1, Ordering::Relaxed);
                }
                Effect::Audit(AuditEvent::Lost) => {
                    arena.dead_letters.fetch_add(1, Ordering::Relaxed);
                }
                // Timers are the watchdog's tool; without fault
                // injection nothing ever fires them. Registry and
                // persistence effects have no shared-memory observer.
                Effect::SetTimer { .. }
                | Effect::CancelTimer { .. }
                | Effect::Retired { .. }
                | Effect::Installed { .. }
                | Effect::RecoveryStarted { .. }
                | Effect::Recovered { .. }
                | Effect::Persist { .. }
                | Effect::Audit(_) => {}
            }
        }
        arena.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// The deterministic drive: post the envelope, then pump a global
    /// FIFO of (slot, envelope) work until the whole cascade has
    /// quiesced. FIFO order over a unit-delay mesh is exactly the sim's
    /// delivery order, which is what makes the final engine states —
    /// and hence the conformance fingerprints — line up.
    fn drive_sequential(
        &mut self,
        dest: usize,
        env: Envelope,
        op_seq: u64,
    ) -> Result<u64, ShmError> {
        let arena = &self.arena;
        let cell = Self::post(arena, dest, env, op_seq);
        let mut fifo = VecDeque::from([dest]);
        let mut fx = Vec::new();
        while let Some(d) = fifo.pop_front() {
            let Some(item) = arena.slots[d].mailbox.pop() else { continue };
            Self::deliver(arena, d, item, &mut fx, &mut |to| fifo.push_back(to));
        }
        if cell.done.load(Ordering::SeqCst) {
            Ok(cell.value.load(Ordering::SeqCst))
        } else {
            arena.pending.lock().unwrap_or_else(PoisonError::into_inner).remove(&op_seq);
            Err(ShmError::Stalled { op_seq })
        }
    }

    /// Executes one `inc` charged to `initiator`, deterministically,
    /// with full quiescence before returning (the paper's sequential
    /// regime).
    ///
    /// # Errors
    ///
    /// [`ShmError::UnknownProcessor`] for an out-of-range initiator;
    /// [`ShmError::Stalled`] if the reply never materializes (a
    /// protocol bug, never the fault-free path).
    pub fn inc(&mut self, initiator: ProcessorId) -> Result<u64, ShmError> {
        self.check_initiator(initiator)?;
        let op_seq = self.arena.next_op.fetch_add(1, Ordering::SeqCst);
        self.drive_sequential(initiator.index(), Envelope::Invoke { op_seq }, op_seq)
    }

    /// Executes a batch of `count` incs as one traversal, returning the
    /// start of the contiguous range `[first, first + count)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShmTreeCounter::inc`].
    pub fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, ShmError> {
        self.check_initiator(initiator)?;
        let count = count.max(1);
        let op_seq = self.arena.next_op.fetch_add(1, Ordering::SeqCst);
        self.drive_sequential(initiator.index(), Envelope::InvokeBatch { op_seq, count }, op_seq)
    }

    /// Drains whatever work slot `i` has queued; returns envelopes
    /// processed (0 if another thread holds the slot's drain right).
    fn drain_slot(arena: &Arena, i: usize) -> usize {
        let mut fx = Vec::new();
        arena.slots[i].mailbox.drain(|env| Self::deliver(arena, i, env, &mut fx, &mut |_| {}))
    }

    /// One cooperative pump pass over every slot; returns envelopes
    /// processed.
    fn pump(arena: &Arena) -> usize {
        let mut processed = 0;
        for i in 0..arena.slots.len() {
            if !arena.slots[i].mailbox.is_empty() {
                processed += Self::drain_slot(arena, i);
            }
        }
        processed
    }

    /// Executes one `inc` concurrently: posts the invoke and pumps the
    /// arena until this operation's reply lands, while any number of
    /// other threads do the same through [`ShmTreeCounter::share`]
    /// handles. No quiescence wait — cascades overlap freely, and the
    /// history checker owns the exactness argument.
    ///
    /// # Errors
    ///
    /// [`ShmError::UnknownProcessor`] for an out-of-range initiator;
    /// [`ShmError::Stalled`] after 30 s without progress.
    pub fn inc_shared(&self, initiator: ProcessorId) -> Result<u64, ShmError> {
        self.check_initiator(initiator)?;
        let arena = &self.arena;
        let op_seq = arena.next_op.fetch_add(1, Ordering::SeqCst);
        let cell = Self::post(arena, initiator.index(), Envelope::Invoke { op_seq }, op_seq);
        let mut idle_spins = 0u32;
        let mut idle_since: Option<Instant> = None;
        while !cell.done.load(Ordering::SeqCst) {
            if Self::pump(arena) > 0 {
                idle_spins = 0;
                idle_since = None;
                continue;
            }
            idle_spins += 1;
            if idle_spins.is_multiple_of(64) {
                crate::sync::thread::yield_now();
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= STALL_AFTER {
                    arena.pending.lock().unwrap_or_else(PoisonError::into_inner).remove(&op_seq);
                    return Err(ShmError::Stalled { op_seq });
                }
            } else {
                hint::spin_loop();
            }
        }
        Ok(cell.value.load(Ordering::SeqCst))
    }

    /// Pumps until the arena is quiescent: no queued envelopes and no
    /// in-flight accounting. Call after concurrent driving ends (all
    /// `inc_shared` callers returned) before reading fingerprints.
    pub fn quiesce(&self) {
        let arena = &self.arena;
        loop {
            let processed = Self::pump(arena);
            let busy = arena.in_flight.load(Ordering::SeqCst) != 0
                || arena.slots.iter().any(|s| !s.mailbox.is_empty());
            if processed == 0 && !busy {
                return;
            }
            if processed == 0 {
                crate::sync::thread::yield_now();
            }
        }
    }

    /// Per-processor message loads (sent + received), snapshot.
    #[must_use]
    pub fn loads(&self) -> Vec<u64> {
        self.arena
            .slots
            .iter()
            .map(|s| s.sent.load(Ordering::Relaxed) + s.received.load(Ordering::Relaxed))
            .collect()
    }

    /// The bottleneck load `m_b = max_p m_p` so far.
    #[must_use]
    pub fn bottleneck(&self) -> u64 {
        self.loads().into_iter().max().unwrap_or(0)
    }

    /// Total worker retirements so far.
    #[must_use]
    pub fn retirements(&self) -> u64 {
        self.arena.retirements.load(Ordering::Relaxed)
    }

    /// Messages forwarded by a retired worker's shim.
    #[must_use]
    pub fn shim_forwards(&self) -> u64 {
        self.arena.shim_forwards.load(Ordering::Relaxed)
    }

    /// Replies nobody was waiting for plus engine-reported losses.
    #[must_use]
    pub fn dead_letters(&self) -> u64 {
        self.arena.dead_letters.load(Ordering::Relaxed)
    }

    /// Snapshots every slot's engine fingerprint, in processor order.
    /// Meaningful at quiescence only (after sequential operations, or
    /// after [`ShmTreeCounter::quiesce`]) — this driver can lock the
    /// engines directly instead of round-tripping fingerprint messages.
    #[must_use]
    pub fn engine_fingerprints(&self) -> Vec<u64> {
        self.arena
            .slots
            .iter()
            .map(|s| s.engine.lock().unwrap_or_else(PoisonError::into_inner).fingerprint())
            .collect()
    }
}

impl CounterBackend for ShmTreeCounter {
    type Error = ShmError;

    fn processors(&self) -> usize {
        ShmTreeCounter::processors(self)
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error> {
        ShmTreeCounter::inc(self, initiator)
    }

    fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, Self::Error> {
        ShmTreeCounter::inc_batch(self, initiator, count)
    }

    fn bottleneck(&self) -> u64 {
        ShmTreeCounter::bottleneck(self)
    }

    fn retirements(&self) -> u64 {
        ShmTreeCounter::retirements(self)
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::sync::thread;

    #[test]
    fn counts_sequentially_like_the_other_drivers() {
        let mut c = ShmTreeCounter::new(8).expect("arena");
        assert_eq!(c.processors(), 8);
        assert_eq!(c.order(), 2);
        for i in 0..8 {
            assert_eq!(c.inc(ProcessorId::new(i)).expect("inc"), i as u64);
        }
        assert!(c.retirements() > 0, "retirement really happened on the arena");
        assert!(c.bottleneck() >= 2);
        assert_eq!(c.dead_letters(), 0);
    }

    #[test]
    fn rounds_up_like_the_simulator() {
        let c = ShmTreeCounter::new(50).expect("arena");
        assert_eq!(c.processors(), 81);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(ShmTreeCounter::new(0), Err(ShmError::Order(_))));
        let mut c = ShmTreeCounter::new(8).expect("arena");
        assert!(matches!(
            c.inc(ProcessorId::new(99)),
            Err(ShmError::UnknownProcessor { index: 99, .. })
        ));
    }

    #[test]
    fn batches_share_one_traversal_and_partition_the_range() {
        let mut c = ShmTreeCounter::new(8).expect("arena");
        assert_eq!(c.inc(ProcessorId::new(0)).expect("inc"), 0);
        let before: u64 = c.loads().iter().sum();
        assert_eq!(c.inc_batch(ProcessorId::new(1), 10).expect("batch"), 1, "owns [1, 11)");
        let cost: u64 = c.loads().iter().sum::<u64>() - before;
        assert!(cost < 20, "a batch of 10 moved {cost} messages, not ~10 traversals");
        assert_eq!(c.inc(ProcessorId::new(2)).expect("inc"), 11, "range fully consumed");
    }

    #[test]
    fn bottleneck_is_big_o_of_k() {
        let mut c = ShmTreeCounter::new(81).expect("arena");
        for i in 0..81 {
            c.inc(ProcessorId::new(i)).expect("inc");
        }
        let b = c.bottleneck();
        assert!(b >= 3, "lower bound k = 3: {b}");
        assert!(b <= 20 * 3, "O(k) bound: {b}");
    }

    #[test]
    fn the_root_reply_cache_stays_under_its_cap_over_ten_thousand_ops() {
        use distctr_core::NodeRef;
        let mut c = ShmTreeCounter::new(81).expect("arena");
        let root_cache_len = |c: &ShmTreeCounter| {
            c.arena
                .slots
                .iter()
                .find_map(|s| {
                    let engine = s.engine.lock().unwrap_or_else(PoisonError::into_inner);
                    engine.hosted(NodeRef::ROOT).map(|h| h.reply_cache.len())
                })
                .expect("quiescent: some processor works for the root")
        };
        let mut fullest = 0;
        for i in 0..10_000u64 {
            assert_eq!(c.inc(ProcessorId::new(i as usize % 81)).expect("inc"), i, "sequential");
            let len = root_cache_len(&c);
            assert!(len <= REPLY_CACHE_CAP, "op {i}: {len} cached replies");
            fullest = fullest.max(len);
        }
        assert_eq!(fullest, REPLY_CACHE_CAP, "the cap was reached, so eviction ran");
    }

    #[test]
    fn concurrent_callers_partition_the_range_exactly() {
        const THREADS: usize = 4;
        const PER: u64 = 25;
        let root = ShmTreeCounter::new(8).expect("arena");
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = root.share();
                thread::spawn(move || {
                    (0..PER)
                        .map(|_| c.inc_shared(ProcessorId::new(t * 2)).expect("inc"))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> =
            handles.into_iter().flat_map(|h| h.join().expect("caller")).collect();
        all.sort_unstable();
        let n = THREADS as u64 * PER;
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "gap-free under free-running threads");
        root.quiesce();
        assert_eq!(root.dead_letters(), 0);
    }

    #[test]
    fn sequential_and_shared_modes_interleave_cleanly() {
        let mut c = ShmTreeCounter::new(8).expect("arena");
        assert_eq!(c.inc(ProcessorId::new(0)).expect("inc"), 0);
        assert_eq!(c.inc_shared(ProcessorId::new(1)).expect("shared inc"), 1);
        c.quiesce();
        assert_eq!(c.inc(ProcessorId::new(2)).expect("inc"), 2);
    }
}
