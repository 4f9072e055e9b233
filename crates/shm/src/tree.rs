//! The retirement tree as a shared-memory arena: the third
//! `NodeEngine` driver.
//!
//! The sim (`distctr-core`) drives engines through a virtual-time event
//! queue; `distctr-net` gives every processor an OS thread and a
//! channel. This driver keeps the sans-io protocol byte-for-byte — the
//! same [`NodeEngine`], the same [`Msg`] enum, the same effects — but
//! realizes delivery on a **shared arena**: every processor slot is an
//! engine behind a mutex plus a [`Mailbox`] of envelopes, and the
//! calling threads feed the engines. There are no dedicated worker
//! threads at all; the calling threads *are* the processors, which is
//! the shared-memory reading of the paper's model (a processor computes
//! only when it has something to compute).
//!
//! Two drive modes share the engines, their locks and their loads, and
//! differ in who schedules delivery:
//!
//! * **Sequential** (`&mut self`, the [`CounterBackend`] surface): the
//!   caller is the arena's only driver, so it needs no mailbox handoff
//!   and no op cell. It keeps one FIFO work-list of `(slot, message)`
//!   and drains the cascade to quiescence after every operation, taking
//!   the reply straight from the initiator's `complete` — the same
//!   "enough time elapses between increments" regime as the sim, and
//!   deterministic, which is what lets the conformance suite pin this
//!   driver's final engine fingerprints to the sim's golden values.
//! * **Concurrent** ([`ShmTreeCounter::inc_shared`], the E26 bake-off
//!   surface): free-running threads push invokes into the mailboxes and
//!   cooperatively pump every mailbox until their own reply lands in its
//!   op cell. Exactness under this regime is exactly what the history
//!   checker asserts.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use distctr_core::audit::Tally;
use distctr_core::engine::{Effects, EngineConfig, Event, NodeEngine};
use distctr_core::protocol::{realize, seeded_engines, Transport};
use distctr_core::{kmath, CounterBackend, CounterObject, Msg, Topology};
use distctr_sim::ProcessorId;

use crate::error::ShmError;
use crate::mailbox::Mailbox;
use crate::sync::{hint, Arc, AtomicBool, AtomicI64, AtomicU64, Mutex, Ordering};

/// How long a concurrent operation may go without observing any arena
/// progress before it reports [`ShmError::Stalled`] instead of spinning
/// forever (a fault-free arena never stalls; this bounds CI damage if a
/// protocol bug ever black-holes a reply).
const STALL_AFTER: Duration = Duration::from_secs(30);

/// A message to a processor slot: one shared-protocol message, or a
/// driver-level invoke. Mirrors `distctr-net`'s `NetMsg`, minus the
/// transport control that has no meaning without per-processor threads.
#[derive(Debug, Clone)]
enum Envelope {
    /// A protocol message (counts toward the paper's per-processor
    /// message load).
    Protocol(Msg<CounterObject>),
    /// The slot's processor initiates one inc (not load).
    Invoke { op_seq: u64 },
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

/// One processor slot: the protocol brain and its tallies behind one
/// lock, and its inbox.
#[derive(Debug)]
struct Slot {
    processor: Mutex<Processor>,
    mailbox: Mailbox<Envelope>,
}

/// What a slot's lock guards: the engine, and the tallies its deliveries
/// keep while their effects are realized. Only the holder of the slot's
/// drain right delivers to it, so the lock is never contended by
/// delivery; readers take each slot's lock in turn and sum.
#[derive(Debug)]
struct Processor {
    engine: NodeEngine<CounterObject>,
    /// Protocol messages sent and received (the paper's load).
    sent: u64,
    received: u64,
    /// Replies nobody was waiting for (an abandoned stalled op).
    unclaimed: u64,
    tally: Tally,
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
}

/// The concurrent drive's transport: mailbox pushes charged to the
/// delivering slot, and op cells for completed operations. Pumps
/// discover the pushed work by scanning.
struct Mailboxes<'a> {
    arena: &'a Arena,
    sent: &'a mut u64,
    unclaimed: &'a mut u64,
}

impl Transport<CounterObject> for Mailboxes<'_> {
    fn send(&mut self, _from: ProcessorId, to: ProcessorId, msg: Msg<CounterObject>) {
        *self.sent += 1;
        self.arena.in_flight.fetch_add(1, Ordering::SeqCst);
        self.arena.slots[to.index()].mailbox.push(Envelope::Protocol(msg));
    }

    fn complete(&mut self, op_seq: u64, resp: u64) {
        // Lock order: the delivering slot, then `pending`; nothing takes
        // them the other way.
        let cell =
            self.arena.pending.lock().unwrap_or_else(PoisonError::into_inner).remove(&op_seq);
        match cell {
            Some(cell) => {
                cell.value.store(resp, Ordering::SeqCst);
                cell.done.store(true, Ordering::SeqCst);
            }
            // A reply nobody is waiting for (an abandoned stalled op):
            // account it rather than lose it silently.
            None => *self.unclaimed += 1,
        }
    }
}

/// The sequential drive's transport: sends append to the driver's FIFO
/// work-list, and the one operation in flight takes its reply here.
struct WorkList<'a> {
    work: &'a mut VecDeque<(usize, Msg<CounterObject>)>,
    sent: &'a mut u64,
    unclaimed: &'a mut u64,
    op_seq: u64,
    reply: &'a mut Option<u64>,
}

impl Transport<CounterObject> for WorkList<'_> {
    fn send(&mut self, _from: ProcessorId, to: ProcessorId, msg: Msg<CounterObject>) {
        *self.sent += 1;
        self.work.push_back((to.index(), msg));
    }

    fn complete(&mut self, op_seq: u64, resp: u64) {
        if op_seq == self.op_seq {
            *self.reply = Some(resp);
        } else {
            *self.unclaimed += 1;
        }
    }
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
    /// The sequential drive's FIFO of `(slot, message)` deliveries,
    /// empty between operations and kept for its capacity.
    work: VecDeque<(usize, Msg<CounterObject>)>,
    /// The sequential drive's effect buffer, empty between deliveries.
    fx: Effects<CounterObject>,
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
        usize::try_from(topo.processors())
            .map_err(|_| ShmError::Order("n does not fit usize".into()))?;
        // The sim driver's regime: no retries are ever issued (sequential
        // mode waits, concurrent mode never resends), so deduplication
        // stays off — the configuration whose final state the conformance
        // goldens pin. Nothing reads the reply cache; `REPLY_CACHE_CAP`
        // bounds what the root carries from handoff to handoff.
        let config = EngineConfig::paper(k);
        let slots = seeded_engines(&topo, config, &CounterObject::new())
            .into_iter()
            .map(|engine| Slot {
                processor: Mutex::new(Processor {
                    engine,
                    sent: 0,
                    received: 0,
                    unclaimed: 0,
                    tally: Tally::default(),
                }),
                mailbox: Mailbox::new(),
            })
            .collect();
        Ok(ShmTreeCounter::over(Arc::new(Arena {
            topo,
            slots,
            in_flight: AtomicI64::new(0),
            next_op: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
        })))
    }

    fn over(arena: Arc<Arena>) -> Self {
        ShmTreeCounter { arena, work: VecDeque::new(), fx: Vec::new() }
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
        ShmTreeCounter::over(Arc::clone(&self.arena))
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

    /// Registers an op cell, posts a unit invoke to `dest`, and returns
    /// the cell.
    fn post(arena: &Arena, dest: usize, op_seq: u64) -> Arc<OpCell> {
        let cell = Arc::new(OpCell::new());
        arena
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(op_seq, Arc::clone(&cell));
        arena.in_flight.fetch_add(1, Ordering::SeqCst);
        arena.slots[dest].mailbox.push(Envelope::Invoke { op_seq });
        cell
    }

    /// Delivers one envelope to slot `dest`: feeds the engine and
    /// realizes the effects into the mailboxes, all under the slot's
    /// lock. `fx` is the caller's effect buffer, empty on entry and on
    /// return, so a pump allocates one per call rather than one per
    /// envelope.
    fn deliver(arena: &Arena, dest: usize, env: Envelope, fx: &mut Effects<CounterObject>) {
        let mut processor =
            arena.slots[dest].processor.lock().unwrap_or_else(PoisonError::into_inner);
        let Processor { engine, sent, received, unclaimed, tally } = &mut *processor;
        let event = match env {
            Envelope::Protocol(msg) => {
                *received += 1;
                Event::Deliver { msg }
            }
            Envelope::Invoke { op_seq } => Event::InvokeBatch { op_seq, count: 1, req: () },
        };
        engine.on_event_into(event, fx);
        realize(ProcessorId::new(dest), fx, &mut Mailboxes { arena, sent, unclaimed }, tally);
        drop(processor);
        arena.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// The deterministic drive: invoke at `dest`, then deliver the FIFO
    /// work-list of `(slot, message)` until the whole cascade has
    /// quiesced, each delivery under its slot's lock. FIFO order over a
    /// unit-delay mesh is exactly the sim's delivery order, which is
    /// what makes the final engine states — and hence the conformance
    /// fingerprints — line up.
    fn drive_sequential(&mut self, dest: usize, op_seq: u64, count: u64) -> Result<u64, ShmError> {
        let ShmTreeCounter { arena, work, fx } = self;
        let mut reply = None;
        let mut at = dest;
        let mut event = Event::InvokeBatch { op_seq, count, req: () };
        loop {
            let mut processor =
                arena.slots[at].processor.lock().unwrap_or_else(PoisonError::into_inner);
            let Processor { engine, sent, received, unclaimed, tally } = &mut *processor;
            if matches!(event, Event::Deliver { .. }) {
                *received += 1;
            }
            engine.on_event_into(event, fx);
            let mut net = WorkList { work, sent, unclaimed, op_seq, reply: &mut reply };
            realize(ProcessorId::new(at), fx, &mut net, tally);
            drop(processor);
            let Some((to, msg)) = work.pop_front() else { break };
            at = to;
            event = Event::Deliver { msg };
        }
        reply.ok_or(ShmError::Stalled { op_seq })
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
        self.inc_batch(initiator, 1)
    }

    /// Executes a batch of `count` incs as one traversal, returning the
    /// start of the contiguous range `[first, first + count)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShmTreeCounter::inc`].
    pub fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, ShmError> {
        self.check_initiator(initiator)?;
        let op_seq = self.arena.next_op.fetch_add(1, Ordering::SeqCst);
        self.drive_sequential(initiator.index(), op_seq, count)
    }

    /// Drains whatever work slot `i` has queued; returns envelopes
    /// processed (0 if another thread holds the slot's drain right).
    fn drain_slot(arena: &Arena, i: usize) -> usize {
        let mut fx = Vec::new();
        arena.slots[i].mailbox.drain(|env| Self::deliver(arena, i, env, &mut fx))
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
        let cell = Self::post(arena, initiator.index(), op_seq);
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

    /// Every slot's processor, locked in turn.
    fn locked(&self) -> impl Iterator<Item = impl std::ops::Deref<Target = Processor> + '_> {
        self.arena.slots.iter().map(|s| s.processor.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Per-processor message loads (sent + received), snapshot.
    #[must_use]
    pub fn loads(&self) -> Vec<u64> {
        self.locked().map(|p| p.sent + p.received).collect()
    }

    /// The bottleneck load `m_b = max_p m_p` so far.
    #[must_use]
    pub fn bottleneck(&self) -> u64 {
        self.loads().into_iter().max().unwrap_or(0)
    }

    /// Total worker retirements so far.
    #[must_use]
    pub fn retirements(&self) -> u64 {
        self.locked().map(|p| p.tally.retirements).sum()
    }

    /// Messages forwarded by a retired worker's shim.
    #[must_use]
    pub fn shim_forwards(&self) -> u64 {
        self.locked().map(|p| p.tally.shim_forwards).sum()
    }

    /// Replies nobody was waiting for plus engine-reported losses.
    #[must_use]
    pub fn dead_letters(&self) -> u64 {
        self.locked().map(|p| p.unclaimed + p.tally.lost).sum()
    }

    /// Snapshots every slot's engine fingerprint, in processor order.
    /// Meaningful at quiescence only (after sequential operations, or
    /// after [`ShmTreeCounter::quiesce`]) — this driver can lock the
    /// engines directly instead of round-tripping fingerprint messages.
    #[must_use]
    pub fn engine_fingerprints(&self) -> Vec<u64> {
        self.locked().map(|p| p.engine.fingerprint()).collect()
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
        use distctr_core::{NodeRef, REPLY_CACHE_CAP};
        let mut c = ShmTreeCounter::new(81).expect("arena");
        let root_cache_len = |c: &ShmTreeCounter| {
            c.arena
                .slots
                .iter()
                .find_map(|s| {
                    let processor = s.processor.lock().unwrap_or_else(PoisonError::into_inner);
                    let root = processor.engine.hosted(NodeRef::ROOT)?.root.as_deref()?;
                    Some(root.reply_cache.len())
                })
                .expect("quiescent: the root's worker holds the root state")
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
    fn sequential_incs_leave_no_mailbox_cell_or_gauge_behind() {
        let mut c = ShmTreeCounter::new(81).expect("arena");
        for i in 0..200u64 {
            assert_eq!(c.inc(ProcessorId::new(i as usize % 81)).expect("inc"), i);
        }
        assert_eq!(c.inc_batch(ProcessorId::new(7), 5).expect("batch"), 200);
        assert!(c.arena.slots.iter().all(|s| s.mailbox.is_empty()), "no mailbox was used");
        assert_eq!(c.arena.in_flight.load(Ordering::SeqCst), 0);
        assert!(c.arena.pending.lock().expect("pending").is_empty(), "no op cell was posted");
        assert!(c.work.is_empty() && c.fx.is_empty(), "the work-list drained");
        assert_eq!(c.dead_letters(), 0);
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
