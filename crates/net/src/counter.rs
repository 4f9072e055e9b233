//! The public threaded client, and the counter as its type alias.
//!
//! [`ThreadedTreeClient`] serves any [`RootObject`];
//! [`ThreadedTreeCounter`] is the instance hosting a [`CounterObject`],
//! which adds only the counter's own `inc` family and its
//! [`CounterBackend`] impl.
//!
//! One OS thread per processor, crossbeam channels as the network,
//! sequential driving per the paper's model: each operation waits for its
//! response *and* for full quiescence of the retirement cascade ("enough
//! time elapses between any two inc requests").

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use distctr_core::engine::{seed_initial_hosting, EngineConfig, NodeEngine, PoolPolicy};
use distctr_core::{kmath, CounterBackend, CounterObject, Msg, NodeRef, RootObject, Topology};
use distctr_sim::ProcessorId;

use crate::error::NetError;
use crate::messages::NetMsg;
use crate::worker::{Shared, Worker, DEFAULT_REPLY_CACHE};

/// Hard cap on spawned threads: one per processor.
pub const MAX_THREADED_PROCESSORS: usize = 4096;

/// Bounded retry: how many times the driver (re)sends an operation
/// before reporting [`NetError::Timeout`]. Retries are safe because the
/// root deduplicates by op sequence through its migrating reply cache.
pub const SEND_ATTEMPTS: u32 = 3;

/// Base per-attempt response timeout; attempt `i` waits `i` times this
/// (linear backoff), so a crashed path is reported after
/// `BASE_TIMEOUT * (1 + 2 + … + SEND_ATTEMPTS)`.
pub const BASE_TIMEOUT: Duration = Duration::from_millis(150);

/// Upper bound on waiting for the retirement cascade to quiesce; only
/// reachable if in-flight accounting leaks, so hitting it is reported
/// as a timeout instead of spinning forever.
const QUIESCENCE_TIMEOUT: Duration = Duration::from_secs(10);

/// Any [`RootObject`] served by the retirement tree on real OS threads.
///
/// # Examples
///
/// ```
/// use distctr_core::FlipBitObject;
/// use distctr_net::ThreadedTreeClient;
/// use distctr_sim::ProcessorId;
///
/// # fn main() -> Result<(), distctr_net::NetError> {
/// let mut bit = ThreadedTreeClient::<FlipBitObject>::new(8)?;
/// assert!(!bit.invoke(ProcessorId::new(3), ())?);
/// assert!(bit.invoke(ProcessorId::new(5), ())?);
/// bit.shutdown()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ThreadedTreeClient<O: RootObject> {
    topo: Arc<Topology>,
    peers: Arc<Vec<Sender<NetMsg<O>>>>,
    results: Receiver<(u64, O::Response)>,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    next_op: u64,
    shut_down: bool,
    crashed: Vec<bool>,
}

impl<O> ThreadedTreeClient<O>
where
    O: RootObject + Send + 'static,
    O::Request: Send + 'static,
    O::Response: Send + 'static,
{
    /// Spawns one thread per processor for a tree of at least `n`
    /// processors (rounded up to `k^(k+1)`), hosting the object's
    /// [`Default`] state at the root.
    ///
    /// # Errors
    ///
    /// [`NetError::Order`] for invalid sizes; [`NetError::TooManyThreads`]
    /// beyond [`MAX_THREADED_PROCESSORS`]; [`NetError::Spawn`] if thread
    /// creation fails.
    pub fn new(n: usize) -> Result<Self, NetError> {
        Self::with_reply_cache(n, DEFAULT_REPLY_CACHE)
    }

    /// Like [`ThreadedTreeClient::new`], but with an explicit root
    /// reply-cache capacity. The cache deduplicates retries by op
    /// sequence; a service boundary multiplexing many client sessions
    /// needs a window at least as large as the number of operations that
    /// may land between a lost reply and its retry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThreadedTreeClient::new`], plus
    /// [`NetError::Order`] if `reply_cache_cap` is 0.
    pub fn with_reply_cache(n: usize, reply_cache_cap: usize) -> Result<Self, NetError> {
        if reply_cache_cap == 0 {
            return Err(NetError::Order("reply cache needs at least one slot".into()));
        }
        if n == 0 {
            return Err(NetError::Order("n must be at least 1".into()));
        }
        let k = kmath::order_for(n as u64);
        let topo = Arc::new(Topology::new(k).map_err(NetError::Order)?);
        let processors = usize::try_from(topo.processors())
            .map_err(|_| NetError::Order("n does not fit usize".into()))?;
        if processors > MAX_THREADED_PROCESSORS {
            return Err(NetError::TooManyThreads { requested: processors });
        }

        let mut senders = Vec::with_capacity(processors);
        let mut receivers = Vec::with_capacity(processors);
        for _ in 0..processors {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let peers = Arc::new(senders);
        let shared = Arc::new(Shared::new(processors));
        let (result_tx, results) = unbounded();

        // One shared-protocol engine per thread, seeded with the initial
        // hosting and neighbour routing straight from the topology. The
        // driver's bounded retry makes deduplication mandatory here.
        let config = EngineConfig {
            threshold: Some(kmath::retirement_threshold(k)),
            pool_policy: PoolPolicy::OneShot,
            reply_cache_cap,
            dedupe: true,
            persist: false,
        };
        let mut engines: Vec<NodeEngine<O>> = (0..processors)
            .map(|i| NodeEngine::new(ProcessorId::new(i), Arc::clone(&topo), config))
            .collect();
        seed_initial_hosting(&topo, &mut engines, &O::default());

        let mut handles = Vec::with_capacity(processors);
        for ((index, rx), engine) in receivers.into_iter().enumerate().zip(engines) {
            let me = ProcessorId::new(index);
            let worker = Worker {
                me,
                topo: Arc::clone(&topo),
                rx,
                peers: Arc::clone(&peers),
                shared: Arc::clone(&shared),
                results: result_tx.clone(),
                engine,
                crashed: false,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("distctr-p{index}"))
                    .spawn(move || worker.run())
                    .map_err(|e| NetError::Spawn(e.to_string()))?,
            );
        }
        Ok(ThreadedTreeClient {
            topo,
            peers,
            results,
            shared,
            handles,
            next_op: 0,
            shut_down: false,
            crashed: vec![false; processors],
        })
    }

    /// Number of processors (= threads).
    #[must_use]
    pub fn processors(&self) -> usize {
        self.peers.len()
    }

    /// The tree order `k`.
    #[must_use]
    pub fn order(&self) -> u32 {
        self.topo.order()
    }

    /// Executes one operation initiated by `initiator`, waiting for the
    /// response and for the retirement cascade to quiesce.
    ///
    /// The wait is bounded: each of up to [`SEND_ATTEMPTS`] sends waits
    /// with linear backoff, and a retry reuses the same op sequence so
    /// the root's reply cache keeps the object's history exactly-once
    /// even if the original `Apply` did land.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownProcessor`] for an out-of-range initiator;
    /// [`NetError::ShutDown`] after [`ThreadedTreeClient::shutdown`];
    /// [`NetError::PeerLost`] if the initiator itself has crashed;
    /// [`NetError::Timeout`] when every attempt went unanswered —
    /// typically a crashed worker black-holes the operation's path.
    pub fn invoke(
        &mut self,
        initiator: ProcessorId,
        req: O::Request,
    ) -> Result<O::Response, NetError> {
        let op_seq = self.reserve_op();
        self.invoke_reserved(initiator, op_seq, req)
    }

    /// Reserves the next op sequence without driving anything. Combined
    /// with [`ThreadedTreeClient::invoke_reserved`], this is the
    /// exactly-once hook for a service boundary: reserve a sequence when
    /// a client request first arrives, then drive it — possibly more than
    /// once, across client reconnects — under that same sequence. The
    /// root's migrating reply cache answers every re-drive with the value
    /// of the first application.
    pub fn reserve_op(&mut self) -> u64 {
        let op_seq = self.next_op;
        self.next_op += 1;
        op_seq
    }

    /// Executes one operation under a caller-reserved op sequence (see
    /// [`ThreadedTreeClient::reserve_op`]). Re-driving a sequence whose
    /// original application already reached the root is answered from the
    /// reply cache instead of applying again.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThreadedTreeClient::invoke`].
    pub fn invoke_reserved(
        &mut self,
        initiator: ProcessorId,
        op_seq: u64,
        req: O::Request,
    ) -> Result<O::Response, NetError> {
        self.check_peer(initiator)?;
        self.drive(initiator, op_seq, |op_seq| NetMsg::StartOp { op_seq, req: req.clone() })
    }

    /// Executes a *batch* of `count` identical operations under a
    /// caller-reserved op sequence: the batch shares **one** tree
    /// traversal ([`Msg::BatchApply`]) and the response is the first
    /// member's — for the counter, the start of the contiguous range
    /// `[first, first + count)` the batch owns. Re-driving the same
    /// sequence (with the same count) is answered from the root's reply
    /// cache, so the whole range stays exactly-once across retries.
    ///
    /// [`Msg::BatchApply`]: distctr_core::Msg::BatchApply
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThreadedTreeClient::invoke`].
    pub fn invoke_batch_reserved(
        &mut self,
        initiator: ProcessorId,
        op_seq: u64,
        count: u64,
        req: O::Request,
    ) -> Result<O::Response, NetError> {
        self.check_peer(initiator)?;
        let count = count.max(1);
        self.drive(initiator, op_seq, |op_seq| NetMsg::StartBatch {
            op_seq,
            count,
            req: req.clone(),
        })
    }

    /// Injects an operation addressed to `node` directly at
    /// `entry_worker`, modelling a sender with a **stale routing view**
    /// (one that has not yet heard a retirement's `NewWorker`
    /// notification). If `entry_worker` retired from `node`, its shim
    /// forwards the request to the pool successor — and counts the hop —
    /// exactly like the simulator's forwarding accounting. The reply
    /// still flows to `initiator` and back to the driver.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThreadedTreeClient::invoke`], for
    /// `entry_worker` in place of the initiator.
    pub fn invoke_stale(
        &mut self,
        entry_worker: ProcessorId,
        node: NodeRef,
        initiator: ProcessorId,
        req: O::Request,
    ) -> Result<O::Response, NetError> {
        self.check_peer(entry_worker)?;
        self.check_peer(initiator)?;
        let op_seq = self.reserve_op();
        self.drive(entry_worker, op_seq, |op_seq| {
            NetMsg::Protocol(Msg::Apply { node, origin: initiator, op_seq, req: req.clone() })
        })
    }

    /// Crashes the worker thread of processor `p`: it loses all hosted
    /// node state and silently discards traffic from then on (fail
    /// silent). Operations whose path crosses the crashed processor time
    /// out instead of aborting the process; the rest of the network
    /// keeps serving.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownProcessor`] for an out-of-range index;
    /// [`NetError::ShutDown`] after shutdown.
    pub fn crash_worker(&mut self, p: ProcessorId) -> Result<(), NetError> {
        if self.shut_down {
            return Err(NetError::ShutDown);
        }
        if p.index() >= self.processors() {
            return Err(NetError::UnknownProcessor {
                index: p.index(),
                processors: self.processors(),
            });
        }
        if !self.crashed[p.index()] {
            self.crashed[p.index()] = true;
            self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
            if self.peers[p.index()].send(NetMsg::Crash).is_err() {
                // The thread is already gone; that is a crash too.
                self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            self.wait_quiescent(QUIESCENCE_TIMEOUT);
        }
        Ok(())
    }

    /// Processors crashed via [`ThreadedTreeClient::crash_worker`].
    #[must_use]
    pub fn crashed_workers(&self) -> Vec<ProcessorId> {
        self.crashed
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c)
            .map(|(i, _)| ProcessorId::new(i))
            .collect()
    }

    fn check_peer(&self, p: ProcessorId) -> Result<(), NetError> {
        if self.shut_down {
            return Err(NetError::ShutDown);
        }
        if p.index() >= self.processors() {
            return Err(NetError::UnknownProcessor {
                index: p.index(),
                processors: self.processors(),
            });
        }
        if self.crashed[p.index()] {
            return Err(NetError::PeerLost { peer: p.index() });
        }
        Ok(())
    }

    /// The bounded retry/backoff loop shared by [`invoke`] and
    /// [`invoke_stale`]: send, await the matching reply under a per
    /// attempt deadline, resend with the same op sequence on timeout.
    ///
    /// [`invoke`]: ThreadedTreeClient::invoke
    /// [`invoke_stale`]: ThreadedTreeClient::invoke_stale
    fn drive(
        &mut self,
        target: ProcessorId,
        op_seq: u64,
        make_msg: impl Fn(u64) -> NetMsg<O>,
    ) -> Result<O::Response, NetError> {
        let started = Instant::now();
        let mut attempts = 0u32;
        let resp = 'attempts: loop {
            if attempts == SEND_ATTEMPTS {
                // Let any half-finished cascade drain before reporting,
                // so the client stays usable after the error.
                self.wait_quiescent(QUIESCENCE_TIMEOUT);
                return Err(NetError::Timeout {
                    waited_ms: started.elapsed().as_millis() as u64,
                    attempts,
                });
            }
            attempts += 1;
            self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
            if self.peers[target.index()].send(make_msg(op_seq)).is_err() {
                self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                return Err(NetError::PeerLost { peer: target.index() });
            }
            let deadline = Instant::now() + BASE_TIMEOUT * attempts;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    continue 'attempts;
                }
                match self.results.recv_timeout(deadline - now) {
                    Ok((seq, resp)) if seq == op_seq => break 'attempts resp,
                    // A stale reply from an attempt that already timed
                    // out (or a previous timed-out operation): discard.
                    Ok(_) => {}
                    Err(RecvTimeoutError::Timeout) => continue 'attempts,
                    Err(RecvTimeoutError::Disconnected) => return Err(NetError::ShutDown),
                }
            }
        };
        // Quiescence of any retirement cascade, per the paper's "enough
        // time elapses" assumption.
        if !self.wait_quiescent(QUIESCENCE_TIMEOUT) {
            return Err(NetError::Timeout {
                waited_ms: started.elapsed().as_millis() as u64,
                attempts,
            });
        }
        Ok(resp)
    }

    /// Spins until `in_flight` reaches zero or `deadline` elapses;
    /// returns whether quiescence was observed.
    fn wait_quiescent(&self, deadline: Duration) -> bool {
        let started = Instant::now();
        let mut spins = 0u32;
        while self.shared.in_flight.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
                if started.elapsed() >= deadline {
                    return false;
                }
            }
            std::hint::spin_loop();
        }
        true
    }

    /// Per-processor message loads (sent + received), snapshot.
    #[must_use]
    pub fn loads(&self) -> Vec<u64> {
        (0..self.processors())
            .map(|i| {
                self.shared.sent[i].load(Ordering::Relaxed)
                    + self.shared.received[i].load(Ordering::Relaxed)
            })
            .collect()
    }

    /// The bottleneck load.
    #[must_use]
    pub fn bottleneck(&self) -> u64 {
        self.loads().into_iter().max().unwrap_or(0)
    }

    /// Total retirements across the run.
    #[must_use]
    pub fn retirements(&self) -> u64 {
        self.shared.retirements.load(Ordering::Relaxed)
    }

    /// Messages that arrived at a retired worker and were forwarded to
    /// its pool successor by the retirement shim.
    #[must_use]
    pub fn shim_forwards(&self) -> u64 {
        self.shared.shim_forwards.load(Ordering::Relaxed)
    }

    /// Messages dropped because their destination thread was gone or a
    /// crashed processor discarded them.
    #[must_use]
    pub fn dead_letters(&self) -> u64 {
        self.shared.dead_letters.load(Ordering::Relaxed)
    }

    /// Snapshots every worker's engine fingerprint, in processor order.
    ///
    /// Only meaningful at quiescence (between operations): the driver
    /// waits for the cascade to drain after each call, so calling this
    /// from the driving thread observes a stable state. Crashed workers
    /// answer too — their fingerprint is that of the reset engine, which
    /// together with [`ThreadedTreeClient::crashed_workers`] matches the
    /// model checker's `combined_fingerprint` convention.
    ///
    /// # Errors
    ///
    /// [`NetError::ShutDown`] after shutdown; [`NetError::Timeout`] if a
    /// worker never answers (only possible if its thread died).
    pub fn engine_fingerprints(&self) -> Result<Vec<u64>, NetError> {
        if self.shut_down {
            return Err(NetError::ShutDown);
        }
        let (tx, rx) = unbounded();
        let mut expected = 0usize;
        for peer in self.peers.iter() {
            self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
            if peer.send(NetMsg::Fingerprint { reply: tx.clone() }).is_err() {
                self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            } else {
                expected += 1;
            }
        }
        if expected < self.processors() {
            return Err(NetError::Timeout { waited_ms: 0, attempts: 0 });
        }
        let mut fps = vec![0u64; self.processors()];
        for _ in 0..expected {
            let (index, fp) = rx
                .recv_timeout(QUIESCENCE_TIMEOUT)
                .map_err(|_| NetError::Timeout { waited_ms: 0, attempts: 0 })?;
            fps[index] = fp;
        }
        Ok(fps)
    }

    /// The tree topology backing this network.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Stops every worker thread and joins them.
    ///
    /// # Errors
    ///
    /// [`NetError::Spawn`] if a worker thread panicked.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        if self.shut_down {
            return Ok(());
        }
        self.shut_down = true;
        for tx in self.peers.iter() {
            let _ = tx.send(NetMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            handle.join().map_err(|_| NetError::Spawn("worker thread panicked".into()))?;
        }
        Ok(())
    }
}

impl<O: RootObject> Drop for ThreadedTreeClient<O> {
    fn drop(&mut self) {
        if !self.shut_down {
            self.shut_down = true;
            for tx in self.peers.iter() {
                let _ = tx.send(NetMsg::Shutdown);
            }
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

/// The retirement-tree counter running on real OS threads: the generic
/// [`ThreadedTreeClient`] hosting a [`CounterObject`].
///
/// # Examples
///
/// ```
/// use distctr_net::ThreadedTreeCounter;
/// use distctr_sim::ProcessorId;
///
/// # fn main() -> Result<(), distctr_net::NetError> {
/// let mut counter = ThreadedTreeCounter::new(8)?; // 8 threads, k = 2
/// assert_eq!(counter.inc(ProcessorId::new(3))?, 0);
/// assert_eq!(counter.inc(ProcessorId::new(5))?, 1);
/// counter.shutdown()?;
/// # Ok(())
/// # }
/// ```
pub type ThreadedTreeCounter = ThreadedTreeClient<CounterObject>;

impl ThreadedTreeClient<CounterObject> {
    /// Executes one `inc` initiated by `initiator`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThreadedTreeClient::invoke`].
    pub fn inc(&mut self, initiator: ProcessorId) -> Result<u64, NetError> {
        self.invoke(initiator, ())
    }

    /// Executes a batch of `count` incs as one traversal with a fresh
    /// internal sequence, returning the range start.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThreadedTreeClient::invoke`].
    pub fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, NetError> {
        let op_seq = self.reserve_op();
        self.inc_batch_reserved(initiator, op_seq, count)
    }

    /// Executes one `inc` under a reserved op sequence (see
    /// [`ThreadedTreeClient::reserve_op`]). Re-driving the same sequence
    /// (a retry whose original did land) is answered from the root's
    /// reply cache without incrementing again.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThreadedTreeClient::invoke`].
    pub fn inc_reserved(&mut self, initiator: ProcessorId, op_seq: u64) -> Result<u64, NetError> {
        self.invoke_reserved(initiator, op_seq, ())
    }

    /// Executes a batch of `count` incs as one tree traversal under a
    /// reserved op sequence, returning the start of the batch's range
    /// `[first, first + count)`; see
    /// [`ThreadedTreeClient::invoke_batch_reserved`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThreadedTreeClient::invoke`].
    pub fn inc_batch_reserved(
        &mut self,
        initiator: ProcessorId,
        op_seq: u64,
        count: u64,
    ) -> Result<u64, NetError> {
        self.invoke_batch_reserved(initiator, op_seq, count, ())
    }
}

impl CounterBackend for ThreadedTreeCounter {
    type Error = NetError;

    fn processors(&self) -> usize {
        ThreadedTreeCounter::processors(self)
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error> {
        ThreadedTreeCounter::inc(self, initiator)
    }

    fn reserve(&mut self) -> Option<u64> {
        Some(self.reserve_op())
    }

    fn inc_ticketed(&mut self, initiator: ProcessorId, ticket: u64) -> Result<u64, Self::Error> {
        self.inc_reserved(initiator, ticket)
    }

    fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, Self::Error> {
        ThreadedTreeCounter::inc_batch(self, initiator, count)
    }

    fn inc_batch_ticketed(
        &mut self,
        initiator: ProcessorId,
        ticket: u64,
        count: u64,
    ) -> Result<u64, Self::Error> {
        self.inc_batch_reserved(initiator, ticket, count)
    }

    fn bottleneck(&self) -> u64 {
        ThreadedTreeCounter::bottleneck(self)
    }

    fn retirements(&self) -> u64 {
        ThreadedTreeCounter::retirements(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sequentially_and_shuts_down() {
        let mut c = ThreadedTreeCounter::new(8).expect("8 threads");
        assert_eq!(c.processors(), 8);
        assert_eq!(c.order(), 2);
        for i in 0..8 {
            let v = c.inc(ProcessorId::new(i)).expect("inc");
            assert_eq!(v, i as u64);
        }
        assert!(c.retirements() > 0, "retirement really happened across threads");
        c.shutdown().expect("clean shutdown");
        assert!(matches!(c.inc(ProcessorId::new(0)), Err(NetError::ShutDown)));
    }

    #[test]
    fn bottleneck_is_big_o_of_k() {
        let mut c = ThreadedTreeCounter::new(81).expect("81 threads");
        for i in 0..81 {
            c.inc(ProcessorId::new(i)).expect("inc");
        }
        let b = c.bottleneck();
        assert!(b >= 3, "lower bound k = 3: {b}");
        assert!(b <= 20 * 3, "O(k) bound: {b}");
        c.shutdown().expect("shutdown");
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(ThreadedTreeCounter::new(0), Err(NetError::Order(_))));
        let mut c = ThreadedTreeCounter::new(8).expect("counter");
        assert!(matches!(c.inc(ProcessorId::new(99)), Err(NetError::UnknownProcessor { .. })));
        c.shutdown().expect("shutdown");
    }

    #[test]
    fn rounds_up_like_the_simulator() {
        let mut c = ThreadedTreeCounter::new(50).expect("counter");
        assert_eq!(c.processors(), 81);
        c.shutdown().expect("shutdown");
    }

    #[test]
    fn crashed_initiator_is_peer_lost() {
        let mut c = ThreadedTreeCounter::new(8).expect("counter");
        c.crash_worker(ProcessorId::new(3)).expect("crash");
        assert_eq!(c.crashed_workers(), vec![ProcessorId::new(3)]);
        assert!(matches!(c.inc(ProcessorId::new(3)), Err(NetError::PeerLost { peer: 3 })));
        c.shutdown().expect("shutdown");
    }

    #[test]
    fn a_crashed_path_times_out_but_the_rest_keeps_counting() {
        let mut c = ThreadedTreeCounter::new(8).expect("counter");
        let topo = self::topo_of(&c);
        // Pick a leaf-parent worker to kill whose processor serves no
        // node on some other initiator's path to the root, so exactly
        // one subtree degrades.
        let path_workers = |i: u64| -> Vec<ProcessorId> {
            let mut node = Some(topo.leaf_parent(i));
            let mut ws = Vec::new();
            while let Some(n) = node {
                ws.push(topo.initial_worker(n));
                node = topo.parent(n);
            }
            ws
        };
        let (victim, crash_target, survivor) = (0u64..8)
            .flat_map(|a| (0u64..8).map(move |b| (a, b)))
            .find_map(|(a, b)| {
                let target = topo.initial_worker(topo.leaf_parent(a));
                let clear = a != b
                    && ProcessorId::new(b as usize) != target
                    && !path_workers(b).contains(&target);
                clear.then_some((a, target, b))
            })
            .expect("some subtree is independent of another's leaf parent");
        c.crash_worker(crash_target).expect("crash");
        // The crashed subtree degrades to a bounded timeout...
        match c.inc(ProcessorId::new(victim as usize)) {
            Err(NetError::Timeout { attempts, .. }) => assert_eq!(attempts, SEND_ATTEMPTS),
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(c.dead_letters() >= u64::from(SEND_ATTEMPTS), "black-holed applies");
        // ...while the rest of the network keeps counting: the crashed
        // operation never reached the root, so the sequence is intact.
        assert_eq!(c.inc(ProcessorId::new(survivor as usize)).expect("inc"), 0);
        assert_eq!(c.inc(ProcessorId::new(survivor as usize)).expect("inc"), 1);
        c.shutdown().expect("shutdown");
    }

    fn topo_of(c: &ThreadedTreeCounter) -> Arc<Topology> {
        Arc::new(Topology::new(c.order()).expect("same order builds"))
    }

    #[test]
    fn reserved_retry_is_exactly_once() {
        let mut c = ThreadedTreeCounter::with_reply_cache(8, 64).expect("counter");
        let seq = c.reserve_op();
        let first = c.inc_reserved(ProcessorId::new(2), seq).expect("inc");
        // Unrelated traffic lands in between, then the "retry" re-drives
        // the same sequence: the reply cache must answer with the
        // original value and the count must not advance for it.
        let between = c.inc(ProcessorId::new(5)).expect("inc");
        let retried = c.inc_reserved(ProcessorId::new(2), seq).expect("retry");
        assert_eq!(first, 0);
        assert_eq!(between, 1);
        assert_eq!(retried, 0, "retry answered from the reply cache");
        assert_eq!(c.inc(ProcessorId::new(7)).expect("inc"), 2, "nothing double-counted");
        c.shutdown().expect("shutdown");
    }

    #[test]
    fn zero_reply_cache_rejected() {
        assert!(matches!(ThreadedTreeCounter::with_reply_cache(8, 0), Err(NetError::Order(_))));
    }

    #[test]
    fn backend_trait_reserves_real_tickets() {
        use distctr_core::CounterBackend as _;
        let mut c = ThreadedTreeCounter::new(8).expect("counter");
        let t = c.reserve().expect("threaded backend hands out tickets");
        assert_eq!(c.inc_ticketed(ProcessorId::new(0), t).expect("inc"), 0);
        assert_eq!(c.inc_ticketed(ProcessorId::new(0), t).expect("retry"), 0);
        assert_eq!(c.inc(ProcessorId::new(1)).expect("inc"), 1);
        c.shutdown().expect("shutdown");
    }

    #[test]
    fn batches_share_one_traversal_and_partition_the_range() {
        let mut c = ThreadedTreeCounter::with_reply_cache(8, 64).expect("counter");
        assert_eq!(c.inc(ProcessorId::new(0)).expect("inc"), 0);
        let loads_before = c.loads();
        let first = c.inc_batch(ProcessorId::new(1), 10).expect("batch");
        assert_eq!(first, 1, "the batch owns [1, 11)");
        let loads_after = c.loads();
        let unit_cost: u64 = loads_after.iter().zip(&loads_before).map(|(a, b)| a - b).sum();
        // One traversal (plus any retirement traffic), not 10: far less
        // than 10 unit climbs would cost.
        assert!(unit_cost < 20, "a batch of 10 moved {unit_cost} messages, not ~10 traversals");
        assert_eq!(c.inc(ProcessorId::new(2)).expect("inc"), 11, "range fully consumed");
        c.shutdown().expect("shutdown");
    }

    #[test]
    fn batch_retry_under_one_ticket_returns_the_same_range() {
        use distctr_core::CounterBackend as _;
        let mut c = ThreadedTreeCounter::with_reply_cache(8, 64).expect("counter");
        let t = c.reserve().expect("ticket");
        assert_eq!(c.inc_batch_ticketed(ProcessorId::new(0), t, 4).expect("batch"), 0);
        let between = CounterBackend::inc(&mut c, ProcessorId::new(5)).expect("inc");
        assert_eq!(between, 4, "the batch consumed [0, 4)");
        assert_eq!(
            c.inc_batch_ticketed(ProcessorId::new(0), t, 4).expect("retry"),
            0,
            "the retried batch owns the same range"
        );
        assert_eq!(CounterBackend::inc(&mut c, ProcessorId::new(7)).expect("inc"), 5);
        c.shutdown().expect("shutdown");
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let mut c = ThreadedTreeCounter::new(8).expect("counter");
        c.inc(ProcessorId::new(0)).expect("inc");
        drop(c); // must not hang or panic
    }

    #[test]
    fn generic_client_hosts_a_priority_queue_on_threads() {
        use distctr_core::object::{PqRequest, PqResponse, PriorityQueueObject};
        let mut pq = ThreadedTreeClient::<PriorityQueueObject>::new(8).expect("threads");
        for (i, key) in [9u64, 2, 7].into_iter().enumerate() {
            let resp = pq.invoke(ProcessorId::new(i), PqRequest::Insert(key)).expect("insert");
            assert_eq!(resp, PqResponse::Inserted { len: i as u64 + 1 });
        }
        assert_eq!(
            pq.invoke(ProcessorId::new(5), PqRequest::ExtractMin).expect("extract"),
            PqResponse::Min(Some(2)),
            "the heap migrated with root retirements and still orders keys"
        );
        pq.shutdown().expect("shutdown");
    }

    #[test]
    fn generic_client_hosts_a_max_register_on_threads() {
        use distctr_core::MaxRegisterObject;
        let mut reg = ThreadedTreeClient::<MaxRegisterObject>::new(8).expect("threads");
        assert_eq!(reg.invoke(ProcessorId::new(0), 5).expect("fetch_max"), 0);
        assert_eq!(reg.invoke(ProcessorId::new(3), 2).expect("fetch_max"), 5);
        assert_eq!(reg.invoke(ProcessorId::new(7), 9).expect("fetch_max"), 5);
        reg.shutdown().expect("shutdown");
    }
}
