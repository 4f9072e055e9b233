//! Server state and the serving paths: sessions, dedup, the combiner.
//!
//! A [`CounterServer`] hosts any [`CounterBackend`] behind the wire
//! protocol of [`crate::wire`]. One reactor thread ([`crate::readiness`])
//! owns every socket; this module is everything behind it. Connections
//! are mapped to **sessions**: the handshake either opens a fresh
//! session (assigned a processor round-robin, so independent clients
//! spread over the tree's leaves like the paper's initiators) or resumes
//! an existing one after a reconnect. Every increment frame names a
//! counter key — the unkeyed `Inc` is the short form of key 0 — and is
//! served by one backend call, [`CounterBackend::inc_batch_key`], under
//! the request's `(session, request)` **token**. A session keeps the
//! dedup state that makes reconnect-and-retry exactly-once: its answer
//! table serves a retry of any request it saw succeed, and a retry of
//! one whose attempt failed re-drives the same token, which a backend
//! with a reply cache (a keyspace key, the threaded tree's root) answers
//! without incrementing again.
//!
//! Operations are serialized through one mutex around the backend,
//! matching the paper's sequential-driving model ("enough time elapses
//! between any two inc requests"): with many concurrent clients the
//! *server* stays correct and the contention becomes client-observed
//! queueing latency — which is exactly what the load generator measures.
//!
//! A server started with [`CounterServer::serve_async_combining`]
//! replaces that hot path with pipelined **flat combining**: the reactor
//! only *enqueues* pending incs and returns to its sockets, and a
//! dedicated combiner thread drains everything queued into one
//! [`CounterBackend::inc_batch_key`] traversal per key per round, handing
//! each waiter's slice of the granted range back to the reactor, which
//! writes it to the waiter's connection.
//! Coalesced batches are charged to a rotating origin processor (an
//! `Inc` naming an explicit initiator still climbs from that leaf), so
//! new requests accumulate while the previous round's traversal is in
//! flight — the batch size adapts to the backlog instead of a timer.
//! The counter stays exact — values are a contiguous range partitioned
//! in queue order — while the backend sees one traversal where the
//! sequential path saw `m`.
//!
//! # Overload and failure containment
//!
//! [`ServerConfig`] adds the controls a server needs once the network
//! in front of it turns adversarial (see `distctr-chaos`):
//!
//! * **admission control** — past [`ServerConfig::max_conns`] active
//!   connections, or past [`ServerConfig::max_inflight_per_conn`]
//!   queued incs on one connection, the server *sheds*: it answers
//!   [`WireMsg::Busy`] with a retry-after hint instead of queueing
//!   without bound. Nothing shed is applied, so a retry of the same
//!   request id stays exactly-once.
//! * **graceful drain** — [`CounterServer::drain`] stops admitting,
//!   lets every in-flight request finish and flushes its reply, then
//!   closes. An acked operation is never lost; a never-received one was
//!   never acked, so the client's replay on another server stays sound.
//!   Connections still busy after [`DRAIN_GRACE`] are cut.
//! * **panic containment** — a panicking backend call (combining round
//!   or sequential) is caught, counted in
//!   [`crate::StatsSnapshot::panics_contained`], and turned into
//!   `Err { Backend }` replies that make the clients retry; the mutex
//!   poisoning that used to kill every later request is recovered.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use distctr_core::{CounterBackend, KeyedReply, ReplyWindow};
use distctr_reactor::Waker;
use distctr_sim::ProcessorId;

use crate::error::{ErrCode, ServerError};
use crate::wire::{StatsSnapshot, WireError, WireMsg};

/// How long [`CounterServer::drain`] waits for connections to go idle
/// before falling back to a hard stop.
pub const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Tunable knobs of a [`CounterServer`]. [`ServerConfig::default`]
/// admits everything; chaos tests and operators set the limits they
/// need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Active-connection cap; connections beyond it are answered
    /// [`WireMsg::Busy`] and closed. `None` admits everything.
    pub max_conns: Option<usize>,
    /// Combining mode: the most incs one connection may have queued
    /// before further ones are shed with [`WireMsg::Busy`]. `None`
    /// queues without bound.
    pub max_inflight_per_conn: Option<usize>,
    /// The backoff hint carried by every [`WireMsg::Busy`] this server
    /// sends.
    pub busy_retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: None,
            max_inflight_per_conn: None,
            busy_retry_after: Duration::from_millis(50),
        }
    }
}

/// Dedup state and accounting of one client session.
#[derive(Debug, Default)]
struct Session {
    /// The processor this session's operations are charged to (unless
    /// an `Inc` names an explicit initiator).
    processor: u64,
    /// request id -> value (or range start) already handed out.
    answered: ReplyWindow<u64>,
    /// Operations this session completed.
    ops: u64,
}

/// Mutex-guarded server state: the backend plus the session table.
pub(crate) struct Inner<B> {
    pub(crate) backend: B,
    sessions: HashMap<u64, Session>,
    next_session: u64,
    /// Round-robin origin for combined batches without an explicit
    /// initiator: each coalesced traversal is charged to the next
    /// processor in turn.
    combine_origin: u64,
}

/// Lock-free counters, updated by the reactor and the combiner.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) connections: AtomicU64,
    pub(crate) ops: AtomicU64,
    pub(crate) deduped: AtomicU64,
    pub(crate) wire_errors: AtomicU64,
    pub(crate) combined_traversals: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) panics_contained: AtomicU64,
    pub(crate) accept_errors: AtomicU64,
}

/// One enqueued increment awaiting a combining round. Validation
/// (session lookup, initiator bounds, retry dedup) happens in the
/// round, under the backend lock the combiner holds, so the enqueue
/// itself touches nothing but the queue mutex — the reactor goes
/// straight back to its sockets and the connection stays pipelined.
pub(crate) struct PendingInc {
    session_id: u64,
    /// The counter this inc targets (0 for `Inc`, explicit for
    /// `KeyInc`). Combining rounds batch per key.
    key: u64,
    request_id: u64,
    initiator: Option<u64>,
    /// The reactor-side connection token the reply belongs to.
    token: usize,
    /// The connection's in-flight count, decremented when the reply is
    /// delivered (backs [`ServerConfig::max_inflight_per_conn`]).
    inflight: Arc<AtomicUsize>,
}

/// Work queue and wakeup for the dedicated combiner thread, plus the
/// way back: only the reactor touches a nonblocking socket, so replies
/// travel over a channel to it, and it is woken to flush them.
pub(crate) struct CombineState {
    queue: Mutex<Vec<PendingInc>>,
    wake: Condvar,
    /// The reactor's reply channel, `(connection token, frame)`.
    replies: mpsc::Sender<(usize, WireMsg)>,
    /// Wakes the reactor out of its poll to flush a reply.
    waker: Arc<Waker>,
}

impl CombineState {
    pub(crate) fn new(replies: mpsc::Sender<(usize, WireMsg)>, waker: Arc<Waker>) -> Self {
        CombineState { queue: Mutex::new(Vec::new()), wake: Condvar::new(), replies, waker }
    }

    /// Hands one waiter's reply to the reactor, wakes it, and releases
    /// the waiter's in-flight slot. Best-effort: a reply for a
    /// connection that is gone is dropped there (the client's
    /// reconnect-and-retry path recovers the value).
    fn deliver(&self, p: &PendingInc, reply: &WireMsg) {
        if self.replies.send((p.token, reply.clone())).is_ok() {
            self.waker.wake();
        }
        p.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Delivers `reply` to a waiter and to the round's duplicates of its
    /// request, taking them out of `dups`.
    fn answer(&self, dups: &mut Vec<PendingInc>, p: &PendingInc, reply: WireMsg) {
        if !dups.is_empty() {
            let same =
                |d: &mut PendingInc| (d.session_id, d.request_id) == (p.session_id, p.request_id);
            for d in dups.extract_if(.., same) {
                self.deliver(&d, &reply);
            }
        }
        self.deliver(p, &reply);
    }
}

pub(crate) struct Shared<B> {
    inner: Mutex<Inner<B>>,
    pub(crate) stats: Counters,
    pub(crate) config: ServerConfig,
    /// Active (not yet closed) connections, for admission control
    /// (shared with each connection's drop guard).
    pub(crate) active_conns: Arc<AtomicUsize>,
    /// `Some` iff this server serves incs through flat combining.
    pub(crate) combine: Option<CombineState>,
}

impl<B> Shared<B> {
    /// Fresh server state hosting `backend`; `combine` arms the
    /// combiner queue.
    pub(crate) fn new(backend: B, config: ServerConfig, combine: Option<CombineState>) -> Self {
        Shared {
            inner: Mutex::new(Inner {
                backend,
                sessions: HashMap::new(),
                next_session: 0,
                combine_origin: 0,
            }),
            stats: Counters::default(),
            config,
            active_conns: Arc::new(AtomicUsize::new(0)),
            combine,
        }
    }

    /// Locks the server state, recovering from poisoning: a panicked
    /// request (already counted and contained) must not condemn every
    /// later request to `Err { Backend }`.
    pub(crate) fn lock_inner(&self) -> MutexGuard<'_, Inner<B>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn busy(&self) -> WireMsg {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        WireMsg::Busy { retry_after_ms: self.config.busy_retry_after.as_millis() as u64 }
    }
}

/// Decrements the active-connection count when a connection is
/// dropped, however it ends.
pub(crate) struct ActiveGuard(pub(crate) Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A TCP service hosting a [`CounterBackend`].
///
/// # Examples
///
/// ```
/// use distctr_core::TreeCounter;
/// use distctr_server::{CounterServer, RemoteCounter};
///
/// # fn main() -> Result<(), distctr_server::ServerError> {
/// let backend = TreeCounter::new(8).map_err(|e| distctr_server::ServerError::Backend(e.to_string()))?;
/// let mut server = CounterServer::serve_async(backend)?;
/// let mut client = RemoteCounter::connect(server.local_addr())?;
/// assert_eq!(client.inc()?, 0);
/// assert_eq!(client.inc()?, 1);
/// server.shutdown()?;
/// # Ok(())
/// # }
/// ```
pub struct CounterServer<B: CounterBackend + Send + 'static> {
    pub(crate) shared: Option<Arc<Shared<B>>>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) draining: Arc<AtomicBool>,
    pub(crate) addr: SocketAddr,
    pub(crate) reactor: Option<JoinHandle<()>>,
    pub(crate) combiner: Option<JoinHandle<()>>,
    /// Wakes the reactor thread out of its readiness wait so
    /// shutdown and drain are observed immediately instead of at the
    /// next connection event.
    pub(crate) waker: Arc<Waker>,
}

impl<B: CounterBackend + Send + 'static> CounterServer<B> {
    /// The bound address (connect [`crate::RemoteCounter`] here).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A statistics snapshot, identical to what [`WireMsg::Stats`]
    /// returns over the wire.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        match &self.shared {
            Some(shared) => snapshot(shared),
            None => StatsSnapshot::default(),
        }
    }

    /// Per-session operation counts `(session id, ops)`, ordered by
    /// session id — the server-side per-connection counters.
    #[must_use]
    pub fn session_ops(&self) -> Vec<(u64, u64)> {
        let Some(shared) = &self.shared else { return Vec::new() };
        let inner = shared.lock_inner();
        let mut out: Vec<(u64, u64)> = inner.sessions.iter().map(|(&id, s)| (id, s.ops)).collect();
        out.sort_unstable();
        out
    }

    /// Gracefully drains the server: stops admitting (new connections
    /// are answered [`WireMsg::Busy`]), lets every connection finish
    /// the request it is serving, flushes all queued combining replies,
    /// then closes and joins every thread. In-flight requests get their
    /// reply or a clean close — an acked operation is never lost.
    /// Connections still busy after [`DRAIN_GRACE`] are cut by a hard
    /// stop.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if a service thread panicked.
    pub fn drain(&mut self) -> Result<(), ServerError> {
        if self.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.draining.store(true, Ordering::SeqCst);
        self.waker.wake();
        let deadline = Instant::now() + DRAIN_GRACE;
        // Wait for connections to run dry: the reactor closes each one
        // once its buffered requests are served and its replies flushed.
        let active = || self.shared.as_ref().map_or(0, |s| s.active_conns.load(Ordering::SeqCst));
        while active() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Let the combiner flush every queued reply before stopping it.
        if let Some(combine) = self.shared.as_ref().and_then(|s| s.combine.as_ref()) {
            loop {
                let empty = combine.queue.lock().map_or(true, |q| q.is_empty());
                if empty || Instant::now() >= deadline {
                    break;
                }
                combine.wake.notify_one();
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // From here it is the ordinary teardown: stragglers past the
        // grace period observe the hard stop.
        self.stop.store(true, Ordering::SeqCst);
        self.join_all()
    }

    /// Stops accepting, disconnects every client, and joins all threads.
    /// The hosted backend stays alive until the server is dropped (or
    /// reclaimed via [`CounterServer::into_backend`]). For a shutdown
    /// that lets in-flight requests finish first, see
    /// [`CounterServer::drain`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if a service thread panicked.
    pub fn shutdown(&mut self) -> Result<(), ServerError> {
        if self.stop.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        self.join_all()
    }

    /// Joins the reactor and the combiner (the stop flag must already
    /// be set).
    fn join_all(&mut self) -> Result<(), ServerError> {
        let mut panicked = false;
        // The reactor may be parked in a readiness wait with no
        // timeout; the stop flag alone cannot reach it.
        self.waker.wake();
        if let Some(handle) = self.reactor.take() {
            panicked |= handle.join().is_err();
        }
        if let Some(handle) = self.combiner.take() {
            if let Some(combine) = self.shared.as_ref().and_then(|s| s.combine.as_ref()) {
                combine.wake.notify_all();
            }
            panicked |= handle.join().is_err();
        }
        if panicked {
            return Err(ServerError::Io("a service thread panicked".into()));
        }
        Ok(())
    }

    /// Shuts down and hands back the hosted backend for direct
    /// inspection (loads, audits).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CounterServer::shutdown`].
    pub fn into_backend(mut self) -> Result<B, ServerError> {
        self.shutdown()?;
        let shared = self.shared.take().ok_or(ServerError::ShutDown)?;
        let shared = Arc::try_unwrap(shared)
            .map_err(|_| ServerError::Io("a connection still holds the server state".into()))?;
        let inner = shared.inner.into_inner().unwrap_or_else(PoisonError::into_inner);
        Ok(inner.backend)
    }
}

impl<B: CounterBackend + Send + 'static> Drop for CounterServer<B> {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Resolves a handshake into `(session id, processor)`: resume an
/// existing session (keeping its dedup state) or open a fresh one.
pub(crate) fn establish<B: CounterBackend + Send + 'static>(
    shared: &Arc<Shared<B>>,
    resume: Option<u64>,
) -> Result<(u64, u64), ErrCode> {
    let mut inner = shared.lock_inner();
    match resume {
        Some(id) => match inner.sessions.get(&id) {
            Some(session) => Ok((id, session.processor)),
            None => Err(ErrCode::UnknownSession),
        },
        None => {
            let id = inner.next_session;
            inner.next_session += 1;
            let processor = id % inner.backend.processors() as u64;
            inner.sessions.insert(id, Session { processor, ..Session::default() });
            Ok((id, processor))
        }
    }
}

/// Enqueues one inc for the combiner thread and returns to the sockets
/// without waiting — a connection can have many incs in flight at once.
pub(crate) fn enqueue_inc(
    combine: &CombineState,
    session_id: u64,
    key: u64,
    request_id: u64,
    initiator: Option<u64>,
    token: usize,
    inflight: &Arc<AtomicUsize>,
) {
    let mut q = combine.queue.lock().unwrap_or_else(PoisonError::into_inner);
    let was_empty = q.is_empty();
    inflight.fetch_add(1, Ordering::SeqCst);
    q.push(PendingInc {
        session_id,
        key,
        request_id,
        initiator,
        token,
        inflight: Arc::clone(inflight),
    });
    drop(q);
    // The combiner only parks after observing an empty queue under this
    // mutex, so only the empty -> non-empty transition can have a parked
    // waiter; pushes onto a backlog skip the futex wake.
    if was_empty {
        combine.wake.notify_one();
    }
}

/// The client-visible code for a decode failure, if the transport is
/// still there to send it on.
pub(crate) fn wire_err_code(e: &WireError) -> Option<ErrCode> {
    match e {
        WireError::Oversized { .. } => Some(ErrCode::Oversized),
        WireError::UnknownTag(_) => Some(ErrCode::UnknownTag),
        WireError::Malformed(_) => Some(ErrCode::Malformed),
        WireError::Checksum { .. } => Some(ErrCode::Corrupt),
        // Truncated / Io: the transport is gone; nothing to send on.
        _ => None,
    }
}

/// Runs one backend operation with panic containment: a panicking
/// backend (or a bug in the serving path) is caught, counted, and
/// reported as a `Backend` error the client will retry — instead of a
/// dead thread and a poisoned lock.
fn contained<T>(stats: &Counters, f: impl FnOnce() -> Result<T, ()>) -> Result<T, ErrCode> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(())) => Err(ErrCode::Backend),
        Err(_panic) => {
            stats.panics_contained.fetch_add(1, Ordering::Relaxed);
            Err(ErrCode::Backend)
        }
    }
}

/// One `Inc`/`KeyInc` (`count: None`) or one explicit `KeyBatchInc`
/// (`Some(m)`: a single traversal granting the contiguous range
/// `[first, first + m)`; a retry must repeat the same `m`, which the
/// reply echoes), with exactly-once retry semantics: the session's
/// answer table answers a request it saw succeed, and anything else is
/// one backend call under the request's `(session, request)` token (see
/// the module doc).
pub(crate) fn serve_op<B: CounterBackend + Send + 'static>(
    shared: &Arc<Shared<B>>,
    session_id: u64,
    key: u64,
    request_id: u64,
    initiator: Option<u64>,
    count: Option<u64>,
) -> WireMsg {
    if count == Some(0) {
        return WireMsg::Err { code: ErrCode::Malformed };
    }
    let granted = count.unwrap_or(1);
    let ok = |first| match count {
        None => WireMsg::IncOk { request_id, value: first },
        Some(count) => WireMsg::BatchOk { request_id, first, count },
    };
    let mut guard = shared.lock_inner();
    let inner = &mut *guard;
    let Some(session) = inner.sessions.get_mut(&session_id) else {
        return WireMsg::Err { code: ErrCode::UnknownSession };
    };
    let charged = match initiator {
        Some(i) if i < inner.backend.processors() as u64 => i,
        Some(_) => return WireMsg::Err { code: ErrCode::BadInitiator },
        None => session.processor,
    };
    let p = ProcessorId::new(charged as usize);

    if let Some(first) = session.answered.get(&request_id) {
        shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
        return ok(first);
    }
    let backend = &mut inner.backend;
    let reply = contained(&shared.stats, || {
        backend.inc_batch_key(key, p, granted, Some((session_id, request_id))).map_err(|_| ())
    });
    // A failed attempt records nothing: the client's retry re-drives the
    // same token, which keeps it exactly-once.
    let (first, fresh) = match reply {
        Ok(KeyedReply::Fresh(first)) => (first, true),
        Ok(KeyedReply::Replay(first)) => (first, false),
        Ok(KeyedReply::Unrouted) => return WireMsg::Err { code: ErrCode::NoSuchKey },
        Err(code) => return WireMsg::Err { code },
    };
    session.answered.insert(request_id, first);
    session.ops += granted;
    if fresh {
        shared.stats.ops.fetch_add(granted, Ordering::Relaxed);
    } else {
        shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
    }
    ok(first)
}

/// The dedicated combiner: parks until incs are queued, then drains and
/// serves rounds until the queue is empty again. Everything that
/// accumulates while one round's traversals are in flight becomes the
/// next round's batch — backpressure, not a timer, sets the batch size.
/// Each reply goes to the reactor's channel with a wakeup, so the
/// per-inc hot path costs one enqueue, one reply handoff and an
/// amortized share of one traversal.
pub(crate) fn combiner_loop<B: CounterBackend + Send + 'static>(
    shared: &Arc<Shared<B>>,
    stop: &Arc<AtomicBool>,
) {
    let Some(combine) = &shared.combine else { return };
    // The drained queue buffer and the round's scratch live as long as
    // the combiner, so a round allocates nothing once they have grown.
    let mut drained = Vec::new();
    let mut round = Round::default();
    loop {
        {
            let Ok(mut q) = combine.queue.lock() else { return };
            loop {
                if !q.is_empty() {
                    // Serve what's queued even mid-shutdown; the final
                    // empty drain observes `stop` and exits. The swap
                    // hands the queue last round's emptied buffer.
                    std::mem::swap(&mut *q, &mut drained);
                    break;
                }
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // A plain wait, not a timed one: every transition that
                // matters is paired with a notify (enqueue on the
                // empty -> non-empty edge, drain's flush loop, and
                // `join_all` after setting `stop`), so an idle combiner
                // costs zero wakeups.
                let Ok(guard) = combine.wake.wait(q) else {
                    return;
                };
                q = guard;
            }
        }
        let mut inner = shared.lock_inner();
        combine_round(shared, combine, &mut inner, &mut drained, &mut round);
    }
}

/// A combining round's scratch, empty between rounds and kept for its
/// capacity.
#[derive(Default)]
struct Round {
    /// `(session, request id)` of the round's waiters, filled only when
    /// the round has more than one.
    seen: HashSet<(u64, u64)>,
    /// Waiters repeating a request already in the round, in queue order.
    dups: Vec<PendingInc>,
    /// Validated waiters with no recorded answer, grouped by `(key,
    /// initiator)`.
    fresh: Vec<PendingInc>,
}

/// One combining round over `drained` (emptied on return): answer
/// retries from the session tables, then drive **one** batched traversal
/// per `(key, initiator)`, slicing each granted range `[first, first +
/// m)` over its waiters in queue order. Each slice is recorded in its
/// session's answer table before the reply is sent, so a
/// reconnect-and-retry of any combined request is answered exactly-once
/// without a traversal.
fn combine_round<B: CounterBackend + Send + 'static>(
    shared: &Arc<Shared<B>>,
    combine: &CombineState,
    inner: &mut Inner<B>,
    drained: &mut Vec<PendingInc>,
    round: &mut Round,
) {
    let Round { seen, dups, fresh } = round;
    // A retry racing its original into the same round must share one
    // slice, not claim two: dedupe by (session, request id) and park
    // the duplicates' connections until the key is answered. A round of
    // one waiter has nothing to dedupe.
    if drained.len() > 1 {
        let repeat = |p: &mut PendingInc| !seen.insert((p.session_id, p.request_id));
        for p in drained.extract_if(.., repeat) {
            shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
            dups.push(p);
        }
        seen.clear();
    }
    // Validate each waiter and split answered retries from fresh work.
    for p in drained.drain(..) {
        let Some(session) = inner.sessions.get(&p.session_id) else {
            combine.answer(dups, &p, WireMsg::Err { code: ErrCode::UnknownSession });
            continue;
        };
        match p.initiator {
            Some(i) if i < inner.backend.processors() as u64 => {}
            Some(_) => {
                combine.answer(dups, &p, WireMsg::Err { code: ErrCode::BadInitiator });
                continue;
            }
            None => {}
        }
        if let Some(value) = session.answered.get(&p.request_id) {
            shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
            combine.answer(dups, &p, WireMsg::IncOk { request_id: p.request_id, value });
            continue;
        }
        fresh.push(p);
    }
    // A batch traversal targets exactly one counter and has exactly one
    // origin, so waiters group by **(key, initiator)**: per key,
    // requests with an explicit initiator group by it and everything
    // else — the common "don't care" traffic — coalesces into ONE batch
    // per round (the `None` group, first in each key), charged to a
    // round-robin rotating processor so no single initiator becomes an
    // artificial hot spot. The sort is stable, so each group keeps queue
    // order.
    let group = |p: &PendingInc| (p.key, p.initiator);
    if !fresh.is_sorted_by_key(group) {
        fresh.sort_by_key(group);
    }
    for waiters in fresh.chunk_by(|a, b| group(a) == group(b)) {
        let (key, explicit) = group(&waiters[0]);
        let m = waiters.len() as u64;
        let charged = explicit.unwrap_or_else(|| {
            let p = inner.combine_origin;
            inner.combine_origin = (inner.combine_origin + 1) % inner.backend.processors() as u64;
            p
        });
        let initiator = ProcessorId::new(charged as usize);
        shared.stats.combined_traversals.fetch_add(1, Ordering::Relaxed);
        // The whole traversal runs contained: a panicking backend round
        // is caught here, its waiters are told to retry, and the
        // combiner (and the server with it) survives.
        // A round carries no token: the batch is an aggregate of many
        // requests, so per-request dedup lives in the session answer
        // tables (filled below) — a token here could only alias
        // distinct batches.
        let backend = &mut inner.backend;
        let result = contained(&shared.stats, || {
            backend.inc_batch_key(key, initiator, m, None).map_err(|_| ())
        });
        match result {
            Ok(KeyedReply::Fresh(first) | KeyedReply::Replay(first)) => {
                for (i, p) in waiters.iter().enumerate() {
                    let value = first + i as u64;
                    if let Some(session) = inner.sessions.get_mut(&p.session_id) {
                        session.answered.insert(p.request_id, value);
                        session.ops += 1;
                    }
                    shared.stats.ops.fetch_add(1, Ordering::Relaxed);
                    combine.answer(dups, p, WireMsg::IncOk { request_id: p.request_id, value });
                }
            }
            Ok(KeyedReply::Unrouted) => {
                for p in waiters {
                    combine.answer(dups, p, WireMsg::Err { code: ErrCode::NoSuchKey });
                }
            }
            // The batch's composition is not reproducible, so nothing
            // is pinned: the clients' retries re-enter a later round.
            Err(code) => {
                for p in waiters {
                    combine.answer(dups, p, WireMsg::Err { code });
                }
            }
        }
    }
    fresh.clear();
    debug_assert!(dups.is_empty(), "every duplicate shares its original's reply");
}

pub(crate) fn snapshot<B: CounterBackend + Send + 'static>(
    shared: &Arc<Shared<B>>,
) -> StatsSnapshot {
    let (processors, sessions, bottleneck, retirements, keyspace) = {
        let inner = shared.lock_inner();
        (
            inner.backend.processors() as u64,
            inner.next_session,
            inner.backend.bottleneck(),
            inner.backend.retirements(),
            inner.backend.keyspace_stats(),
        )
    };
    StatsSnapshot {
        processors,
        sessions,
        connections: shared.stats.connections.load(Ordering::Relaxed),
        ops: shared.stats.ops.load(Ordering::Relaxed),
        deduped: shared.stats.deduped.load(Ordering::Relaxed),
        wire_errors: shared.stats.wire_errors.load(Ordering::Relaxed),
        combined_traversals: shared.stats.combined_traversals.load(Ordering::Relaxed),
        shed: shared.stats.shed.load(Ordering::Relaxed),
        panics_contained: shared.stats.panics_contained.load(Ordering::Relaxed),
        bottleneck,
        retirements,
        keys_hosted: keyspace.keys_hosted,
        promotions: keyspace.promotions,
        demotions: keyspace.demotions,
        migrations_inflight: keyspace.migrations_inflight,
        accept_errors: shared.stats.accept_errors.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distctr_core::TreeCounter;

    fn pending(
        session_id: u64,
        request_id: u64,
        initiator: Option<u64>,
        token: usize,
    ) -> PendingInc {
        PendingInc {
            session_id,
            key: distctr_core::DEFAULT_KEY,
            request_id,
            initiator,
            token,
            inflight: Arc::new(AtomicUsize::new(1)),
        }
    }

    #[test]
    fn a_round_groups_by_initiator_in_queue_order_and_shares_a_repeated_request() {
        let (tx, rx) = mpsc::channel();
        let waker = Arc::new(Waker::new().expect("waker"));
        let combine = CombineState::new(tx, waker);
        let shared = Arc::new(Shared::new(
            TreeCounter::new(8).expect("tree"),
            ServerConfig::default(),
            None,
        ));
        let (a, _) = establish(&shared, None).expect("session a");
        let (b, _) = establish(&shared, None).expect("session b");
        // Queue order: an explicit initiator first, then two "don't care"
        // incs with a retry of the first of them between, then a request
        // from a session the server does not know.
        let mut drained = vec![
            pending(b, 0, Some(3), 10),
            pending(a, 0, None, 11),
            pending(a, 0, None, 12),
            pending(a, 1, None, 13),
            pending(99, 0, None, 14),
        ];
        let inflight: Vec<_> = drained.iter().map(|p| Arc::clone(&p.inflight)).collect();
        let mut round = Round::default();
        combine_round(&shared, &combine, &mut shared.lock_inner(), &mut drained, &mut round);
        let mut replies: Vec<(usize, WireMsg)> = rx.try_iter().collect();
        replies.sort_by_key(|&(token, _)| token);
        let ok = |request_id, value| WireMsg::IncOk { request_id, value };
        assert_eq!(
            replies,
            vec![
                (10, ok(0, 2)),
                (11, ok(0, 0)),
                (12, ok(0, 0)),
                (13, ok(1, 1)),
                (14, WireMsg::Err { code: ErrCode::UnknownSession }),
            ],
            "the None group climbs first, in queue order; the retry shares its original's value"
        );
        assert!(inflight.iter().all(|n| n.load(Ordering::SeqCst) == 0), "every waiter released");
        assert_eq!(shared.stats.deduped.load(Ordering::Relaxed), 1);
        assert_eq!(shared.stats.combined_traversals.load(Ordering::Relaxed), 2);
        assert!(drained.is_empty() && round.dups.is_empty() && round.fresh.is_empty());
    }
}
