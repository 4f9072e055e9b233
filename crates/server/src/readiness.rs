//! The serving engine: one reactor thread, every connection.
//!
//! A [`CounterServer`] is a single event loop over a
//! [`distctr_reactor::Poller`]: the listener, the server's wakeup pipe
//! and every client socket are level-triggered registrations, and each
//! connection is a small state machine owning its partial-frame read
//! buffer and its unsent write queue. A connection costs one slab slot,
//! not an OS thread — which is what lets one process hold 10,000+
//! concurrent connections (experiment E27).
//!
//! The protocol logic lives in [`crate::server`]: dispatch calls its
//! `establish`/`serve_op` helpers, and flat combining
//! enqueues into its combiner queue. The combiner thread must never
//! touch a nonblocking socket it does not own, so its replies travel
//! over a channel back to the reactor, which queues them behind the
//! connection's write buffer and flushes on writability.
//!
//! Every syscall on the path does work: a readable event costs one
//! `read` of up to `READ_BURST` bytes (both poller backends are
//! level-triggered, so bytes that arrive later are reported again),
//! the wakeup pipe is drained only when the poller reports it, and a
//! reply pass flushes each connection it wrote to once.
//!
//! Backpressure is interest, not blocking: a reply that does not fit
//! the socket buffer parks in the connection's
//! [`crate::wire::WriteBuffer`] and arms write interest; a connection
//! whose unsent queue passes a high-water mark loses read interest
//! until it drains (a peer that stops reading stops being read from).
//! Descriptor exhaustion is counted, not fatal: one waiting client is
//! answered `Busy` through the reserve descriptor, and the listener is
//! parked for a backoff instead of hot-looping on `EMFILE`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use distctr_core::{CounterBackend, DEFAULT_KEY};
use distctr_reactor::{is_fd_exhaustion, FdReserve, Interest, Poller, Waker};

use crate::error::{ErrCode, ServerError};
use crate::server::{
    combiner_loop, enqueue_inc, establish, serve_op, snapshot, wire_err_code, ActiveGuard,
    CombineState, CounterServer, ServerConfig, Shared,
};
use crate::wire::{encode_frame_into, try_decode_frame, WireMsg, WriteBuffer};

/// Reactor token of the listening socket.
const TOKEN_LISTENER: usize = 0;
/// Reactor token of the wakeup pipe.
const TOKEN_WAKER: usize = 1;
/// First connection token; slab slot `i` is token `TOKEN_BASE + i`.
const TOKEN_BASE: usize = 2;

/// Unsent-bytes threshold past which a connection loses read interest:
/// a peer that stops draining replies stops being read from, so its
/// buffered state stays bounded by what it already sent.
const WRITE_HIGH_WATER: usize = 64 * 1024;
/// Read-buffer bound: more unparsed bytes than this parks read
/// interest until dispatch catches up (cannot trigger with legal
/// frames under `WRITE_HIGH_WATER`, but a hostile peer must not grow
/// it unboundedly).
const READ_HIGH_WATER: usize = 64 * 1024;
/// Per-readable-event read budget, so one firehose connection cannot
/// starve the rest of the slab (level triggering re-reports the rest).
const READ_BURST: usize = 16 * 1024;

impl<B: CounterBackend + Send + 'static> CounterServer<B> {
    /// Serves `backend` on an ephemeral loopback port. Incs are served
    /// inline on the reactor thread (sequential mode).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CounterServer::serve_async_on_with`].
    pub fn serve_async(backend: B) -> Result<Self, ServerError> {
        Self::serve_async_on_with("127.0.0.1:0", backend, false, ServerConfig::default())
    }

    /// Serves `backend` on an ephemeral loopback port with the
    /// flat-combining inc path: the reactor enqueues incs for the
    /// combiner thread and the combiner's replies flow back through the
    /// reactor's reply channel (see [`crate::server`] for what combining
    /// changes).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CounterServer::serve_async_on_with`].
    pub fn serve_async_combining(backend: B) -> Result<Self, ServerError> {
        Self::serve_async_on_with("127.0.0.1:0", backend, true, ServerConfig::default())
    }

    /// Binds `addr` and starts the serving loop, hosting `backend` under
    /// `config`; `combining` selects the flat-combining inc path over
    /// the sequential one.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if binding, the poller, or spawning fails.
    pub fn serve_async_on_with(
        addr: impl ToSocketAddrs,
        backend: B,
        combining: bool,
        config: ServerConfig,
    ) -> Result<Self, ServerError> {
        let io = |e: std::io::Error| ServerError::Io(e.to_string());
        let listener = TcpListener::bind(addr).map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        listener.set_nonblocking(true).map_err(io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new().map_err(io)?);
        let (reply_tx, reply_rx) = mpsc::channel();
        let combine = combining.then(|| CombineState::new(reply_tx, Arc::clone(&waker)));
        let shared = Arc::new(Shared::new(backend, config, combine));
        // Fail construction, not the serving thread, if no poller can
        // be built or a registration is refused.
        let mut poller = Poller::new().map_err(io)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ).map_err(io)?;
        poller.register(waker.fd(), TOKEN_WAKER, Interest::READ).map_err(io)?;
        let combiner = if combining {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            Some(
                std::thread::Builder::new()
                    .name("distctr-combiner".into())
                    .spawn(move || combiner_loop(&shared, &stop))
                    .map_err(|e| ServerError::Io(e.to_string()))?,
            )
        } else {
            None
        };
        let reactor_handle = {
            let mut reactor = Reactor {
                listener,
                poller,
                shared: Arc::clone(&shared),
                stop: Arc::clone(&stop),
                draining: Arc::clone(&draining),
                waker: Arc::clone(&waker),
                conns: Vec::new(),
                free: Vec::new(),
                reply_rx,
                touched: Vec::new(),
                reserve: FdReserve::new(),
                paused_until: None,
                scratch: vec![0u8; READ_BURST],
                drained_once: false,
            };
            std::thread::Builder::new()
                .name("distctr-reactor".into())
                .spawn(move || reactor.run())
                .map_err(|e| ServerError::Io(e.to_string()))?
        };
        Ok(CounterServer {
            shared: Some(shared),
            stop,
            draining,
            addr,
            reactor: Some(reactor_handle),
            combiner,
            waker,
        })
    }
}

/// One connection's state machine: the socket, what arrived but has
/// not parsed into a frame yet, what was sent but not yet accepted by
/// the kernel, and where the session stands.
struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes (a frame torn across readable events
    /// accumulates here until `try_decode_frame` completes it).
    read_buf: Vec<u8>,
    /// Encoded-but-unsent outbound frames.
    write: WriteBuffer,
    /// `Some(session id)` once the handshake landed.
    session: Option<u64>,
    /// Queued combining incs whose replies have not been delivered.
    inflight: Arc<AtomicUsize>,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// The peer closed its write half (no more requests will arrive).
    peer_closed: bool,
    /// Protocol decision to close: serve nothing further, flush what
    /// is queued, then drop.
    closing: bool,
    /// Listed in the reactor's `touched` by the current reply pass.
    routed: bool,
    /// Decrements the server's active-connection count on drop.
    _guard: ActiveGuard,
}

impl Conn {
    /// Whether this connection has nothing left to do: no more reads
    /// will be served, every reply was handed to the kernel, and no
    /// combining reply is still in flight toward it.
    fn finished(&self) -> bool {
        (self.closing || self.peer_closed)
            && self.write.is_empty()
            && self.inflight.load(Ordering::SeqCst) == 0
    }

    /// The interest this state machine wants right now.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing
                && !self.peer_closed
                && self.write.pending() < WRITE_HIGH_WATER
                && self.read_buf.len() < READ_HIGH_WATER,
            writable: !self.write.is_empty(),
        }
    }
}

/// The single-threaded readiness loop; see the module docs.
struct Reactor<B: CounterBackend + Send + 'static> {
    listener: TcpListener,
    poller: Poller,
    shared: Arc<Shared<B>>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    waker: Arc<Waker>,
    /// Connection slab: token `TOKEN_BASE + i` lives in `conns[i]`.
    conns: Vec<Option<Conn>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<usize>,
    /// Combiner replies routed back to their connections' buffers.
    reply_rx: mpsc::Receiver<(usize, WireMsg)>,
    /// Connections a reply pass wrote to, each once; empty between
    /// passes and kept for its capacity.
    touched: Vec<usize>,
    /// Answers `EMFILE` with `Busy` instead of a hung client.
    reserve: FdReserve,
    /// While set, the listener's interest is parked (fd exhaustion
    /// backoff) and the poll carries a matching timeout.
    paused_until: Option<Instant>,
    /// Read scratch, shared across connections (one thread, one
    /// buffer — per-connection scratch would be 10k copies of it).
    scratch: Vec<u8>,
    /// The drain flag has been observed and the final read pass done.
    drained_once: bool,
}

impl<B: CounterBackend + Send + 'static> Reactor<B> {
    fn run(&mut self) {
        let mut events = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            // Fd-exhaustion backoff: re-arm the listener once the pause
            // expires; while paused, bound the wait by what remains.
            if let Some(until) = self.paused_until {
                if Instant::now() >= until
                    && self
                        .poller
                        .modify(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                        .is_ok()
                {
                    self.paused_until = None;
                }
            }
            let timeout = self.paused_until.map(|t| t.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    // Drained before this pass routes replies, so a wake
                    // that lands after the drain finds its reply routed
                    // here or reports the pipe again.
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.conn_event(token - TOKEN_BASE, ev.readable, ev.writable),
                }
            }
            if self.draining.load(Ordering::SeqCst) && !self.drained_once {
                self.drained_once = true;
                // The drain contract: bytes already received are still
                // read and served; after that, each connection closes
                // at its frame boundary.
                for slot in 0..self.conns.len() {
                    self.conn_event(slot, true, false);
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.closing = true;
                    }
                }
            }
            self.route_replies();
            self.close_finished();
        }
        // Hard stop: every connection drops (closing its socket); the
        // guards bring active_conns back to zero.
        self.conns.clear();
    }

    /// Accepts the whole burst behind one listener-readable event.
    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if is_fd_exhaustion(&e) => {
                    self.shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    let busy = self.shared.busy();
                    self.reserve.shed_one(&self.listener, |s| {
                        let _ = send_once(s, &busy);
                    });
                    if self
                        .poller
                        .modify(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::NONE)
                        .is_ok()
                    {
                        self.paused_until =
                            Some(Instant::now() + self.shared.config.busy_retry_after);
                    }
                    break;
                }
                Err(_) => {
                    self.shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    /// Admission control plus registration of one accepted stream.
    fn admit(&mut self, mut stream: TcpStream) {
        let at_cap = self
            .shared
            .config
            .max_conns
            .is_some_and(|cap| self.shared.active_conns.load(Ordering::SeqCst) >= cap);
        if self.draining.load(Ordering::SeqCst) || at_cap {
            let _ = send_once(&mut stream, &self.shared.busy());
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self.poller.register(stream.as_raw_fd(), TOKEN_BASE + slot, Interest::READ).is_err() {
            self.free.push(slot);
            return;
        }
        self.shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.shared.active_conns.fetch_add(1, Ordering::SeqCst);
        self.conns[slot] = Some(Conn {
            stream,
            read_buf: Vec::new(),
            write: WriteBuffer::new(),
            session: None,
            inflight: Arc::new(AtomicUsize::new(0)),
            interest: Interest::READ,
            peer_closed: false,
            closing: false,
            routed: false,
            _guard: ActiveGuard(Arc::clone(&self.shared.active_conns)),
        });
    }

    /// One connection's readiness: read and dispatch what arrived,
    /// flush what is queued, re-arm interest to match the new state.
    fn conn_event(&mut self, slot: usize, readable: bool, writable: bool) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        if readable && !conn.closing && !conn.peer_closed {
            self.fill_read_buf(&mut conn);
            self.dispatch_frames(slot, &mut conn);
        }
        if writable || !conn.write.is_empty() {
            self.flush(&mut conn);
        }
        self.park(slot, conn);
    }

    /// One `read` of up to the burst budget into the connection's
    /// buffer. A second read could only return `EAGAIN` or bytes that
    /// arrived since, which level triggering reports again.
    fn fill_read_buf(&mut self, conn: &mut Conn) {
        if conn.read_buf.len() >= READ_HIGH_WATER {
            return;
        }
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => conn.peer_closed = true,
                Ok(n) => conn.read_buf.extend_from_slice(&self.scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    // Transport failure: nothing further to serve and
                    // nothing worth flushing into a broken socket.
                    conn.peer_closed = true;
                    conn.closing = true;
                }
            }
            return;
        }
    }

    /// Parses and serves every complete frame buffered on `conn`.
    fn dispatch_frames(&mut self, slot: usize, conn: &mut Conn) {
        let mut parsed = 0usize;
        while !conn.closing {
            match try_decode_frame(&conn.read_buf[parsed..]) {
                Ok(None) => break,
                Ok(Some((msg, consumed))) => {
                    parsed += consumed;
                    self.serve_frame(slot, conn, msg);
                }
                Err(e) => {
                    // Count it, send the typed code if one maps, drop
                    // the connection — the stream is desynchronized.
                    self.shared.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                    if let Some(code) = wire_err_code(&e) {
                        conn.write.push(&WireMsg::Err { code });
                    }
                    conn.closing = true;
                }
            }
        }
        if parsed > 0 {
            conn.read_buf.drain(..parsed);
        }
        // EOF in the middle of a frame is a truncated frame, counted
        // apart from a clean close at a frame boundary.
        if conn.peer_closed && !conn.closing && !conn.read_buf.is_empty() {
            self.shared.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Serves one decoded frame against the protocol helpers of
    /// [`crate::server`].
    fn serve_frame(&mut self, slot: usize, conn: &mut Conn, msg: WireMsg) {
        let Some(session_id) = conn.session else {
            // Handshake: the first frame must be a Hello; anything else
            // is a protocol error.
            match msg {
                WireMsg::Hello { resume } => self.handshake(conn, resume),
                _ => {
                    self.shared.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                    conn.write.push(&WireMsg::Err { code: ErrCode::BadHandshake });
                    conn.closing = true;
                }
            }
            return;
        };
        match msg {
            WireMsg::Inc { request_id, initiator } => {
                self.inc(slot, conn, session_id, DEFAULT_KEY, request_id, initiator);
            }
            WireMsg::KeyInc { key, request_id, initiator } => {
                self.inc(slot, conn, session_id, key, request_id, initiator);
            }
            WireMsg::KeyBatchInc { key, request_id, count, initiator } => {
                let reply =
                    serve_op(&self.shared, session_id, key, request_id, initiator, Some(count));
                conn.write.push(&reply);
            }
            WireMsg::Read { key } => {
                let value = self.shared.lock_inner().backend.read_key(key);
                let reply = match value {
                    Some(value) => WireMsg::ReadOk { key, value },
                    None => WireMsg::Err { code: ErrCode::NoSuchKey },
                };
                conn.write.push(&reply);
            }
            WireMsg::Stats => {
                let reply = WireMsg::StatsOk(snapshot(&self.shared));
                conn.write.push(&reply);
            }
            WireMsg::Hello { .. } => {
                self.shared.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                conn.write.push(&WireMsg::Err { code: ErrCode::BadHandshake });
                conn.closing = true;
            }
            WireMsg::HelloOk { .. }
            | WireMsg::IncOk { .. }
            | WireMsg::BatchOk { .. }
            | WireMsg::StatsOk(_)
            | WireMsg::Busy { .. }
            | WireMsg::ReadOk { .. }
            | WireMsg::Err { .. } => {
                self.shared.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                conn.write.push(&WireMsg::Err { code: ErrCode::Malformed });
                conn.closing = true;
            }
        }
    }

    /// Resolves a handshake and queues the `HelloOk` (or the error).
    fn handshake(&mut self, conn: &mut Conn, resume: Option<u64>) {
        match establish(&self.shared, resume) {
            Ok((session_id, processor)) => {
                conn.session = Some(session_id);
                conn.write.push(&WireMsg::HelloOk { session: session_id, processor });
            }
            Err(code) => {
                conn.write.push(&WireMsg::Err { code });
                conn.closing = true;
            }
        }
    }

    /// One inc on the selected serving path: combining servers enqueue
    /// (the combiner's reply returns through the reply channel),
    /// sequential servers serve inline on the reactor thread.
    fn inc(
        &mut self,
        slot: usize,
        conn: &mut Conn,
        session_id: u64,
        key: u64,
        request_id: u64,
        initiator: Option<u64>,
    ) {
        match &self.shared.combine {
            Some(combine) => {
                let over_cap = self
                    .shared
                    .config
                    .max_inflight_per_conn
                    .is_some_and(|cap| conn.inflight.load(Ordering::SeqCst) >= cap);
                if over_cap {
                    let busy = self.shared.busy();
                    conn.write.push(&busy);
                    return;
                }
                enqueue_inc(combine, session_id, key, request_id, initiator, slot, &conn.inflight);
            }
            None => {
                let reply = serve_op(&self.shared, session_id, key, request_id, initiator, None);
                conn.write.push(&reply);
            }
        }
    }

    /// Flushes the connection's write queue as far as the kernel takes
    /// it; a short write leaves the tail queued and (via `park`) arms
    /// write interest.
    fn flush(&mut self, conn: &mut Conn) {
        if conn.write.flush_into(&mut conn.stream).is_err() {
            // Broken transport: replies can no longer be delivered.
            conn.closing = true;
            conn.peer_closed = true;
        }
    }

    /// Returns the connection to its slab slot with its interest
    /// matching its state.
    fn park(&mut self, slot: usize, mut conn: Conn) {
        let desired = conn.desired_interest();
        if desired != conn.interest
            && self.poller.modify(conn.stream.as_raw_fd(), TOKEN_BASE + slot, desired).is_ok()
        {
            conn.interest = desired;
        }
        self.conns[slot] = Some(conn);
    }

    /// Moves combiner replies from the channel into their connections'
    /// write buffers and flushes each touched connection once.
    fn route_replies(&mut self) {
        while let Ok((slot, msg)) = self.reply_rx.try_recv() {
            if let Some(Some(conn)) = self.conns.get_mut(slot) {
                conn.write.push(&msg);
                if !conn.routed {
                    conn.routed = true;
                    self.touched.push(slot);
                }
            }
            // A reply for a vanished connection is dropped; the value
            // is recorded in the session's answer table, so the
            // client's reconnect-resume-retry is answered exactly-once.
        }
        for i in 0..self.touched.len() {
            let slot = self.touched[i];
            if let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) {
                conn.routed = false;
                self.flush(&mut conn);
                self.park(slot, conn);
            }
        }
        self.touched.clear();
    }

    /// Closes every connection with nothing left to do. Two-phase: the
    /// candidate set is snapshotted *before* a final reply sweep, so a
    /// combining reply that raced the in-flight count to zero is
    /// already in the write buffer (making the candidate non-empty and
    /// keeping it alive) by the time the close is committed.
    fn close_finished(&mut self) {
        let candidates: Vec<usize> = (0..self.conns.len())
            .filter(|&i| self.conns[i].as_ref().is_some_and(Conn::finished))
            .collect();
        if candidates.is_empty() {
            return;
        }
        self.route_replies();
        for slot in candidates {
            let still_done = self.conns[slot].as_ref().is_some_and(Conn::finished);
            if still_done {
                if let Some(conn) = self.conns[slot].take() {
                    let _ = self.poller.deregister(conn.stream.as_raw_fd());
                    self.free.push(slot);
                    drop(conn);
                }
            }
        }
    }
}

/// Best-effort single-shot frame send on a socket we are about to
/// drop (admission sheds, the `EMFILE` reserve path): encode, offer
/// the kernel the bytes once, never block the reactor on a peer.
fn send_once(stream: &mut TcpStream, msg: &WireMsg) -> std::io::Result<()> {
    let _ = stream.set_nonblocking(true);
    let mut frame = Vec::with_capacity(24);
    encode_frame_into(msg, &mut frame);
    stream.write_all(&frame)
}
