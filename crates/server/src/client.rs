//! The native client: a counter whose network is a real TCP connection.
//!
//! [`RemoteCounter`] speaks the wire protocol of [`crate::wire`] and
//! implements the same [`CounterBackend`] interface as the local
//! backends, so everything that drives a `TreeCounter` or a
//! `ThreadedTreeCounter` — tests, experiments, the load generator — can
//! drive a counter on the other end of a socket unchanged.
//!
//! Reconnect-and-retry is first-class **and automatic**: every
//! operation runs under the client's [`RetryPolicy`]. A transport
//! failure mid-operation makes the client resume its session
//! ([`RemoteCounter::session`] is the token) and replay the *same*
//! request id, landing on the server's dedup state so the increment
//! applies exactly once no matter how many times the connection died. A
//! [`WireMsg::Busy`] load-shed reply makes it back off for the server's
//! `retry_after_ms` hint (plus jitter) before retrying. The manual
//! hooks ([`RemoteCounter::resume`], [`RemoteCounter::inc_with_id`])
//! remain for callers orchestrating their own recovery.
//!
//! Replies, the handshake's included, are read into a
//! [`crate::wire::FrameReader`] the client keeps, so a reply costs one
//! `read` and no allocation; a reconnect forgets whatever the old stream
//! left there.

use std::cell::RefCell;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use distctr_core::{CounterBackend, DEFAULT_KEY};
use distctr_sim::ProcessorId;

use crate::error::{ErrCode, ServerError};
use crate::wire::{write_frame, write_frame_buf, FrameReader, StatsSnapshot, WireMsg};

/// Jittered-exponential-backoff retry budget: how a [`RemoteCounter`]
/// turns transient failures (dead connections, corrupted frames,
/// [`WireMsg::Busy`] load sheds, backend hiccups) into delay instead of
/// errors. Exactly-once is preserved across every retry because the
/// replay carries the original request id into the server's dedup
/// state.
///
/// The backoff before retry `n` is drawn uniformly from
/// `[d/2, d]` where `d = min(base_backoff · 2ⁿ, max_backoff)` —
/// "equal jitter", which decorrelates a thundering herd of clients
/// shed at the same instant. A `Busy { retry_after_ms }` reply
/// overrides the exponential base with the server's hint (still
/// jittered).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per operation beyond the first attempt; `0`
    /// disables retrying entirely.
    pub max_retries: u32,
    /// First-retry backoff; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
    /// Seed of the jitter stream, so a test run's delays are
    /// reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            seed: 0x5DEE_CE66_D5DE_ECE6,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every failure surfaces immediately,
    /// exactly as the pre-policy client behaved.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// The default policy with a different retry budget.
    #[must_use]
    pub fn with_budget(max_retries: u32) -> Self {
        RetryPolicy { max_retries, ..RetryPolicy::default() }
    }

    /// The backoff before retry number `attempt` (0-based), honoring a
    /// server `retry_after_ms` hint when one was given.
    fn backoff(&self, attempt: u32, hint_ms: Option<u64>, rng: &mut u64) -> Duration {
        let base = match hint_ms {
            Some(ms) => Duration::from_millis(ms),
            None => self.base_backoff.saturating_mul(1u32 << attempt.min(16)),
        };
        let nanos = base.min(self.max_backoff).as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let half = nanos / 2;
        Duration::from_nanos(half + xorshift(rng) % (nanos - half + 1))
    }
}

/// One step of xorshift64 — all the randomness jitter needs, with no
/// dependency and reproducible from [`RetryPolicy::seed`].
fn xorshift(state: &mut u64) -> u64 {
    if *state == 0 {
        *state = 0x9E37_79B9_7F4A_7C15;
    }
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Tunable knobs of a [`RemoteCounter`]. The default reproduces the
/// historical timeout (10 s) and adds an 8-retry policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Client-side guard against a wedged server: every reply must
    /// arrive within this window.
    pub reply_timeout: Duration,
    /// How failures are retried; [`RetryPolicy::none`] restores
    /// fail-fast behavior.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { reply_timeout: Duration::from_secs(10), retry: RetryPolicy::default() }
    }
}

/// Whether an error is worth retrying: transient transport, overload
/// and backend failures are; protocol refusals (bad initiator, unknown
/// session, malformed request) never change on retry.
fn retryable(e: &ServerError) -> bool {
    match e {
        ServerError::Wire(_) | ServerError::Io(_) | ServerError::Busy { .. } => true,
        // Decode-failure codes (`Corrupt`, `Oversized`, `UnknownTag`,
        // `Malformed`) mean the server could not parse what arrived —
        // on a damaged network that is the *transport's* fault, not a
        // protocol bug, so the request is replayed on a fresh
        // connection. A genuinely broken client is still bounded by
        // the retry budget.
        ServerError::Remote(code) => matches!(
            code,
            ErrCode::Backend
                | ErrCode::Corrupt
                | ErrCode::Oversized
                | ErrCode::UnknownTag
                | ErrCode::Malformed
        ),
        _ => false,
    }
}

/// Whether the connection must be re-established before retrying.
/// `Busy` and backend errors leave the stream framed and healthy; any
/// codec or transport failure — reported locally (`Wire`/`Io`) or by
/// the server (a decode-failure code, after which the server closes) —
/// means the stream position can no longer be trusted.
fn needs_reconnect(e: &ServerError) -> bool {
    matches!(
        e,
        ServerError::Wire(_)
            | ServerError::Io(_)
            | ServerError::Remote(
                ErrCode::Corrupt | ErrCode::Oversized | ErrCode::UnknownTag | ErrCode::Malformed
            )
    )
}

/// The server's backoff hint, if the failure carried one.
fn busy_hint(e: &ServerError) -> Option<u64> {
    match e {
        ServerError::Busy { retry_after_ms } => Some(*retry_after_ms),
        _ => None,
    }
}

/// A counter served over TCP.
///
/// # Examples
///
/// ```
/// use distctr_net::ThreadedTreeCounter;
/// use distctr_server::{CounterServer, RemoteCounter, ServerError};
///
/// # fn main() -> Result<(), ServerError> {
/// let backend = ThreadedTreeCounter::new(8).map_err(|e| ServerError::Backend(e.to_string()))?;
/// let mut server = CounterServer::serve_async(backend)?;
/// let mut counter = RemoteCounter::connect(server.local_addr())?;
/// assert_eq!(counter.inc()?, 0);
/// assert_eq!(counter.inc()?, 1);
/// server.shutdown()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RemoteCounter {
    stream: TcpStream,
    addr: SocketAddr,
    session: u64,
    processor: u64,
    processors: u64,
    /// The counter key `inc`/`inc_batch` target (`None`: key 0, through
    /// the short `Inc` form), set by [`RemoteCounter::connect_keyed`].
    key: Option<u64>,
    next_request: u64,
    config: ClientConfig,
    /// Jitter stream state (see [`RetryPolicy::seed`]).
    rng: u64,
    /// Reused frame-encoding buffer: a long-lived client sends every
    /// request without a per-message allocation.
    scratch: Vec<u8>,
    /// Reply bytes read but not yet decoded. A cell, so the `&self`
    /// accessors of [`CounterBackend`] read through it too.
    replies: RefCell<FrameReader>,
}

impl RemoteCounter {
    /// Connects to a [`crate::CounterServer`] at `addr` and opens a
    /// fresh session, with [`ClientConfig::default`] knobs.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] on connect failure; [`ServerError::Wire`],
    /// [`ServerError::Remote`] or [`ServerError::Protocol`] on a failed
    /// handshake; [`ServerError::Busy`] (possibly wrapped in
    /// [`ServerError::RetriesExhausted`]) if the server keeps shedding.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServerError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`RemoteCounter::connect`] with explicit knobs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::connect`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ServerError> {
        Self::handshake_retrying(addr, None, config)
    }

    /// [`RemoteCounter::connect`], for a client whose [`RemoteCounter::inc`]
    /// and [`RemoteCounter::inc_batch`] target counter `key`: the client
    /// remembers the key and sends it on every request (the session
    /// itself is keyless), so its own reconnects keep it. The server must
    /// host a keyed backend for any non-zero key (otherwise the first
    /// operation reports `NoSuchKey`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::connect`].
    pub fn connect_keyed(addr: impl ToSocketAddrs, key: u64) -> Result<Self, ServerError> {
        let mut counter = Self::connect(addr)?;
        counter.key = Some(key);
        Ok(counter)
    }

    /// Reconnects to `addr` and resumes session `session` (from
    /// [`RemoteCounter::session`] of a previous connection), keeping its
    /// server-side dedup state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::connect`];
    /// [`ServerError::Remote`] with `UnknownSession` if the server does
    /// not know the session.
    pub fn resume(addr: impl ToSocketAddrs, session: u64) -> Result<Self, ServerError> {
        Self::handshake_retrying(addr, Some(session), ClientConfig::default())
    }

    /// [`RemoteCounter::resume`] with explicit knobs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::resume`].
    pub fn resume_with(
        addr: impl ToSocketAddrs,
        session: u64,
        config: ClientConfig,
    ) -> Result<Self, ServerError> {
        Self::handshake_retrying(addr, Some(session), config)
    }

    /// Connect-and-handshake under the retry policy: a server that
    /// sheds the connection with `Busy` (draining, or at its admission
    /// cap) is retried after its hint, like any shed operation.
    fn handshake_retrying(
        addr: impl ToSocketAddrs,
        resume: Option<u64>,
        config: ClientConfig,
    ) -> Result<Self, ServerError> {
        let mut rng = config.retry.seed;
        let mut attempt = 0u32;
        loop {
            let e = match Self::handshake(&addr, resume, &config) {
                Ok(mut counter) => {
                    counter.rng = rng;
                    return Ok(counter);
                }
                Err(e) => e,
            };
            if !retryable(&e) {
                return Err(e);
            }
            if attempt >= config.retry.max_retries {
                return if config.retry.max_retries == 0 {
                    Err(e)
                } else {
                    Err(ServerError::RetriesExhausted(Box::new(e)))
                };
            }
            std::thread::sleep(config.retry.backoff(attempt, busy_hint(&e), &mut rng));
            attempt += 1;
        }
    }

    /// One handshake attempt, no retries.
    fn handshake(
        addr: impl ToSocketAddrs,
        resume: Option<u64>,
        config: &ClientConfig,
    ) -> Result<Self, ServerError> {
        let mut replies = FrameReader::new();
        let (stream, session, processor) = Self::dial(&addr, resume, config, &mut replies)?;
        let addr = stream.peer_addr().map_err(|e| ServerError::Io(e.to_string()))?;
        let mut counter = RemoteCounter {
            stream,
            addr,
            session,
            processor,
            processors: 0,
            key: None,
            next_request: 0,
            rng: config.retry.seed,
            config: config.clone(),
            scratch: Vec::with_capacity(64),
            replies: RefCell::new(replies),
        };
        counter.processors = counter.stats()?.processors;
        Ok(counter)
    }

    /// Dials the server and completes the Hello exchange, reading the
    /// reply through `replies` (empty), and returns the raw pieces —
    /// shared by first connects and mid-operation reconnects.
    fn dial(
        addr: impl ToSocketAddrs,
        resume: Option<u64>,
        config: &ClientConfig,
        replies: &mut FrameReader,
    ) -> Result<(TcpStream, u64, u64), ServerError> {
        let mut stream = TcpStream::connect(addr).map_err(|e| ServerError::Io(e.to_string()))?;
        stream.set_nodelay(true).map_err(|e| ServerError::Io(e.to_string()))?;
        stream
            .set_read_timeout(Some(config.reply_timeout))
            .map_err(|e| ServerError::Io(e.to_string()))?;
        write_frame(&mut stream, &WireMsg::Hello { resume })?;
        match replies.next_frame(&mut stream)? {
            WireMsg::HelloOk { session, processor } => Ok((stream, session, processor)),
            WireMsg::Busy { retry_after_ms } => Err(ServerError::Busy { retry_after_ms }),
            WireMsg::Err { code } => Err(ServerError::Remote(code)),
            other => Err(unexpected(&other)),
        }
    }

    /// Re-establishes the connection and resumes this session, keeping
    /// the server-side dedup state the retry loop replays into.
    fn reconnect(&mut self) -> Result<(), ServerError> {
        let replies = self.replies.get_mut();
        replies.clear();
        let (stream, session, processor) =
            Self::dial(self.addr, Some(self.session), &self.config, replies)?;
        self.stream = stream;
        self.session = session;
        self.processor = processor;
        Ok(())
    }

    /// Runs one operation under the retry policy: backoff on transient
    /// failures (honoring `Busy` hints), resume the session when the
    /// transport died, and replay the same request — then report
    /// [`ServerError::RetriesExhausted`] once the budget is spent.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let mut attempt = 0u32;
        loop {
            let e = match op(self) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if !retryable(&e) {
                return Err(e);
            }
            if attempt >= self.config.retry.max_retries {
                return if self.config.retry.max_retries == 0 {
                    Err(e)
                } else {
                    Err(ServerError::RetriesExhausted(Box::new(e)))
                };
            }
            let delay = self.config.retry.backoff(attempt, busy_hint(&e), &mut self.rng);
            std::thread::sleep(delay);
            if needs_reconnect(&e) {
                // Best-effort: if the redial fails, the next attempt of
                // `op` surfaces a fresh transport error and the loop
                // charges another attempt against the budget.
                let _ = self.reconnect();
            }
            attempt += 1;
        }
    }

    /// The session id — the resume token for [`RemoteCounter::resume`].
    #[must_use]
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The processor this session's operations are charged to by
    /// default.
    #[must_use]
    pub fn processor(&self) -> ProcessorId {
        ProcessorId::new(self.processor as usize)
    }

    /// The server's address.
    #[must_use]
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The knobs this client runs under.
    #[must_use]
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Request ids handed out so far; `next_request_id - 1` is the id of
    /// the operation in flight when a connection dies mid-`inc`, which is
    /// what [`RemoteCounter::inc_with_id`] replays after a resume.
    #[must_use]
    pub fn next_request_id(&self) -> u64 {
        self.next_request
    }

    /// Executes one `inc` charged to the session's processor, against
    /// the client's key (see [`RemoteCounter::connect_keyed`]), retrying
    /// per the [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Wire`] on transport failure once retries are
    /// spent; [`ServerError::Remote`] if the server reports one.
    pub fn inc(&mut self) -> Result<u64, ServerError> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.inc_with_id(request_id, None)
    }

    /// Executes one `inc` charged to an explicit initiating processor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc`], plus
    /// [`ServerError::Remote`] with `BadInitiator` if out of range.
    pub fn inc_as(&mut self, initiator: ProcessorId) -> Result<u64, ServerError> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.inc_with_id(request_id, Some(initiator.index() as u64))
    }

    /// Executes (or replays) an `inc` under an explicit request id: the
    /// exactly-once retry hook, itself run under the retry policy.
    /// Replaying an id the server has seen is answered from its dedup
    /// state without incrementing again.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc`].
    pub fn inc_with_id(
        &mut self,
        request_id: u64,
        initiator: Option<u64>,
    ) -> Result<u64, ServerError> {
        match self.key {
            Some(key) => self.inc_key_with_id(key, request_id, initiator),
            None => self.op(request_id, &WireMsg::Inc { request_id, initiator }),
        }
    }

    /// Executes a batch of `count` incs against the client's key as one
    /// request and one backend traversal, returning the first value of
    /// the granted contiguous range `[first, first + count)`. A batch of
    /// 0 is a batch of 1, as on every backend.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc`].
    pub fn inc_batch(&mut self, count: u64) -> Result<u64, ServerError> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.inc_batch_with_id(request_id, count, None)
    }

    /// Executes (or replays) a batch under an explicit request id — the
    /// batch analogue of [`RemoteCounter::inc_with_id`]. A replay must
    /// repeat the same `count` and is answered with the original range.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc`].
    pub fn inc_batch_with_id(
        &mut self,
        request_id: u64,
        count: u64,
        initiator: Option<u64>,
    ) -> Result<u64, ServerError> {
        let key = self.key.unwrap_or(DEFAULT_KEY);
        self.inc_batch_key_with_id(key, request_id, count, initiator)
    }

    /// The key set by [`RemoteCounter::connect_keyed`], if any.
    #[must_use]
    pub fn key(&self) -> Option<u64> {
        self.key
    }

    /// Executes one `inc` against counter `key` (regardless of the
    /// client's own key), retrying per the [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc`], plus
    /// [`ServerError::Remote`] with `NoSuchKey` if the server does not
    /// route the key.
    pub fn inc_key(&mut self, key: u64) -> Result<u64, ServerError> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.inc_key_with_id(key, request_id, None)
    }

    /// Executes (or replays) a keyed `inc` under an explicit request id
    /// — the keyed [`RemoteCounter::inc_with_id`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc_key`].
    pub fn inc_key_with_id(
        &mut self,
        key: u64,
        request_id: u64,
        initiator: Option<u64>,
    ) -> Result<u64, ServerError> {
        self.op(request_id, &WireMsg::KeyInc { key, request_id, initiator })
    }

    /// Executes a batch of `count` incs against counter `key` as one
    /// request, returning the first value of the granted range.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc_key`].
    pub fn inc_batch_key(&mut self, key: u64, count: u64) -> Result<u64, ServerError> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.inc_batch_key_with_id(key, request_id, count, None)
    }

    /// Executes (or replays) a keyed batch under an explicit request id.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc_key`].
    pub fn inc_batch_key_with_id(
        &mut self,
        key: u64,
        request_id: u64,
        count: u64,
        initiator: Option<u64>,
    ) -> Result<u64, ServerError> {
        // The server rejects a batch of 0 as malformed; granting one
        // value matches every backend's reading of it.
        let count = count.max(1);
        self.op(request_id, &WireMsg::KeyBatchInc { key, request_id, count, initiator })
    }

    /// Runs `request` under the retry policy as request `request_id`.
    fn op(&mut self, request_id: u64, request: &WireMsg) -> Result<u64, ServerError> {
        self.next_request = self.next_request.max(request_id + 1);
        self.with_retry(|c| c.raw_op(request, request_id))
    }

    /// Sends one `Inc`/`KeyInc`/`KeyBatchInc` request and
    /// returns the value (or the first value of the range) its reply
    /// grants: `IncOk` for a unit request, `BatchOk` for a batch, each
    /// echoing `request_id`.
    fn raw_op(&mut self, request: &WireMsg, request_id: u64) -> Result<u64, ServerError> {
        let batch = matches!(request, WireMsg::KeyBatchInc { .. });
        self.send(request)?;
        let (rid, first) = match self.receive()? {
            WireMsg::IncOk { request_id, value } if !batch => (request_id, value),
            WireMsg::BatchOk { request_id, first, .. } if batch => (request_id, first),
            other => return Err(unexpected(&other)),
        };
        if rid != request_id {
            return Err(ServerError::Protocol(format!(
                "reply for request {rid} while {request_id} was in flight"
            )));
        }
        Ok(first)
    }

    /// Reads counter `key`'s current value without incrementing,
    /// retrying per the [`RetryPolicy`]. Reads have no side effect, so
    /// retrying them is trivially safe.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc_key`].
    pub fn read(&mut self, key: u64) -> Result<u64, ServerError> {
        self.with_retry(|c| {
            c.send(&WireMsg::Read { key })?;
            match c.receive()? {
                WireMsg::ReadOk { key: k, value } if k == key => Ok(value),
                WireMsg::ReadOk { key: k, .. } => Err(ServerError::Protocol(format!(
                    "ReadOk for key {k} while {key} was in flight"
                ))),
                other => Err(unexpected(&other)),
            }
        })
    }

    /// Fetches the server's statistics snapshot.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RemoteCounter::inc`].
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServerError> {
        self.send(&WireMsg::Stats)?;
        match self.receive()? {
            WireMsg::StatsOk(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Like [`RemoteCounter::stats`], but usable through a shared
    /// reference (TCP reads and writes only need `&TcpStream`); backs
    /// the [`CounterBackend`] accessors.
    fn stats_shared(&self) -> Result<StatsSnapshot, ServerError> {
        let mut half = &self.stream;
        write_frame(&mut half, &WireMsg::Stats)?;
        let reply = self.replies.borrow_mut().next_frame(&mut half)?;
        match reply {
            WireMsg::StatsOk(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    fn send(&mut self, msg: &WireMsg) -> Result<(), ServerError> {
        write_frame_buf(&mut self.stream, msg, &mut self.scratch).map_err(ServerError::Wire)
    }

    fn receive(&mut self) -> Result<WireMsg, ServerError> {
        match self.replies.get_mut().next_frame(&mut self.stream)? {
            WireMsg::Err { code } => Err(ServerError::Remote(code)),
            WireMsg::Busy { retry_after_ms } => Err(ServerError::Busy { retry_after_ms }),
            msg => Ok(msg),
        }
    }
}

fn unexpected(msg: &WireMsg) -> ServerError {
    match msg {
        WireMsg::Err { code } => ServerError::Remote(*code),
        WireMsg::Busy { retry_after_ms } => ServerError::Busy { retry_after_ms: *retry_after_ms },
        other => ServerError::Protocol(format!("unexpected frame {other:?}")),
    }
}

impl CounterBackend for RemoteCounter {
    type Error = ServerError;

    fn processors(&self) -> usize {
        self.processors as usize
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error> {
        self.inc_as(initiator)
    }

    fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, Self::Error> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.inc_batch_with_id(request_id, count, Some(initiator.index() as u64))
    }

    fn bottleneck(&self) -> u64 {
        self.stats_shared().map_or(0, |s| s.bottleneck)
    }

    fn retirements(&self) -> u64 {
        self.stats_shared().map_or(0, |s| s.retirements)
    }
}
