//! The open-loop load driver: C10k's *client* half, and what
//! [`crate::run_load`] runs for [`crate::LoadMode::Open`].
//!
//! A thread per connection would cost 10,000 loadgen threads at C10k —
//! at that point the harness, not the server, is the experiment. So the
//! open-loop discipline (operations injected on a fixed schedule,
//! latency measured from the *scheduled* injection time) multiplexes
//! every connection over one thread and one
//! [`distctr_reactor::Poller`], mirroring the server's readiness loop
//! from the other side of the socket.
//!
//! Allocation discipline matters at this scale: each connection owns a
//! reusable read buffer and a [`crate::wire::WriteBuffer`] whose
//! storage is recycled across operations, so the steady state injects
//! and collects with **zero per-operation allocation** — the latency
//! tail measures the server, not the driver's allocator.
//!
//! The run has two phases. First a **ramp**: connections are opened on
//! an even schedule across a window that grows with their number
//! ([`ramp_for`]) and handshaken (`Hello`/`HelloOk`), so the server
//! absorbs admission gradually instead of as one thundering herd. Then
//! **injection**: operations fire at the configured total rate,
//! round-robin over the surviving connections (`Inc`, or `KeyInc` from
//! each connection's own key stream), and replies are matched back to
//! their scheduled times by echoed request id. A connection the server
//! sheds (`Busy`) or fails (`Err`, transport error) stops being
//! scheduled; its operations count as failed rather than silently
//! vanishing.

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use distctr_reactor::{Interest, Poller};

use crate::error::ServerError;
use crate::load::{key_stream, ConnReport, LoadConfig, LoadReport};
use crate::wire::{try_decode_frame, WireMsg, WriteBuffer};

/// Per-event read budget per connection, so one chatty connection
/// cannot starve the rest of a wait's batch.
const READ_CHUNK: usize = 16 * 1024;

/// How long to wait for straggling handshakes after the ramp, and for
/// straggling replies after the last operation is injected, before
/// counting them failed.
const GRACE: Duration = Duration::from_secs(30);

/// The window across which `conns` connections are opened and
/// handshaken, evenly spaced: ~2000 connects/second, floor 50 ms.
fn ramp_for(conns: usize) -> Duration {
    Duration::from_millis((conns as u64 / 2).max(50))
}

/// Where one multiplexed connection stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MuxState {
    /// `Hello` sent, `HelloOk` not yet received.
    Greeting,
    /// Handshaken; operations may be scheduled onto it.
    Running,
    /// Shed, failed, or hung up; skipped by the scheduler.
    Dead,
}

/// One connection's slot in the driver.
struct MuxConn {
    stream: TcpStream,
    /// Unparsed inbound bytes (reused across frames).
    read_buf: Vec<u8>,
    /// Encoded-but-unsent outbound frames (storage recycled).
    write: WriteBuffer,
    /// The interest currently registered with the poller.
    interest: Interest,
    state: MuxState,
    /// The next request id this connection will send.
    next_request: u64,
    /// This connection's key sequence in a keyed run.
    keys: Option<Box<dyn Iterator<Item = u64>>>,
    /// In-flight request id -> its *scheduled* injection time and the
    /// key it targets (0 in an unkeyed run).
    pending: HashMap<u64, (Instant, u64)>,
    /// In-flight ids in schedule order, so an unmatched `Busy` (the
    /// shed frame carries no request id) retires the oldest.
    order: VecDeque<u64>,
    /// What this connection acked so far.
    report: ConnReport,
}

/// The single-threaded driver state.
struct Mux {
    poller: Poller,
    conns: Vec<MuxConn>,
    /// Read scratch shared across connections.
    scratch: Vec<u8>,
    /// Acked `(key, value, latency_us)` triples.
    acked: Vec<(u64, u64, u64)>,
    failed: usize,
}

impl Mux {
    /// Registers interest matching the connection's buffered state.
    fn arm(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.state == MuxState::Dead {
            return;
        }
        let want = Interest { readable: true, writable: !conn.write.is_empty() };
        if want != conn.interest && self.poller.modify(conn.stream.as_raw_fd(), idx, want).is_ok() {
            conn.interest = want;
        }
    }

    /// Flushes the connection's write queue as far as the kernel takes
    /// it and re-arms interest.
    fn flush(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.state == MuxState::Dead {
            return;
        }
        if conn.write.flush_into(&mut conn.stream).is_err() {
            self.kill(idx);
            return;
        }
        self.arm(idx);
    }

    /// Marks a connection dead: its in-flight operations fail, its fd
    /// leaves the poll set, and the scheduler skips it from now on.
    fn kill(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.state == MuxState::Dead {
            return;
        }
        conn.state = MuxState::Dead;
        self.failed += conn.pending.len();
        conn.pending.clear();
        conn.order.clear();
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
    }

    /// Reads what arrived on `idx` and dispatches every complete frame.
    fn drain_readable(&mut self, idx: usize) {
        if self.conns[idx].state == MuxState::Dead {
            return;
        }
        let mut eof = false;
        let mut taken = 0usize;
        loop {
            let conn = &mut self.conns[idx];
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&self.scratch[..n]);
                    taken += n;
                    if taken >= READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        let mut parsed = 0usize;
        loop {
            let frame = try_decode_frame(&self.conns[idx].read_buf[parsed..]);
            match frame {
                Ok(Some((msg, consumed))) => {
                    parsed += consumed;
                    self.on_frame(idx, msg);
                    if self.conns[idx].state == MuxState::Dead {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.kill(idx);
                    return;
                }
            }
        }
        if parsed > 0 {
            self.conns[idx].read_buf.drain(..parsed);
        }
        if eof {
            self.kill(idx);
        }
    }

    /// One reply frame from the server.
    fn on_frame(&mut self, idx: usize, msg: WireMsg) {
        let conn = &mut self.conns[idx];
        match (conn.state, msg) {
            (MuxState::Greeting, WireMsg::HelloOk { .. }) => {
                conn.state = MuxState::Running;
            }
            (MuxState::Running, WireMsg::IncOk { request_id, value }) => {
                let Some((scheduled, key)) = conn.pending.remove(&request_id) else {
                    // A reply we never asked for: protocol violation.
                    self.kill(idx);
                    return;
                };
                conn.order.retain(|&id| id != request_id);
                let lat = Instant::now().saturating_duration_since(scheduled);
                let lat_us = lat.as_micros() as u64;
                conn.report.ops += 1;
                conn.report.max_us = conn.report.max_us.max(lat_us);
                self.acked.push((key, value, lat_us));
            }
            (MuxState::Running, WireMsg::Busy { .. }) => {
                // The shed frame names no request id; schedule order is
                // the server's service order, so the oldest in-flight
                // operation is the one that was refused.
                if let Some(oldest) = conn.order.pop_front() {
                    conn.pending.remove(&oldest);
                }
                self.failed += 1;
            }
            // Busy during the handshake (draining / at the connection
            // cap), an Err on either path, or any unexpected frame:
            // this connection is out of the run.
            _ => self.kill(idx),
        }
    }
}

/// Runs `cfg` open-loop at `rate` total operations/second against the
/// server at `addr`, multiplexing every connection over one thread, and
/// aggregates the result. The report's wall clock covers the injection
/// phase (the ramp is warmup, not measurement), and its `per_conn`
/// lists the connections that completed the handshake.
///
/// # Errors
///
/// [`ServerError::Io`] if the poller cannot be built or *no*
/// connection survives the ramp — individual connection failures are
/// counted, not fatal.
///
/// # Panics
///
/// Panics if `rate` is not positive.
pub(crate) fn run_open(
    addr: SocketAddr,
    cfg: &LoadConfig,
    rate: f64,
) -> Result<LoadReport, ServerError> {
    assert!(rate > 0.0, "open-loop rate must be positive");
    let io = |e: std::io::Error| ServerError::Io(e.to_string());
    let mut mux = Mux {
        poller: Poller::new().map_err(io)?,
        conns: Vec::with_capacity(cfg.conns),
        scratch: vec![0u8; READ_CHUNK],
        acked: Vec::with_capacity(cfg.ops),
        failed: 0,
    };
    let mut events = Vec::new();

    // --- Phase 1: ramp — connect and handshake on an even schedule.
    let ramp = ramp_for(cfg.conns);
    let ramp_start = Instant::now();
    let spacing = ramp.div_f64(cfg.conns as f64);
    let ramp_deadline = ramp_start + ramp + GRACE;
    let mut opened = 0usize;
    loop {
        while opened < cfg.conns
            && Instant::now() >= ramp_start + spacing.mul_f64(opened as f64)
            && Instant::now() < ramp_deadline
        {
            let idx = mux.conns.len();
            match connect_one(addr) {
                Ok(stream) => {
                    let mut conn = MuxConn {
                        stream,
                        read_buf: Vec::new(),
                        write: WriteBuffer::new(),
                        interest: Interest::READ,
                        state: MuxState::Greeting,
                        next_request: 0,
                        keys: cfg.key_mix.as_ref().map(|mix| {
                            Box::new(key_stream(mix, idx)) as Box<dyn Iterator<Item = u64>>
                        }),
                        pending: HashMap::new(),
                        order: VecDeque::new(),
                        report: ConnReport { ops: 0, max_us: 0 },
                    };
                    conn.write.push(&WireMsg::Hello { resume: None });
                    if mux.poller.register(conn.stream.as_raw_fd(), idx, Interest::READ).is_ok() {
                        mux.conns.push(conn);
                        mux.flush(idx);
                    } else {
                        mux.conns.push(conn);
                        mux.conns[idx].state = MuxState::Dead;
                    }
                }
                // Nothing ever connected: the address is wrong or the
                // server is down — that is a harness error, not a
                // capacity verdict.
                Err(e) if mux.conns.is_empty() => {
                    return Err(ServerError::Io(format!(
                        "connect {idx} of {} failed during ramp: {e}",
                        cfg.conns
                    )));
                }
                // A later connect timing out means the server stopped
                // absorbing the ramp. Stop opening and drive whatever
                // got established; the report's connection count
                // records the shortfall.
                Err(_) => {
                    opened = cfg.conns;
                    break;
                }
            }
            opened += 1;
        }
        let greeting = mux.conns.iter().filter(|c| c.state == MuxState::Greeting).count();
        if opened == cfg.conns && greeting == 0 {
            break;
        }
        if Instant::now() >= ramp_deadline {
            let stuck: Vec<usize> = (0..mux.conns.len())
                .filter(|&i| mux.conns[i].state == MuxState::Greeting)
                .collect();
            for idx in stuck {
                mux.kill(idx);
            }
            break;
        }
        let next_connect = (opened < cfg.conns).then(|| {
            (ramp_start + spacing.mul_f64(opened as f64)).saturating_duration_since(Instant::now())
        });
        let timeout =
            next_connect.unwrap_or(Duration::from_millis(20)).min(Duration::from_millis(20));
        mux.poller.wait(&mut events, Some(timeout)).map_err(io)?;
        for ev in events.iter().copied() {
            mux.drain_readable(ev.token);
            if ev.writable {
                mux.flush(ev.token);
            }
        }
    }
    // A connection the server refused at `Hello` (or that never left
    // `Greeting`) is not part of the run: it is never scheduled and
    // never reported.
    let alive: Vec<usize> =
        (0..mux.conns.len()).filter(|&i| mux.conns[i].state == MuxState::Running).collect();
    if alive.is_empty() {
        return Err(ServerError::Io("no connection survived the ramp".into()));
    }

    // --- Phase 2: injection at `rate`, round-robin over survivors.
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut injected = 0usize;
    let mut alive_cursor = 0usize;
    loop {
        // Inject everything that is due.
        while injected < cfg.ops {
            let due = start + interval.mul_f64(injected as f64);
            if Instant::now() < due {
                break;
            }
            // Round-robin over connections that are still running (a
            // dead one fails its share instead of stalling the
            // schedule).
            let mut placed = false;
            for _ in 0..alive.len() {
                let idx = alive[alive_cursor % alive.len()];
                alive_cursor += 1;
                if mux.conns[idx].state != MuxState::Running {
                    continue;
                }
                let conn = &mut mux.conns[idx];
                let request_id = conn.next_request;
                conn.next_request += 1;
                let key = conn.keys.as_mut().and_then(Iterator::next);
                conn.pending.insert(request_id, (due, key.unwrap_or(0)));
                conn.order.push_back(request_id);
                conn.write.push(&match key {
                    Some(key) => WireMsg::KeyInc { key, request_id, initiator: None },
                    None => WireMsg::Inc { request_id, initiator: None },
                });
                mux.flush(idx);
                placed = true;
                break;
            }
            if !placed {
                mux.failed += 1;
            }
            injected += 1;
        }
        let outstanding: usize = mux.conns.iter().map(|c| c.pending.len()).sum();
        if injected == cfg.ops && outstanding == 0 {
            break;
        }
        let last_due = start + interval.mul_f64(cfg.ops.saturating_sub(1) as f64);
        if injected == cfg.ops && Instant::now() >= last_due + GRACE {
            // Stragglers past the grace window: count them failed.
            mux.failed += outstanding;
            break;
        }
        let timeout = if injected < cfg.ops {
            (start + interval.mul_f64(injected as f64)).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(20)
        }
        .min(Duration::from_millis(20))
        .max(Duration::from_micros(100));
        mux.poller.wait(&mut events, Some(timeout)).map_err(io)?;
        for ev in events.iter().copied() {
            mux.drain_readable(ev.token);
            if ev.writable {
                mux.flush(ev.token);
            }
        }
    }
    let wall = start.elapsed();

    let per_conn = alive.iter().map(|&idx| mux.conns[idx].report.clone()).collect();
    Ok(LoadReport::assemble(cfg, mux.acked, per_conn, mux.failed, wall))
}

/// One blocking loopback connect, bounded so a saturated server (SYN
/// backlog full, kernel retransmitting) stalls the ramp for at most a
/// second instead of minutes of serialized TCP backoff; made
/// nonblocking before it joins the poll set.
fn connect_one(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::run_load;
    use crate::server::CounterServer;
    use distctr_core::TreeCounter;

    #[test]
    fn the_open_loop_drives_an_async_combining_server() {
        let backend = TreeCounter::new(8).expect("tree");
        let mut server = CounterServer::serve_async_combining(backend).expect("serve");
        let report =
            run_load(server.local_addr(), &LoadConfig::open(8, 200, 4000.0)).expect("open run");
        assert_eq!(report.failed, 0, "no shed ops at this load");
        assert!(report.values_are_sequential_from(0), "exactly-once over the open-loop driver");
        assert_eq!(report.ops, 200);
        assert_eq!(report.offered_rate, Some(4000.0));
        assert_eq!(report.per_conn.len(), 8);
        assert!(report.per_conn.iter().all(|c| c.ops > 0), "round-robin reached every conn");
        server.shutdown().expect("shutdown");
    }

    #[test]
    fn the_ramp_scales_with_the_connection_count() {
        let ms = |conns| ramp_for(conns).as_millis();
        // What E27 passed explicitly before the ramp was derived here.
        assert_eq!([32, 256, 1000, 4000, 10_000].map(ms), [50, 128, 500, 2000, 5000]);
        assert_eq!(ms(1), 50, "floor");
        assert!((1..20_000).all(|c| ms(c) <= ms(c + 1)), "monotone in the connection count");
    }
}
