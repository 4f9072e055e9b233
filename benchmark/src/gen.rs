//! The load generator: one thread, a few nonblocking connections over the
//! repo's own poller and codec, many ops in flight per connection.
//!
//! It never spins: between bursts it blocks in `Poller::wait`. Closed
//! loop by default (an op is replaced when its reply arrives); the open
//! loop is used once, as a per-layer probe.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::check::Checker;
use crate::rng::{Rng, Zipf};
use crate::sut::{self, Interest, PollEvent, Poller, Reply};
use crate::trace::Tracer;

/// Request ids are `sequence * SLOT_SPAN + slot`: unique per session, as
/// the server's dedup table requires, and the slot comes back for free.
const SLOT_SPAN: u64 = 1 << 16;
const READ_CHUNK: usize = 16 * 1024;
/// A generator that hears nothing for this long with ops in flight gives up.
const STALL: Duration = Duration::from_secs(5);
/// An open-loop op sent later than this after its due time counts as late.
const LATE: Duration = Duration::from_micros(100);

/// What the connections send.
#[derive(Debug, Clone)]
pub enum Mix {
    /// `Inc` on the session's counter.
    Unkeyed,
    /// `KeyInc` / `Read` on keys `1..=n` drawn from `keys`.
    Keyed { keys: Zipf, read_share: f64 },
}

#[derive(Debug, Clone)]
pub struct LoadSpec {
    pub conns: usize,
    /// Ops in flight per connection (closed loop).
    pub depth: usize,
    pub mix: Mix,
    /// The latency limit of `within_limit_share`.
    pub limit: Duration,
}

/// What one measured window saw.
#[derive(Debug, Default)]
pub struct Tally {
    pub acked: u64,
    pub failed: u64,
    /// Acked within the latency limit.
    pub within: u64,
    pub lat_ns: Vec<u32>,
    /// Open loop only: ops sent more than [`LATE`] after they were due.
    pub late: u64,
}

impl Tally {
    /// Adds a later tally to this one; its latencies go after this one's.
    pub fn absorb(&mut self, mut later: Tally) {
        self.acked += later.acked;
        self.failed += later.failed;
        self.within += later.within;
        self.late += later.late;
        self.lat_ns.append(&mut later.lat_ns);
    }
}

/// Timestamps of one sampled op, until its reply turns them into spans.
#[derive(Debug, Clone, Copy)]
struct Sample {
    op: u64,
    encode: (Instant, Instant),
    write: Option<(Instant, Instant)>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    request_id: u64,
    sent_at: Instant,
    key: u64,
    sample: Option<Sample>,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    wants_write: bool,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    next_seq: u64,
    /// Outstanding `Read`s in send order: the server answers them inline,
    /// so they come back in this order.
    reads: VecDeque<(Instant, u64)>,
    inflight: usize,
    /// Slots of sampled ops whose frame has not been written yet.
    unwritten_samples: Vec<usize>,
    last_read: (Instant, Instant),
}

pub struct Generator {
    poller: Poller,
    events: Vec<PollEvent>,
    conns: Vec<Conn>,
    scratch: Vec<u8>,
    spec: LoadSpec,
    rng: Rng,
    pub checker: Checker,
    recording: bool,
    tally: Tally,
    last_progress: Instant,
    pub tracer: Option<Tracer>,
}

fn io<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Generator {
    /// Connects and handshakes every connection. When this returns, the
    /// first measured op could be sent.
    pub fn connect(addr: SocketAddr, spec: LoadSpec, seed: u64) -> Result<Generator, String> {
        let mut poller = Poller::new().map_err(io("poller"))?;
        let mut conns = Vec::with_capacity(spec.conns);
        let now = Instant::now();
        for token in 0..spec.conns {
            let mut stream = TcpStream::connect(addr).map_err(io("connect"))?;
            stream.set_nodelay(true).map_err(io("nodelay"))?;
            let mut hello = Vec::new();
            sut::encode_hello(&mut hello);
            stream.write_all(&hello).map_err(io("hello"))?;
            let mut inbuf = Vec::new();
            let mut chunk = [0u8; 256];
            let used = loop {
                match sut::decode_reply(&inbuf)? {
                    Some((Reply::HelloOk, used)) => break used,
                    Some((other, _)) => return Err(format!("handshake answered {other:?}")),
                    None => {}
                }
                let n = stream.read(&mut chunk).map_err(io("handshake read"))?;
                if n == 0 {
                    return Err("server closed during the handshake".into());
                }
                inbuf.extend_from_slice(&chunk[..n]);
            };
            inbuf.drain(..used);
            stream.set_nonblocking(true).map_err(io("nonblocking"))?;
            poller.register(stream.as_raw_fd(), token, Interest::READ).map_err(io("register"))?;
            conns.push(Conn {
                stream,
                inbuf,
                out: Vec::with_capacity(4096),
                out_pos: 0,
                wants_write: false,
                slots: Vec::new(),
                free: Vec::new(),
                next_seq: 0,
                reads: VecDeque::new(),
                inflight: 0,
                unwritten_samples: Vec::new(),
                last_read: (now, now),
            });
        }
        Ok(Generator {
            poller,
            events: Vec::new(),
            conns,
            scratch: vec![0u8; READ_CHUNK],
            spec,
            rng: Rng::new(seed),
            checker: Checker::new(),
            recording: false,
            tally: Tally::default(),
            last_progress: now,
            tracer: None,
        })
    }

    fn stamp(&self) -> Option<Instant> {
        self.tracer.is_some().then(Instant::now)
    }

    fn inflight(&self) -> usize {
        self.conns.iter().map(|c| c.inflight).sum()
    }

    /// Encodes one op of the mix onto connection `c`, timed from `sent_at`.
    fn send_one(&mut self, c: usize, sent_at: Instant) {
        let sampled = self.tracer.as_mut().and_then(Tracer::next_op);
        let encode_start = sampled.map(|_| Instant::now());
        let (key, is_read) = match &self.spec.mix {
            Mix::Unkeyed => (0, false),
            Mix::Keyed { keys, read_share } => {
                let key = keys.sample(&mut self.rng) as u64 + 1;
                (key, self.rng.next_f64() < *read_share)
            }
        };
        let conn = &mut self.conns[c];
        conn.inflight += 1;
        if is_read {
            sut::encode_read(key, &mut conn.out);
            conn.reads.push_back((sent_at, key));
        } else {
            let slot = conn.free.pop().unwrap_or_else(|| {
                conn.slots.push(None);
                conn.slots.len() - 1
            });
            let request_id = conn.next_seq * SLOT_SPAN + slot as u64;
            conn.next_seq += 1;
            if key == 0 {
                sut::encode_inc(request_id, &mut conn.out);
            } else {
                sut::encode_key_inc(key, request_id, &mut conn.out);
            }
            let sample = sampled.zip(encode_start).map(|(op, start)| {
                conn.unwritten_samples.push(slot);
                Sample { op, encode: (start, Instant::now()), write: None }
            });
            conn.slots[slot] = Some(Slot { request_id, sent_at, key, sample });
        }
        if let Some(t) = &mut self.tracer {
            t.counts.frames_sent += 1;
        }
    }

    /// Writes as much of the connection's queue as the kernel takes.
    fn flush(&mut self, c: usize) -> Result<(), String> {
        let started = self.stamp();
        let conn = &mut self.conns[c];
        let mut wrote = false;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    conn.out_pos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        }
        let wants_write = !conn.out.is_empty();
        if wants_write != conn.wants_write {
            let interest = if wants_write { Interest::BOTH } else { Interest::READ };
            self.poller.modify(conn.stream.as_raw_fd(), c, interest).map_err(io("modify"))?;
            conn.wants_write = wants_write;
        }
        if let (Some(start), true) = (started, wrote) {
            let end = Instant::now();
            for slot in conn.unwritten_samples.drain(..) {
                if let Some(Some(Slot { sample: Some(sample), .. })) = conn.slots.get_mut(slot) {
                    sample.write = Some((start, end));
                }
            }
            if let Some(t) = &mut self.tracer {
                t.counts.write_ns += (end - start).as_nanos() as u64;
                t.counts.writes += 1;
            }
        }
        Ok(())
    }

    /// Reads what arrived on connection `c` and accounts every reply.
    fn drain_readable(&mut self, c: usize) -> Result<(), String> {
        let read_start = Instant::now();
        let mut got = 0usize;
        loop {
            match self.conns[c].stream.read(&mut self.scratch) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.conns[c].inbuf.extend_from_slice(&self.scratch[..n]);
                    got += n;
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        if got == 0 {
            return Ok(());
        }
        // Every reply in this batch became visible when the read returned.
        let now = Instant::now();
        self.conns[c].last_read = (read_start, now);
        let mut parsed = 0usize;
        let mut frames = 0u64;
        while let Some((reply, used)) = sut::decode_reply(&self.conns[c].inbuf[parsed..])? {
            parsed += used;
            frames += 1;
            self.on_reply(c, reply, now)?;
        }
        self.conns[c].inbuf.drain(..parsed);
        if frames > 0 {
            self.last_progress = now;
        }
        if let Some(t) = &mut self.tracer {
            t.counts.read_ns += (now - read_start).as_nanos() as u64;
            t.counts.decode_ns += now.elapsed().as_nanos() as u64;
            t.counts.reads += 1;
            t.counts.frames_received += frames;
        }
        Ok(())
    }

    fn on_reply(&mut self, c: usize, reply: Reply, now: Instant) -> Result<(), String> {
        let conn = &mut self.conns[c];
        let sent_at = match reply {
            Reply::Inc { request_id, value } => {
                let index = (request_id % SLOT_SPAN) as usize;
                let slot = conn
                    .slots
                    .get_mut(index)
                    .and_then(Option::take)
                    .filter(|s| s.request_id == request_id)
                    .ok_or_else(|| {
                        format!("reply to request {request_id}, which is not in flight")
                    })?;
                conn.free.push(index);
                self.checker.inc(slot.key, value);
                if let (Some(sample), Some(t)) = (slot.sample, &mut self.tracer) {
                    let (read_start, read_end) = conn.last_read;
                    let op = Some(sample.op);
                    let done = Instant::now();
                    let root = t.span("op", sample.encode.0, done, None, op);
                    t.span("gen.encode", sample.encode.0, sample.encode.1, Some(root), op);
                    let written = sample.write.map_or(sample.encode.1, |(start, end)| {
                        t.span("gen.write", start, end, Some(root), op);
                        end
                    });
                    // Loopback, the server, and the time the reply sat unread.
                    t.span("flight", written, read_start.max(written), Some(root), op);
                    t.span("gen.read", read_start.max(written), read_end, Some(root), op);
                    t.span("gen.decode", read_end, done, Some(root), op);
                }
                slot.sent_at
            }
            Reply::Read { key, value } => {
                let (sent_at, asked) =
                    conn.reads.pop_front().ok_or("a ReadOk nobody asked for".to_string())?;
                if asked != key {
                    return Err(format!("ReadOk for key {key} while key {asked} was next"));
                }
                self.checker.read(c, key, value);
                sent_at
            }
            Reply::Refused | Reply::HelloOk => {
                if self.recording {
                    self.tally.failed += 1;
                }
                return Err(format!("the server answered an op with {reply:?}"));
            }
        };
        conn.inflight -= 1;
        if self.recording {
            let lat = now.saturating_duration_since(sent_at);
            self.tally.acked += 1;
            self.tally.within += u64::from(lat <= self.spec.limit);
            self.tally.lat_ns.push(u32::try_from(lat.as_nanos()).unwrap_or(u32::MAX));
        }
        Ok(())
    }

    /// Blocks until something is ready or `timeout` passes, then serves it.
    fn wait_and_serve(&mut self, timeout: Duration) -> Result<(), String> {
        let started = self.stamp();
        self.poller.wait(&mut self.events, Some(timeout)).map_err(io("wait"))?;
        if let (Some(start), Some(t)) = (started, &mut self.tracer) {
            t.counts.wait_ns += start.elapsed().as_nanos() as u64;
        }
        for i in 0..self.events.len() {
            let ev = self.events[i];
            if ev.readable || ev.closed {
                self.drain_readable(ev.token)?;
            }
            if ev.writable {
                self.flush(ev.token)?;
            }
        }
        if self.inflight() > 0 && self.last_progress.elapsed() > STALL {
            return Err(format!("no reply for {STALL:?} with {} ops in flight", self.inflight()));
        }
        Ok(())
    }

    fn start_window(&mut self, record: bool) {
        self.recording = record;
        self.tally = Tally::default();
        self.last_progress = Instant::now();
    }

    /// Closed loop for `duration`, or until `max_ops` acks are tallied:
    /// every connection keeps `depth` ops in flight. With `record`, acks
    /// that arrive inside the window are tallied; either way every value
    /// goes to the checker.
    pub fn run_closed(
        &mut self,
        duration: Duration,
        record: bool,
        max_ops: u64,
    ) -> Result<Tally, String> {
        self.start_window(record);
        let end = Instant::now() + duration;
        loop {
            let now = Instant::now();
            if now >= end || self.tally.acked >= max_ops {
                break;
            }
            for c in 0..self.conns.len() {
                if self.conns[c].inflight < self.spec.depth {
                    let started = self.stamp();
                    while self.conns[c].inflight < self.spec.depth {
                        self.send_one(c, Instant::now());
                    }
                    if let (Some(start), Some(t)) = (started, &mut self.tracer) {
                        t.counts.encode_ns += start.elapsed().as_nanos() as u64;
                    }
                    self.flush(c)?;
                }
            }
            self.wait_and_serve((end - now).min(Duration::from_millis(50)))?;
        }
        self.recording = false;
        Ok(std::mem::take(&mut self.tally))
    }

    /// What the window tallied before `run_closed` failed.
    pub fn take_tally(&mut self) -> Tally {
        self.recording = false;
        std::mem::take(&mut self.tally)
    }

    /// Open loop for `duration`: op `i` is due at `start + i / rate`, is
    /// sent on the first loop turn at or after that, and is timed from
    /// when it was due.
    pub fn run_open(&mut self, rate: f64, duration: Duration) -> Result<Tally, String> {
        self.start_window(true);
        let start = Instant::now();
        let end = start + duration;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let mut injected = 0u32;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            while start + interval * injected <= now {
                let due = start + interval * injected;
                let c = injected as usize % self.conns.len();
                self.tally.late += u64::from(now - due > LATE);
                self.send_one(c, due);
                injected += 1;
            }
            for c in 0..self.conns.len() {
                if !self.conns[c].out.is_empty() {
                    self.flush(c)?;
                }
            }
            let next_due = (start + interval * injected).saturating_duration_since(Instant::now());
            self.wait_and_serve(next_due.min(end - now).max(Duration::from_micros(1)))?;
        }
        // The probe's ops all count: wait for the stragglers before tallying.
        self.finish()?;
        self.recording = false;
        Ok(std::mem::take(&mut self.tally))
    }

    /// Sends nothing more and waits for every op in flight to be answered,
    /// so the checker has seen every value the server granted.
    pub fn finish(&mut self) -> Result<(), String> {
        self.last_progress = Instant::now();
        while self.inflight() > 0 {
            self.wait_and_serve(Duration::from_millis(50))?;
        }
        Ok(())
    }
}
