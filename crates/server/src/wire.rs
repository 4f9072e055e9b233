//! The length-prefixed binary wire codec.
//!
//! Every frame is a little-endian `u32` payload length, a little-endian
//! `u32` CRC-32 of the payload, then the payload: one tag byte and
//! fixed-width little-endian fields. The format is deliberately
//! minimal — no self-describing envelope, no registry dependencies —
//! but decoding is hardened: a partial read surfaces as
//! [`WireError::Truncated`] (never a panic or a wedged loop), a length
//! prefix beyond [`MAX_FRAME`] is rejected *before* any allocation as
//! [`WireError::Oversized`], a payload whose bytes were damaged in
//! transit fails the checksum as [`WireError::Checksum`] (TCP's own
//! checksum is weak, and the chaos proxy's corrupt toxic flips bits on
//! purpose — exactly-once retry is only sound if corruption is
//! *detected*, never mis-decoded into a different valid frame), an
//! unknown tag or trailing garbage is a typed error, and a peer closing
//! between frames is the distinct [`WireError::Closed`] so servers can
//! tell a clean disconnect from a mid-frame one.

use std::io::{ErrorKind, Read, Write};

use crate::error::ErrCode;

/// Upper bound on a frame's payload length, in bytes. Every legal
/// message fits comfortably; anything larger is an attack or a corrupt
/// prefix and is rejected before allocation.
pub const MAX_FRAME: u32 = 256;

// Payload tags. Client-to-server frames use the low range,
// server-to-client the high range.
const TAG_HELLO: u8 = 0x01;
const TAG_INC: u8 = 0x02;
const TAG_STATS: u8 = 0x03;
// 0x04 and 0x05 are retired (an unkeyed batch and a keyed handshake):
// they decode as unknown tags and must not be reused.
const TAG_KEY_INC: u8 = 0x06;
const TAG_KEY_BATCH_INC: u8 = 0x07;
const TAG_READ: u8 = 0x08;
const TAG_HELLO_OK: u8 = 0x81;
const TAG_INC_OK: u8 = 0x82;
const TAG_STATS_OK: u8 = 0x83;
const TAG_BATCH_OK: u8 = 0x84;
const TAG_BUSY: u8 = 0x85;
const TAG_READ_OK: u8 = 0x86;
const TAG_ERR: u8 = 0xEE;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the per-frame
/// integrity check. Table-free bitwise form: frames are at most
/// [`MAX_FRAME`] bytes, so the 8-shifts-per-byte cost is noise next to
/// the syscall that carries the frame.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A server-side statistics snapshot, carried by [`WireMsg::StatsOk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Processors in the hosted network.
    pub processors: u64,
    /// Sessions ever created.
    pub sessions: u64,
    /// Connections accepted (reconnects included).
    pub connections: u64,
    /// Operations applied by the backend.
    pub ops: u64,
    /// Retries answered exactly-once from a reply cache.
    pub deduped: u64,
    /// Frames rejected by the codec (truncated, oversized, garbage).
    pub wire_errors: u64,
    /// Batched traversals driven by the flat-combining front-end
    /// (`ops / combined_traversals` is the realized mean batch size).
    pub combined_traversals: u64,
    /// Requests and connections refused with a [`WireMsg::Busy`] by the
    /// admission/overload controls (shed, not failed: the reply carries
    /// a retry-after hint and a retrying client converges).
    pub shed: u64,
    /// Combiner/backend panics contained by the supervisor: each one is
    /// a round whose waiters were told to retry instead of a dead
    /// server.
    pub panics_contained: u64,
    /// The backend's bottleneck load `max_p m_p`.
    pub bottleneck: u64,
    /// Worker retirements inside the backend.
    pub retirements: u64,
    /// Counters hosted by the backend's keyspace (1 for single-counter
    /// backends).
    pub keys_hosted: u64,
    /// Keys promoted centralized → tree so far.
    pub promotions: u64,
    /// Keys demoted tree → centralized so far.
    pub demotions: u64,
    /// Keys marked for migration that have not yet settled.
    pub migrations_inflight: u64,
    /// `accept(2)` failures absorbed by the accept loop — descriptor
    /// exhaustion (`EMFILE`/`ENFILE`) shed with a [`WireMsg::Busy`] via
    /// the reserve descriptor, plus transient per-connection errors
    /// (`ECONNABORTED` and friends). Counted, answered where possible,
    /// never allowed to wedge the listener.
    pub accept_errors: u64,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Client handshake: open a fresh session, or resume session
    /// `resume` after a reconnect (keeping its dedup state).
    Hello {
        /// Session id to resume, if any.
        resume: Option<u64>,
    },
    /// One increment request against counter 0 — the short form of
    /// [`WireMsg::KeyInc`] with `key: 0`. `request_id` is the client's
    /// retry key: resending the same id after a reconnect must not
    /// increment again. `initiator` optionally charges the operation to
    /// an explicit processor; the default is the session's assigned
    /// processor.
    Inc {
        /// Client-chosen retry/dedup key, unique per session.
        request_id: u64,
        /// Explicit initiating processor, if the client wants one.
        initiator: Option<u64>,
    },
    /// Request a [`WireMsg::StatsOk`] snapshot.
    Stats,
    /// One increment against counter `key`, usable from any session.
    /// Replied with [`WireMsg::IncOk`].
    KeyInc {
        /// The counter to increment.
        key: u64,
        /// Client-chosen retry/dedup key, unique per session.
        request_id: u64,
        /// Explicit initiating processor, if the client wants one.
        initiator: Option<u64>,
    },
    /// A batch of `count` increments against counter `key` as one
    /// backend traversal. The reply ([`WireMsg::BatchOk`]) grants the
    /// contiguous range `[first, first + count)`. `request_id`
    /// deduplicates retries like [`WireMsg::Inc`]: resending the same id
    /// (with the same count) returns the same range without
    /// incrementing again.
    KeyBatchInc {
        /// The counter to increment.
        key: u64,
        /// Client-chosen retry/dedup key, unique per session.
        request_id: u64,
        /// Number of increments requested (must be ≥ 1).
        count: u64,
        /// Explicit initiating processor, if the client wants one.
        initiator: Option<u64>,
    },
    /// Read counter `key`'s current value without incrementing.
    Read {
        /// The counter to read.
        key: u64,
    },
    /// Reply to [`WireMsg::Read`].
    ReadOk {
        /// Echo of the request's key.
        key: u64,
        /// The counter's value (grants so far).
        value: u64,
    },
    /// Server handshake reply.
    HelloOk {
        /// The session id (present this to resume after a reconnect).
        session: u64,
        /// The processor this session's operations are charged to.
        processor: u64,
    },
    /// Reply to [`WireMsg::Inc`] and [`WireMsg::KeyInc`].
    IncOk {
        /// Echo of the request's `request_id`.
        request_id: u64,
        /// The counter value handed out.
        value: u64,
    },
    /// Reply to [`WireMsg::KeyBatchInc`]: the batch owns every value in
    /// `[first, first + count)`.
    BatchOk {
        /// Echo of the request's `request_id`.
        request_id: u64,
        /// First value of the granted range.
        first: u64,
        /// Echo of the granted count.
        count: u64,
    },
    /// Reply to [`WireMsg::Stats`].
    StatsOk(StatsSnapshot),
    /// Load-shed reply: the server is over its admission or in-flight
    /// limits (or draining) and refused the request *without* applying
    /// it. The client should back off for `retry_after_ms` and retry
    /// the same request id — nothing was consumed, so the retry is
    /// still exactly-once.
    Busy {
        /// Server's backoff hint, in milliseconds.
        retry_after_ms: u64,
    },
    /// Server-reported failure.
    Err {
        /// What went wrong.
        code: ErrCode,
    },
}

/// Codec and transport errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The peer closed cleanly between frames (no bytes of a new frame
    /// had arrived). A normal disconnect, not a protocol violation.
    Closed,
    /// The stream ended in the middle of a frame.
    Truncated {
        /// Which part of the frame was cut short.
        context: &'static str,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The advertised payload length.
        len: u32,
        /// The permitted maximum.
        max: u32,
    },
    /// The payload's bytes do not match the frame's CRC-32: damaged in
    /// transit (or by a fault injector). The stream is desynchronized
    /// and must be discarded; a retry on a fresh connection is safe.
    Checksum {
        /// The checksum the frame header promised.
        expected: u32,
        /// The checksum of the bytes that actually arrived.
        found: u32,
    },
    /// The payload's tag byte is not a known message.
    UnknownTag(
        /// The offending tag.
        u8,
    ),
    /// The payload's length does not match its tag's layout, or a field
    /// holds an impossible value.
    Malformed(&'static str),
    /// An underlying I/O failure (connection reset, refused, ...).
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Truncated { context } => {
                write!(f, "stream ended mid-frame while reading {context}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
            WireError::Checksum { expected, found } => {
                write!(f, "frame checksum mismatch: header says {expected:#010x}, payload hashes to {found:#010x}")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown frame tag 0x{tag:02x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Io(msg) => write!(f, "i/o failure: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Room for two largest frames, so a frame that starts anywhere in the
/// buffer fits once the bytes before it are dropped.
const READ_BUF: usize = 2 * (8 + MAX_FRAME as usize);

/// The blocking-stream decoder: frames read from a stream but not yet
/// decoded, at `bytes[start..end]`. A frame decodes from what one `read`
/// returned, without allocating, and bytes read past it wait for the
/// next call — so keep one reader per stream, and [`FrameReader::clear`]
/// it when the stream is replaced.
pub struct FrameReader {
    bytes: Box<[u8]>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader.
    #[must_use]
    pub fn new() -> Self {
        FrameReader { bytes: vec![0; READ_BUF].into_boxed_slice(), start: 0, end: 0 }
    }

    /// Forgets what is buffered: the bytes of a stream that is gone.
    pub fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// Decodes the next frame, reading from `r` until one is whole.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]: [`WireError::Closed`] only when the stream ends
    /// at a frame boundary, [`WireError::Truncated`] when it ends inside
    /// one, and otherwise the taxonomy of [`try_decode_frame`]. After
    /// any failure the reader is empty.
    pub fn next_frame(&mut self, r: &mut impl Read) -> Result<WireMsg, WireError> {
        let frame = self.fill_frame(r);
        if frame.is_err() {
            self.clear();
        }
        frame
    }

    fn fill_frame(&mut self, r: &mut impl Read) -> Result<WireMsg, WireError> {
        loop {
            if let Some((msg, used)) = try_decode_frame(&self.bytes[self.start..self.end])? {
                self.start += used;
                if self.start == self.end {
                    self.clear();
                }
                return Ok(msg);
            }
            if self.end == self.bytes.len() {
                self.bytes.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            match r.read(&mut self.bytes[self.end..]) {
                Ok(0) => return Err(self.ended()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Err(self.ended()),
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
    }

    /// The error for a stream that ended with the buffered bytes.
    fn ended(&self) -> WireError {
        let context = match self.end - self.start {
            0 => return WireError::Closed,
            1..4 => "the length prefix",
            4..8 => "the checksum",
            _ => "the payload",
        };
        WireError::Truncated { context }
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameReader").field("buffered", &(self.end - self.start)).finish()
    }
}

/// Writes one frame, allocating a scratch buffer per call. Hot paths
/// (the server's per-connection loop, the load generator) should hold a
/// reusable buffer and call [`write_frame_buf`] instead.
///
/// # Errors
///
/// [`WireError::Io`] if the underlying write fails.
pub fn write_frame(w: &mut impl Write, msg: &WireMsg) -> Result<(), WireError> {
    let mut scratch = Vec::with_capacity(40);
    write_frame_buf(w, msg, &mut scratch)
}

/// Writes one frame through a caller-owned scratch buffer: the length
/// prefix, checksum and payload are assembled in `scratch` (cleared,
/// capacity kept) and written with a single `write_all`, so a
/// steady-state connection encodes frames with zero allocations.
///
/// # Errors
///
/// [`WireError::Io`] if the underlying write fails.
pub fn write_frame_buf(
    w: &mut impl Write,
    msg: &WireMsg,
    scratch: &mut Vec<u8>,
) -> Result<(), WireError> {
    scratch.clear();
    // Length-prefix + checksum placeholders, patched once the payload
    // is assembled.
    scratch.extend_from_slice(&[0u8; 8]);
    encode_into(msg, scratch);
    let payload_len = (scratch.len() - 8) as u32;
    debug_assert!(payload_len <= MAX_FRAME);
    let crc = crc32(&scratch[8..]);
    scratch[..4].copy_from_slice(&payload_len.to_le_bytes());
    scratch[4..8].copy_from_slice(&crc.to_le_bytes());
    w.write_all(scratch).map_err(|e| WireError::Io(e.to_string()))?;
    w.flush().map_err(|e| WireError::Io(e.to_string()))
}

/// Frames a raw payload exactly as [`write_frame_buf`] would — length
/// prefix, CRC-32, payload — without requiring it to be a legal
/// message. For tests and fuzzers that need byte-level control over
/// what goes on the wire while keeping the envelope valid.
#[must_use]
pub fn frame_raw(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes `msg` into a fresh payload (tag + fields, no length prefix).
#[must_use]
pub fn encode(msg: &WireMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_into(msg, &mut out);
    out
}

/// Appends `msg`'s payload (tag + fields, no length prefix) to `out`.
fn encode_into(msg: &WireMsg, out: &mut Vec<u8>) {
    match msg {
        WireMsg::Hello { resume } => {
            out.push(TAG_HELLO);
            push_opt_u64(out, *resume);
        }
        WireMsg::Inc { request_id, initiator } => {
            out.push(TAG_INC);
            out.extend_from_slice(&request_id.to_le_bytes());
            push_opt_u64(out, *initiator);
        }
        WireMsg::Stats => out.push(TAG_STATS),
        WireMsg::KeyInc { key, request_id, initiator } => {
            out.push(TAG_KEY_INC);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&request_id.to_le_bytes());
            push_opt_u64(out, *initiator);
        }
        WireMsg::KeyBatchInc { key, request_id, count, initiator } => {
            out.push(TAG_KEY_BATCH_INC);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&request_id.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            push_opt_u64(out, *initiator);
        }
        WireMsg::Read { key } => {
            out.push(TAG_READ);
            out.extend_from_slice(&key.to_le_bytes());
        }
        WireMsg::ReadOk { key, value } => {
            out.push(TAG_READ_OK);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        WireMsg::HelloOk { session, processor } => {
            out.push(TAG_HELLO_OK);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&processor.to_le_bytes());
        }
        WireMsg::IncOk { request_id, value } => {
            out.push(TAG_INC_OK);
            out.extend_from_slice(&request_id.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        WireMsg::BatchOk { request_id, first, count } => {
            out.push(TAG_BATCH_OK);
            out.extend_from_slice(&request_id.to_le_bytes());
            out.extend_from_slice(&first.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        WireMsg::StatsOk(s) => {
            out.push(TAG_STATS_OK);
            for field in [
                s.processors,
                s.sessions,
                s.connections,
                s.ops,
                s.deduped,
                s.wire_errors,
                s.combined_traversals,
                s.shed,
                s.panics_contained,
                s.bottleneck,
                s.retirements,
                s.keys_hosted,
                s.promotions,
                s.demotions,
                s.migrations_inflight,
                s.accept_errors,
            ] {
                out.extend_from_slice(&field.to_le_bytes());
            }
        }
        WireMsg::Busy { retry_after_ms } => {
            out.push(TAG_BUSY);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        WireMsg::Err { code } => {
            out.push(TAG_ERR);
            out.extend_from_slice(&code.as_u16().to_le_bytes());
        }
    }
}

fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Decodes a payload (tag + fields). Exposed for tests; transport code
/// uses [`FrameReader`] or [`try_decode_frame`].
///
/// # Errors
///
/// [`WireError::UnknownTag`] or [`WireError::Malformed`].
pub fn decode(payload: &[u8]) -> Result<WireMsg, WireError> {
    let (&tag, body) = payload.split_first().ok_or(WireError::Malformed("empty payload"))?;
    let mut cur = Cursor { body, pos: 0 };
    let msg = match tag {
        TAG_HELLO => WireMsg::Hello { resume: cur.opt_u64()? },
        TAG_INC => WireMsg::Inc { request_id: cur.u64()?, initiator: cur.opt_u64()? },
        TAG_STATS => WireMsg::Stats,
        TAG_KEY_INC => {
            WireMsg::KeyInc { key: cur.u64()?, request_id: cur.u64()?, initiator: cur.opt_u64()? }
        }
        TAG_KEY_BATCH_INC => WireMsg::KeyBatchInc {
            key: cur.u64()?,
            request_id: cur.u64()?,
            count: cur.u64()?,
            initiator: cur.opt_u64()?,
        },
        TAG_READ => WireMsg::Read { key: cur.u64()? },
        TAG_READ_OK => WireMsg::ReadOk { key: cur.u64()?, value: cur.u64()? },
        TAG_HELLO_OK => WireMsg::HelloOk { session: cur.u64()?, processor: cur.u64()? },
        TAG_INC_OK => WireMsg::IncOk { request_id: cur.u64()?, value: cur.u64()? },
        TAG_BATCH_OK => {
            WireMsg::BatchOk { request_id: cur.u64()?, first: cur.u64()?, count: cur.u64()? }
        }
        TAG_STATS_OK => WireMsg::StatsOk(StatsSnapshot {
            processors: cur.u64()?,
            sessions: cur.u64()?,
            connections: cur.u64()?,
            ops: cur.u64()?,
            deduped: cur.u64()?,
            wire_errors: cur.u64()?,
            combined_traversals: cur.u64()?,
            shed: cur.u64()?,
            panics_contained: cur.u64()?,
            bottleneck: cur.u64()?,
            retirements: cur.u64()?,
            keys_hosted: cur.u64()?,
            promotions: cur.u64()?,
            demotions: cur.u64()?,
            migrations_inflight: cur.u64()?,
            accept_errors: cur.u64()?,
        }),
        TAG_BUSY => WireMsg::Busy { retry_after_ms: cur.u64()? },
        TAG_ERR => WireMsg::Err { code: ErrCode::from_u16(cur.u16()?) },
        other => return Err(WireError::UnknownTag(other)),
    };
    cur.finish()?;
    Ok(msg)
}

/// Bounds-checked field reader over a payload body.
struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.body.len());
        let end = end.ok_or(WireError::Malformed("payload shorter than its tag's layout"))?;
        let slice = &self.body[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("take(8) returns 8 bytes")))
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let bytes = self.take(2)?;
        Ok(u16::from_le_bytes(bytes.try_into().expect("take(2) returns 2 bytes")))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(WireError::Malformed("option flag must be 0 or 1")),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.body.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after the message"))
        }
    }
}

// --- sans-io framing for nonblocking transports -----------------------
//
// `FrameReader`/`write_frame_buf` above assume a blocking stream: they
// loop until the frame is complete. A readiness loop cannot — a frame
// routinely arrives torn across several readable events, and a write
// routinely lands short when the peer's receive window is full. The
// pair below separates framing from I/O entirely: `try_decode_frame`
// consumes a byte buffer and says "not yet" without losing its place,
// and `WriteBuffer` owns the unsent tail so a short write resumes at
// the exact offset the kernel stopped at.

/// Appends one complete frame (length prefix, CRC-32, payload) for
/// `msg` to `out` without clearing it — the buffered-write counterpart
/// of [`write_frame_buf`], producing byte-identical frames.
pub fn encode_frame_into(msg: &WireMsg, out: &mut Vec<u8>) {
    let header_at = out.len();
    // Length-prefix + checksum placeholders, patched once the payload
    // is assembled.
    out.extend_from_slice(&[0u8; 8]);
    encode_into(msg, out);
    let payload_len = (out.len() - header_at - 8) as u32;
    debug_assert!(payload_len <= MAX_FRAME);
    let crc = crc32(&out[header_at + 8..]);
    out[header_at..header_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[header_at + 4..header_at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a prefix of a frame (the
/// caller keeps the bytes and retries after the next readable event),
/// or `Ok(Some((msg, consumed)))` where `consumed` is the number of
/// bytes the frame occupied — the caller drains exactly that many and
/// calls again, because one readable event often delivers several
/// frames.
///
/// # Errors
///
/// The taxonomy of [`WireError`] for bytes that can never become a
/// legal frame: [`WireError::Oversized`] and zero-length are rejected
/// from the 4-byte prefix alone (no need to wait for a payload that
/// should not exist), [`WireError::Checksum`], [`WireError::UnknownTag`]
/// and [`WireError::Malformed`] once the payload is complete. Errors
/// desynchronize the stream; the connection should be dropped.
pub fn try_decode_frame(buf: &[u8]) -> Result<Option<(WireMsg, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4-byte slice"));
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len, max: MAX_FRAME });
    }
    if len == 0 {
        return Err(WireError::Malformed("zero-length payload"));
    }
    let total = 8 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let expected = u32::from_le_bytes(buf[4..8].try_into().expect("4-byte slice"));
    let payload = &buf[8..total];
    let found = crc32(payload);
    if found != expected {
        return Err(WireError::Checksum { expected, found });
    }
    decode(payload).map(|msg| Some((msg, total)))
}

/// An outbound frame queue for a nonblocking stream: encoded frames
/// accumulate here, and [`WriteBuffer::flush_into`] pushes them to the
/// socket as far as the kernel will take them, remembering the offset
/// of the first unsent byte so the next writable event resumes exactly
/// where the short write stopped — never re-sending, never skipping.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already accepted by the kernel.
    sent: usize,
}

impl WriteBuffer {
    /// An empty queue.
    #[must_use]
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Whether every queued byte has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sent == self.buf.len()
    }

    /// Unsent bytes currently queued — the backpressure signal: a
    /// connection whose peer stops reading grows this, and the serving
    /// loop stops reading *from* that peer once it passes a high-water
    /// mark.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.sent
    }

    /// Queues one frame behind whatever is already pending.
    pub fn push(&mut self, msg: &WireMsg) {
        if self.sent == self.buf.len() {
            // Fully drained: recycle the allocation.
            self.buf.clear();
            self.sent = 0;
        } else if self.sent > 4096 {
            // Large consumed prefix: compact so the buffer does not
            // grow without bound on a slow-reading peer.
            self.buf.drain(..self.sent);
            self.sent = 0;
        }
        encode_frame_into(msg, &mut self.buf);
    }

    /// Writes as much of the queue as the stream will take right now.
    /// Returns `true` when the queue drained completely (the caller
    /// drops write interest), `false` on a short write or `WouldBlock`
    /// (the caller keeps write interest and waits for the next writable
    /// event).
    ///
    /// # Errors
    ///
    /// Any I/O error other than `WouldBlock`/`Interrupted` — the
    /// connection is broken and should be closed. A `write` returning
    /// `Ok(0)` is reported as [`ErrorKind::WriteZero`].
    pub fn flush_into(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while self.sent < self.buf.len() {
            match w.write(&self.buf[self.sent..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "stream accepted zero bytes",
                    ));
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.sent = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor as IoCursor;

    fn round_trip(msg: WireMsg) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).expect("write");
        assert_eq!(read_one(buf).expect("read"), msg);
    }

    /// The first frame a fresh [`FrameReader`] reads from `bytes`.
    fn read_one(bytes: Vec<u8>) -> Result<WireMsg, WireError> {
        FrameReader::new().next_frame(&mut IoCursor::new(bytes))
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(WireMsg::Hello { resume: None });
        round_trip(WireMsg::Hello { resume: Some(42) });
        round_trip(WireMsg::Inc { request_id: 7, initiator: None });
        round_trip(WireMsg::Inc { request_id: u64::MAX, initiator: Some(80) });
        round_trip(WireMsg::BatchOk { request_id: 11, first: 512, count: 64 });
        round_trip(WireMsg::Stats);
        round_trip(WireMsg::KeyInc { key: 7, request_id: 1, initiator: None });
        round_trip(WireMsg::KeyInc { key: u64::MAX, request_id: 2, initiator: Some(80) });
        round_trip(WireMsg::KeyBatchInc { key: 9, request_id: 3, count: 64, initiator: None });
        round_trip(WireMsg::KeyBatchInc { key: 0, request_id: 4, count: 1, initiator: Some(3) });
        round_trip(WireMsg::Read { key: 12 });
        round_trip(WireMsg::ReadOk { key: 12, value: 512 });
        round_trip(WireMsg::HelloOk { session: 3, processor: 17 });
        round_trip(WireMsg::IncOk { request_id: 9, value: 1234 });
        round_trip(WireMsg::StatsOk(StatsSnapshot {
            processors: 81,
            sessions: 16,
            connections: 18,
            ops: 2000,
            deduped: 2,
            wire_errors: 1,
            combined_traversals: 12,
            shed: 5,
            panics_contained: 1,
            bottleneck: 55,
            retirements: 40,
            keys_hosted: 12,
            promotions: 3,
            demotions: 1,
            migrations_inflight: 2,
            accept_errors: 4,
        }));
        round_trip(WireMsg::Busy { retry_after_ms: 50 });
        round_trip(WireMsg::Err { code: ErrCode::UnknownTag });
        round_trip(WireMsg::Err { code: ErrCode::Other(999) });
    }

    #[test]
    fn a_reused_scratch_buffer_produces_identical_frames() {
        let msgs = [
            WireMsg::Inc { request_id: 1, initiator: Some(9) },
            WireMsg::KeyBatchInc { key: 0, request_id: 2, count: 32, initiator: None },
            WireMsg::StatsOk(StatsSnapshot::default()),
            WireMsg::Hello { resume: None },
        ];
        let mut scratch = Vec::new();
        for msg in &msgs {
            let mut via_buf = Vec::new();
            write_frame_buf(&mut via_buf, msg, &mut scratch).expect("write");
            let mut via_alloc = Vec::new();
            write_frame(&mut via_alloc, msg).expect("write");
            assert_eq!(via_buf, via_alloc, "scratch path must match the allocating path");
            assert_eq!(&read_one(via_buf).expect("read"), msg);
        }
    }

    #[test]
    fn clean_eof_is_closed_not_truncated() {
        assert_eq!(read_one(Vec::new()), Err(WireError::Closed));
    }

    #[test]
    fn partial_length_prefix_is_truncated() {
        assert_eq!(
            read_one(vec![5, 0]),
            Err(WireError::Truncated { context: "the length prefix" })
        );
    }

    #[test]
    fn partial_payload_is_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMsg::Inc { request_id: 1, initiator: None }).expect("write");
        assert_eq!(
            read_one(buf[..6].to_vec()),
            Err(WireError::Truncated { context: "the checksum" })
        );
        buf.truncate(buf.len() - 3);
        assert_eq!(read_one(buf), Err(WireError::Truncated { context: "the payload" }));
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            try_decode_frame(&buf),
            Err(WireError::Oversized { len: u32::MAX, max: MAX_FRAME })
        );
    }

    #[test]
    fn garbage_tag_rejected() {
        assert_eq!(try_decode_frame(&frame_raw(&[0x7F])), Err(WireError::UnknownTag(0x7F)));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMsg::IncOk { request_id: 7, value: 1234 }).expect("write");
        // Flip one bit in the value field: without the checksum this
        // would decode as a *different valid frame* — the exact failure
        // mode that breaks exactly-once under corruption.
        let last = buf.len() - 1;
        buf[last] ^= 0x10;
        assert!(matches!(try_decode_frame(&buf), Err(WireError::Checksum { .. })));
    }

    #[test]
    fn checksum_is_the_reference_crc32() {
        // IEEE CRC-32 of "123456789" is the standard check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn zero_length_frame_rejected() {
        // Decided from the prefix alone: no payload is awaited.
        assert_eq!(
            try_decode_frame(&0u32.to_le_bytes()),
            Err(WireError::Malformed("zero-length payload"))
        );
    }

    #[test]
    fn short_and_long_payloads_rejected() {
        // Inc with a missing initiator flag byte.
        let mut payload = vec![0x02u8];
        payload.extend_from_slice(&[0u8; 8]);
        assert!(matches!(try_decode_frame(&frame_raw(&payload)), Err(WireError::Malformed(_))));
        // Stats with trailing garbage.
        assert_eq!(
            try_decode_frame(&frame_raw(&[0x03, 0, 0])),
            Err(WireError::Malformed("trailing bytes after the message"))
        );
    }

    #[test]
    fn truncated_counter_id_fields_rejected() {
        // KeyInc with only half of its key field.
        let mut payload = vec![0x06u8];
        payload.extend_from_slice(&[0u8; 4]);
        assert!(matches!(try_decode_frame(&frame_raw(&payload)), Err(WireError::Malformed(_))));
        // Read with a truncated key.
        let mut payload = vec![0x08u8];
        payload.extend_from_slice(&[0u8; 7]);
        assert!(matches!(try_decode_frame(&frame_raw(&payload)), Err(WireError::Malformed(_))));
        // KeyBatchInc cut off inside its count field.
        let mut payload = vec![0x07u8];
        payload.extend_from_slice(&[0u8; 18]);
        assert!(matches!(try_decode_frame(&frame_raw(&payload)), Err(WireError::Malformed(_))));
    }

    #[test]
    fn retired_tags_are_unknown() {
        // The unkeyed batch (0x04) and the keyed handshake (0x05), each
        // with a body laid out as it used to be.
        let mut batch = vec![0x04u8];
        batch.extend_from_slice(&[0u8; 16]);
        batch.push(0);
        assert_eq!(decode(&batch), Err(WireError::UnknownTag(0x04)));
        let mut hello = vec![0x05u8, 0];
        hello.extend_from_slice(&[0u8; 8]);
        assert_eq!(try_decode_frame(&frame_raw(&hello)), Err(WireError::UnknownTag(0x05)));
    }

    #[test]
    fn bad_option_flag_rejected() {
        assert_eq!(
            try_decode_frame(&frame_raw(&[0x01, 7])),
            Err(WireError::Malformed("option flag must be 0 or 1"))
        );
    }

    #[test]
    fn torn_frames_decode_incrementally_at_every_split_point() {
        // The readiness loop's contract: a frame arriving one byte per
        // readable event must decode to the same message as the frame
        // arriving whole, with `Ok(None)` (keep waiting) at every
        // intermediate prefix.
        let msg = WireMsg::KeyBatchInc { key: 7, request_id: 11, count: 64, initiator: Some(3) };
        let mut frame = Vec::new();
        encode_frame_into(&msg, &mut frame);
        for split in 0..frame.len() {
            assert_eq!(
                try_decode_frame(&frame[..split]).expect("prefix is not an error"),
                None,
                "prefix of {split} bytes must ask for more"
            );
        }
        let (decoded, consumed) = try_decode_frame(&frame).expect("whole frame").expect("complete");
        assert_eq!(decoded, msg);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn one_readable_event_can_carry_many_frames() {
        let msgs = [
            WireMsg::Inc { request_id: 1, initiator: None },
            WireMsg::Stats,
            WireMsg::IncOk { request_id: 1, value: 99 },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            encode_frame_into(m, &mut buf);
        }
        // Plus a torn prefix of a fourth frame.
        let mut fourth = Vec::new();
        encode_frame_into(&WireMsg::Read { key: 5 }, &mut fourth);
        buf.extend_from_slice(&fourth[..5]);

        let mut at = 0usize;
        for expected in &msgs {
            let (msg, consumed) =
                try_decode_frame(&buf[at..]).expect("decode").expect("complete frame");
            assert_eq!(&msg, expected);
            at += consumed;
        }
        assert_eq!(try_decode_frame(&buf[at..]).expect("torn tail"), None);
    }

    #[test]
    fn encode_frame_into_matches_the_blocking_writer() {
        let msgs = [
            WireMsg::Hello { resume: Some(4) },
            WireMsg::StatsOk(StatsSnapshot::default()),
            WireMsg::Busy { retry_after_ms: 25 },
        ];
        let mut appended = Vec::new();
        for m in &msgs {
            encode_frame_into(m, &mut appended);
        }
        let mut blocking = Vec::new();
        for m in &msgs {
            write_frame(&mut blocking, m).expect("write");
        }
        assert_eq!(appended, blocking, "both writers must produce identical bytes");
    }

    /// A `Write` that accepts at most `cap` bytes per call and yields
    /// `WouldBlock` every other call — the unflattering model of a
    /// nonblocking socket under a full send buffer.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
        starve: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.starve = !self.starve;
            if self.starve {
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "send buffer full"));
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_resume_at_the_exact_offset() {
        let msgs = [
            WireMsg::IncOk { request_id: 1, value: 10 },
            WireMsg::BatchOk { request_id: 2, first: 11, count: 8 },
            WireMsg::StatsOk(StatsSnapshot::default()),
        ];
        let mut wb = WriteBuffer::new();
        let mut expected = Vec::new();
        for m in &msgs {
            wb.push(m);
            encode_frame_into(m, &mut expected);
        }
        assert_eq!(wb.pending(), expected.len());

        // 3 bytes per successful write, WouldBlock in between: the kind
        // of stream that tears every frame many times over.
        let mut sink = Trickle { out: Vec::new(), cap: 3, starve: false };
        let mut flushes = 0usize;
        loop {
            flushes += 1;
            assert!(flushes < 10_000, "flush loop must terminate");
            if wb.flush_into(&mut sink).expect("no real I/O errors here") {
                break;
            }
        }
        assert!(wb.is_empty());
        assert_eq!(sink.out, expected, "bytes must arrive exactly once, in order");
        assert!(flushes > 1, "the trickle sink must actually have torn the writes");

        // A queue that drained fully starts clean for the next frame.
        wb.push(&WireMsg::Busy { retry_after_ms: 5 });
        let mut fast = Vec::new();
        assert!(wb.flush_into(&mut fast).expect("plain vec write"));
        let mut one = Vec::new();
        encode_frame_into(&WireMsg::Busy { retry_after_ms: 5 }, &mut one);
        assert_eq!(fast, one);
    }

    #[test]
    fn pushing_behind_a_partial_write_keeps_byte_order() {
        let mut wb = WriteBuffer::new();
        wb.push(&WireMsg::IncOk { request_id: 1, value: 10 });
        // Take a few bytes, then queue more behind the unsent tail.
        let mut sink = Trickle { out: Vec::new(), cap: 5, starve: true };
        let _ = wb.flush_into(&mut sink).expect("wouldblock or short");
        let _ = wb.flush_into(&mut sink).expect("wouldblock or short");
        wb.push(&WireMsg::IncOk { request_id: 2, value: 11 });
        while !wb.flush_into(&mut sink).expect("no real errors") {}
        let mut expected = Vec::new();
        encode_frame_into(&WireMsg::IncOk { request_id: 1, value: 10 }, &mut expected);
        encode_frame_into(&WireMsg::IncOk { request_id: 2, value: 11 }, &mut expected);
        assert_eq!(sink.out, expected);
    }

    #[test]
    fn write_buffer_compacts_its_consumed_prefix() {
        let mut wb = WriteBuffer::new();
        // Enough traffic to cross the 4096-byte compaction threshold
        // many times; `pending` must track only unsent bytes throughout.
        let mut sink = Trickle { out: Vec::new(), cap: 64, starve: false };
        let mut expected = Vec::new();
        for i in 0..2_000u64 {
            let m = WireMsg::IncOk { request_id: i, value: i * 3 };
            wb.push(&m);
            encode_frame_into(&m, &mut expected);
            let _ = wb.flush_into(&mut sink).expect("no real errors");
        }
        while !wb.flush_into(&mut sink).expect("no real errors") {}
        assert_eq!(sink.out, expected);
    }

    #[test]
    fn errors_display() {
        assert!(WireError::Oversized { len: 500, max: 256 }.to_string().contains("500"));
        assert!(WireError::UnknownTag(0xAB).to_string().contains("0xab"));
        assert!(WireError::Truncated { context: "the payload" }.to_string().contains("payload"));
        assert!(WireError::Closed.to_string().contains("closed"));
        assert!(WireError::Checksum { expected: 1, found: 2 }.to_string().contains("checksum"));
    }
}
