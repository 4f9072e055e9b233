//! Fuzz-style robustness tests for the wire codec: a seeded generator
//! drives thousands of random valid frames through the round trip
//! byte-exactly, then mutates and truncates them every way the
//! transport can, asserting the decoder always answers with a typed
//! [`WireError`] — never a panic, never a hang, never a bogus frame
//! accepted as a different message than the bytes spell.

use std::io::{Cursor, Read};

use distctr_server::error::ErrCode;
use distctr_server::wire::{
    decode, encode, write_frame, FrameReader, StatsSnapshot, WireError, WireMsg, MAX_FRAME,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws one arbitrary valid message. Error codes below 10 are reserved
/// named variants, so `Other` draws from the open range — the named
/// codes are covered explicitly in `known_error_codes_round_trip`.
fn arbitrary_msg(rng: &mut StdRng) -> WireMsg {
    match rng.gen_range(0u32..13) {
        0 => WireMsg::Hello { resume: rng.gen_bool(0.5).then(|| rng.gen()) },
        1 => {
            WireMsg::Inc { request_id: rng.gen(), initiator: rng.gen_bool(0.5).then(|| rng.gen()) }
        }
        2 => WireMsg::Stats,
        3 => WireMsg::HelloOk { session: rng.gen(), processor: rng.gen() },
        4 => WireMsg::IncOk { request_id: rng.gen(), value: rng.gen() },
        5 => WireMsg::StatsOk(StatsSnapshot {
            processors: rng.gen(),
            sessions: rng.gen(),
            connections: rng.gen(),
            ops: rng.gen(),
            deduped: rng.gen(),
            wire_errors: rng.gen(),
            combined_traversals: rng.gen(),
            shed: rng.gen(),
            panics_contained: rng.gen(),
            accept_errors: rng.gen(),
            bottleneck: rng.gen(),
            retirements: rng.gen(),
            keys_hosted: rng.gen(),
            promotions: rng.gen(),
            demotions: rng.gen(),
            migrations_inflight: rng.gen(),
        }),
        6 => WireMsg::BatchOk { request_id: rng.gen(), first: rng.gen(), count: rng.gen() },
        7 => WireMsg::Busy { retry_after_ms: rng.gen() },
        8 => WireMsg::KeyInc {
            key: rng.gen(),
            request_id: rng.gen(),
            initiator: rng.gen_bool(0.5).then(|| rng.gen()),
        },
        9 => WireMsg::KeyBatchInc {
            key: rng.gen(),
            request_id: rng.gen(),
            count: rng.gen(),
            initiator: rng.gen_bool(0.5).then(|| rng.gen()),
        },
        10 => WireMsg::Read { key: rng.gen() },
        11 => WireMsg::ReadOk { key: rng.gen(), value: rng.gen() },
        _ => WireMsg::Err { code: ErrCode::from_u16(rng.gen_range(10u16..=u16::MAX)) },
    }
}

#[test]
fn random_valid_frames_round_trip_byte_exact() {
    let mut rng = StdRng::seed_from_u64(0x77697265);
    for _ in 0..4_000 {
        let msg = arbitrary_msg(&mut rng);
        let payload = encode(&msg);
        assert!(payload.len() as u32 <= MAX_FRAME, "legal frames fit the limit");
        let decoded = decode(&payload).expect("a frame the encoder wrote must decode");
        assert_eq!(decoded, msg, "decode inverts encode");
        assert_eq!(encode(&decoded), payload, "re-encoding is byte-exact");

        let mut framed = Vec::new();
        write_frame(&mut framed, &msg).expect("in-memory write");
        let mut r = Cursor::new(&framed);
        assert_eq!(FrameReader::new().next_frame(&mut r).expect("framed read"), msg);
        assert_eq!(r.position() as usize, framed.len(), "reader consumes the whole frame");
    }
}

#[test]
fn known_error_codes_round_trip() {
    for code in 0..16u16 {
        let msg = WireMsg::Err { code: ErrCode::from_u16(code) };
        let payload = encode(&msg);
        assert_eq!(decode(&payload).expect("error frames decode"), msg);
        assert_eq!(encode(&decode(&payload).unwrap()), payload, "byte-exact through Other");
    }
}

#[test]
fn every_truncation_of_a_valid_frame_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(0x74727563);
    for _ in 0..400 {
        let msg = arbitrary_msg(&mut rng);
        let mut framed = Vec::new();
        write_frame(&mut framed, &msg).expect("in-memory write");
        for cut in 0..framed.len() {
            let mut r = Cursor::new(&framed[..cut]);
            match FrameReader::new().next_frame(&mut r) {
                Err(WireError::Closed) => assert_eq!(cut, 0, "Closed only before any byte"),
                Err(WireError::Truncated { .. }) => assert!(cut > 0),
                other => {
                    panic!("cut at {cut}/{}: expected truncation, got {other:?}", framed.len())
                }
            }
        }
    }
}

#[test]
fn single_byte_mutations_never_panic_and_errors_are_typed() {
    let mut rng = StdRng::seed_from_u64(0x6d757461);
    for _ in 0..400 {
        let msg = arbitrary_msg(&mut rng);
        let mut framed = Vec::new();
        write_frame(&mut framed, &msg).expect("in-memory write");
        let idx = rng.gen_range(0..framed.len());
        let flip: u8 = rng.gen_range(1u32..=255) as u8;
        framed[idx] ^= flip;
        let mut r = Cursor::new(&framed[..]);
        // A mutated frame either still decodes (the flip landed in a
        // don't-care numeric field) or fails with a *typed* error;
        // the read itself must never panic or loop.
        match FrameReader::new().next_frame(&mut r) {
            Ok(_)
            | Err(
                WireError::Truncated { .. }
                | WireError::Oversized { .. }
                | WireError::UnknownTag(_)
                | WireError::Malformed(_)
                | WireError::Checksum { .. },
            ) => {}
            Err(other) => panic!("unexpected error class for a byte flip: {other:?}"),
        }
    }
}

#[test]
fn random_garbage_streams_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x67617262);
    for _ in 0..2_000 {
        let len = rng.gen_range(0usize..64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..=255) as u8).collect();
        let mut r = Cursor::new(&bytes[..]);
        let mut frames = FrameReader::new();
        // Drain the stream: every iteration either yields a (miraculous)
        // valid frame or a typed error; `Closed`/errors end the loop.
        loop {
            match frames.next_frame(&mut r) {
                Ok(_) => continue,
                Err(WireError::Io(e)) => panic!("in-memory reads cannot fail with i/o: {e}"),
                Err(_) => break,
            }
        }
    }
}

#[test]
fn oversized_prefixes_are_rejected_for_every_length_beyond_the_cap() {
    let mut rng = StdRng::seed_from_u64(0x6f766572);
    for _ in 0..1_000 {
        let len = rng.gen_range(MAX_FRAME + 1..=u32::MAX);
        let mut framed = len.to_le_bytes().to_vec();
        framed.extend_from_slice(&[0u8; 8]);
        let mut r = Cursor::new(&framed[..]);
        assert_eq!(
            FrameReader::new().next_frame(&mut r),
            Err(WireError::Oversized { len, max: MAX_FRAME })
        );
    }
}

#[test]
fn truncated_payloads_of_every_tag_are_malformed_or_truncated() {
    // Shorten each valid *payload* (post-length-prefix) by one byte and
    // re-frame it with a correct prefix: the cursor must flag the
    // layout mismatch, not read out of bounds.
    let mut rng = StdRng::seed_from_u64(0x73686f72);
    for _ in 0..1_000 {
        let msg = arbitrary_msg(&mut rng);
        let mut payload = encode(&msg);
        if payload.len() <= 1 {
            continue; // Stats is a lone tag; nothing to shorten
        }
        payload.truncate(payload.len() - 1);
        match decode(&payload) {
            Err(WireError::Malformed(_)) => {}
            // Hello{resume: Some} shortened by one can re-parse as a
            // valid shorter layout only if the flag byte changed — it
            // cannot, so anything else is a bug.
            other => panic!("shortened payload must be malformed, got {other:?}"),
        }
    }
}

#[test]
fn keyed_frames_with_truncated_counter_ids_are_typed_errors() {
    // The counter id is the newest field on the wire. Cut every keyed
    // frame at *every* prefix — in
    // particular the prefixes that end mid-way through the 8-byte key —
    // and demand the decoder flag the layout, never misparse a short
    // key as a valid frame for a different counter.
    let mut rng = StdRng::seed_from_u64(0x6b65_7973);
    for _ in 0..400 {
        let msg = match rng.gen_range(0u32..4) {
            0 => WireMsg::KeyInc {
                key: rng.gen(),
                request_id: rng.gen(),
                initiator: rng.gen_bool(0.5).then(|| rng.gen()),
            },
            1 => WireMsg::KeyBatchInc {
                key: rng.gen(),
                request_id: rng.gen(),
                count: rng.gen(),
                initiator: rng.gen_bool(0.5).then(|| rng.gen()),
            },
            2 => WireMsg::Read { key: rng.gen() },
            _ => WireMsg::ReadOk { key: rng.gen(), value: rng.gen() },
        };
        let payload = encode(&msg);
        assert_eq!(decode(&payload).expect("keyed frames decode"), msg);
        for cut in 1..payload.len() {
            match decode(&payload[..cut]) {
                Err(WireError::Malformed(_)) => {}
                other => panic!("cut at {cut}: expected a layout reject, got {other:?}"),
            }
        }
    }
}

/// Delivers a byte stream in bounded random chunks — exactly what the
/// chaos proxy's slicer toxic does to TCP segments. The codec must
/// reassemble frames from any segmentation.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    rng: StdRng,
    max_chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        let k =
            self.rng.gen_range(1..=self.max_chunk).min(buf.len()).min(self.data.len() - self.pos);
        buf[..k].copy_from_slice(&self.data[self.pos..self.pos + k]);
        self.pos += k;
        Ok(k)
    }
}

#[test]
fn sliced_delivery_reassembles_every_frame() {
    let mut rng = StdRng::seed_from_u64(0x736c_6963);
    for round in 0..50 {
        let msgs: Vec<WireMsg> = (0..20).map(|_| arbitrary_msg(&mut rng)).collect();
        let mut bytes = Vec::new();
        for m in &msgs {
            write_frame(&mut bytes, m).expect("in-memory write");
        }
        // 1–3 bytes at a time: every frame arrives interleaved across
        // many partial reads, and boundaries never align with frames.
        let mut r = Chunked {
            data: &bytes,
            pos: 0,
            rng: StdRng::seed_from_u64(0xF00D + round),
            max_chunk: 3,
        };
        let mut frames = FrameReader::new();
        for m in &msgs {
            assert_eq!(&frames.next_frame(&mut r).expect("reassembled frame"), m);
        }
        assert!(
            matches!(frames.next_frame(&mut r), Err(WireError::Closed)),
            "clean EOF at the stream's end"
        );
    }
}

#[test]
fn a_torn_frame_spliced_into_a_fresh_one_is_rejected_not_misparsed() {
    // The blackhole/reset toxics can cut a connection mid-frame; a
    // naive peer that reconnects and keeps appending would splice a
    // fresh frame right after the torn prefix. The reader must flag a
    // typed error — under the length prefix alone the splice could
    // decode as a *different valid message*; the checksum forbids it.
    let mut rng = StdRng::seed_from_u64(0x746f_726e);
    for _ in 0..400 {
        let torn = arbitrary_msg(&mut rng);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &torn).expect("in-memory write");
        let cut = rng.gen_range(5..bytes.len());
        bytes.truncate(cut);
        write_frame(&mut bytes, &arbitrary_msg(&mut rng)).expect("in-memory write");
        let mut r = Cursor::new(&bytes[..]);
        match FrameReader::new().next_frame(&mut r) {
            Err(WireError::Io(e)) => panic!("in-memory reads cannot fail with i/o: {e}"),
            Err(_) => {}
            // A splice can only decode when the borrowed bytes re-spell
            // the torn frame exactly (same payload, same checksum) — in
            // which case it IS the original message and exactly-once is
            // unharmed. Decoding as a *different* message is the bug.
            Ok(decoded) => assert_eq!(decoded, torn, "a torn splice misparsed"),
        }
    }
}

#[test]
fn interleaved_partial_frames_from_two_writers_stay_framed() {
    // Two logical streams sliced and concatenated whole-frame-wise (the
    // proxy never mixes bytes of different connections, but a combining
    // server's reply stream interleaves frames written by the reader
    // thread and the combiner): order within the byte stream is the
    // only order, and every frame must parse independently.
    let mut rng = StdRng::seed_from_u64(0x696e_746c);
    let a: Vec<WireMsg> = (0..10).map(|_| arbitrary_msg(&mut rng)).collect();
    let b: Vec<WireMsg> = (0..10).map(|_| arbitrary_msg(&mut rng)).collect();
    let mut bytes = Vec::new();
    let mut expect = Vec::new();
    for (x, y) in a.iter().zip(&b) {
        write_frame(&mut bytes, x).expect("in-memory write");
        write_frame(&mut bytes, y).expect("in-memory write");
        expect.push(x.clone());
        expect.push(y.clone());
    }
    let mut r = Chunked { data: &bytes, pos: 0, rng: StdRng::seed_from_u64(0xBEEF), max_chunk: 5 };
    let mut frames = FrameReader::new();
    for m in &expect {
        assert_eq!(&frames.next_frame(&mut r).expect("interleaved frame"), m);
    }
}

#[test]
fn corrupted_frames_are_flagged_with_the_offending_checksum() {
    // Byte corruption in flight (the corrupt toxic) must surface as
    // Checksum — not decode into a different message whose ack would
    // break exactly-once.
    let mut rng = StdRng::seed_from_u64(0x6372_6370);
    let mut flagged = 0u32;
    for _ in 0..400 {
        let msg = arbitrary_msg(&mut rng);
        let mut framed = Vec::new();
        write_frame(&mut framed, &msg).expect("in-memory write");
        // Flip strictly inside the payload (past the 8-byte header), so
        // the length prefix stays honest and the CRC must do the work.
        if framed.len() <= 8 {
            continue;
        }
        let idx = rng.gen_range(8..framed.len());
        framed[idx] ^= rng.gen_range(1u32..=255) as u8;
        let mut r = Cursor::new(&framed[..]);
        match FrameReader::new().next_frame(&mut r) {
            Err(WireError::Checksum { expected, found }) => {
                assert_ne!(expected, found);
                flagged += 1;
            }
            other => panic!("payload corruption must fail the checksum, got {other:?}"),
        }
    }
    assert!(flagged > 300, "the corpus actually exercised the checksum ({flagged})");
}
