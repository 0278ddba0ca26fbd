//! Property-based tests for the distributed backend's wire codec: every
//! frame round-trips byte-exactly through [`encode`] → [`FrameDecoder`]
//! regardless of how the stream is chunked, and corruption (garbage
//! prefixes, flipped bytes, oversized lengths, truncation) never panics
//! the decoder or desynchronizes it past the damaged region. The
//! coordinator's router reads the same streams through
//! [`FrameDecoder::next_routed`], which keeps data messages as bytes: it
//! must accept and reject exactly what the full decode does, and forward
//! exactly the canonical bytes of what the full decode builds.

use blazes::dataflow::dist::wire::{
    encode, message_bytes, Frame, FrameDecoder, Routed, WireError, MAGIC, MAX_FRAME,
};
use blazes::dataflow::message::{Message, SealKey};
use blazes::dataflow::value::{Tuple, Value};
use proptest::collection;
use proptest::prelude::*;

/// Short strings mixing ASCII, separators the param codec uses, and
/// multi-byte UTF-8 — the cases most likely to break length accounting.
fn small_string() -> impl Strategy<Value = String> {
    collection::vec(
        prop_oneof![
            Just('a'),
            Just('B'),
            Just('0'),
            Just(' '),
            Just('='),
            Just('\n'),
            Just('é'),
            Just('λ'),
            Just('雪'),
        ],
        0..8,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        small_string().prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        collection::vec(value(), 0..5).prop_map(|vs| Message::Data(Tuple(vs))),
        collection::vec((small_string(), value()), 0..4)
            .prop_map(|parts| Message::Seal(SealKey { parts })),
        Just(Message::Eos),
    ]
}

/// Any partition plan.
fn plan() -> impl Strategy<Value = Frame> {
    (
        (small_string(), small_string(), any::<u64>(), any::<u32>()),
        (any::<u32>(), any::<u32>()),
        (any::<bool>(), any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |(
                (topology, params, seed, processes),
                (index, workers),
                (trace, epoch, heartbeat_ms),
            )| {
                Frame::Plan {
                    topology,
                    params,
                    seed,
                    processes,
                    index,
                    workers,
                    trace,
                    epoch,
                    heartbeat_ms,
                }
            },
        )
}

/// Any frame the protocol can carry, including deeply structured payloads.
fn frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(index, epoch)| Frame::Hello { index, epoch }),
        plan(),
        (any::<u64>(), any::<u64>(), message()).prop_map(|(wire, seq, msg)| Frame::Data {
            wire,
            seq,
            msg
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(sent, recv)| Frame::Idle { sent, recv }),
        (any::<u64>(), any::<u64>()).prop_map(|(sent, recv)| Frame::Collect { sent, recv }),
        (
            any::<u32>(),
            collection::vec((any::<u64>(), message()), 0..5)
        )
            .prop_map(|(sink, entries)| Frame::SinkResult { sink, entries }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(events, delivered, duplicates, retransmits)| Frame::Done {
                events,
                delivered,
                duplicates,
                retransmits,
            }
        ),
        Just(Frame::Shutdown),
        small_string().prop_map(|m| Frame::Error { message: m }),
        Just(Frame::Heartbeat),
        (
            any::<u32>(),
            any::<u32>(),
            collection::vec(
                (
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>(),
                ),
                0..5,
            ),
        )
            .prop_map(|(pid, tid, events)| Frame::Trace {
                pid,
                tid,
                events: events
                    .into_iter()
                    .map(|(ts, dur, kind, a, b)| [ts, dur, kind, a, b])
                    .collect(),
            }),
    ]
}

/// A data frame: the frame the router forwards without decoding.
fn data_frame() -> impl Strategy<Value = Frame> {
    (any::<u64>(), any::<u64>(), message()).prop_map(|(wire, seq, msg)| Frame::Data {
        wire,
        seq,
        msg,
    })
}

/// A frame stream two thirds data frames, as the router sees it.
fn routed_stream() -> impl Strategy<Value = Vec<Frame>> {
    collection::vec(prop_oneof![data_frame(), data_frame(), frame()], 1..8)
}

/// Damage one stream: cut it short, flip a bit, splice in a header with
/// an oversized length at a byte offset, or overwrite a byte — each
/// placed by `seed`.
fn damage(bytes: &mut Vec<u8>, kind: u8, seed: u64) {
    if bytes.is_empty() {
        return;
    }
    #[allow(clippy::cast_possible_truncation)]
    let pos = (seed % bytes.len() as u64) as usize;
    match kind {
        0 => bytes.truncate(pos),
        1 => bytes[pos] ^= 1 << (seed % 8),
        2 => {
            #[allow(clippy::cast_possible_truncation)]
            let len = (MAX_FRAME as u64 + 1 + seed % 1000) as u32;
            let mut header = MAGIC.to_vec();
            header.push(3);
            header.extend_from_slice(&len.to_le_bytes());
            bytes.splice(pos..pos, header);
        }
        _ => bytes[pos] = (seed >> 8) as u8,
    }
}

/// Feed `bytes` in `chunk`-sized pieces to a full decoder and a routing
/// decoder side by side, and check that they agree step for step: the
/// same `Ok`/`Err` sequence, the same frames, a data frame's routed bytes
/// equal to the canonical encoding of the fully decoded message, and the
/// same bytes left buffered. Returns the data frames routed.
fn routed_agrees_with_full(bytes: &[u8], chunk: usize) -> usize {
    let (mut full, mut routed) = (FrameDecoder::new(), FrameDecoder::new());
    let mut data = 0;
    for piece in bytes.chunks(chunk) {
        full.push(piece);
        routed.push(piece);
        loop {
            match (full.next_frame(), routed.next_routed()) {
                (Ok(None), Ok(None)) => break,
                (
                    Ok(Some(Frame::Data { wire, seq, msg })),
                    Ok(Some(Routed::Data {
                        wire: w,
                        seq: s,
                        message,
                    })),
                ) => {
                    assert_eq!((w, s), (wire, seq));
                    assert_eq!(message, &message_bytes(&msg)[..]);
                    data += 1;
                }
                (Ok(Some(frame)), Ok(Some(Routed::Frame(got)))) => {
                    assert!(
                        !matches!(frame, Frame::Data { .. }),
                        "a data frame routed whole"
                    );
                    assert_eq!(got, frame);
                }
                (Err(e), Err(got)) => assert_eq!(got, e),
                (expected, got) => panic!("full decode {expected:?}, routed decode {got:?}"),
            }
            assert_eq!(routed.buffered(), full.buffered());
        }
    }
    data
}

fn concat(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        bytes.extend_from_slice(&encode(f));
    }
    bytes
}

/// Byte offsets at which each encoded frame ends within the stream.
fn frame_ends(frames: &[Frame]) -> Vec<usize> {
    let mut ends = Vec::with_capacity(frames.len());
    let mut total = 0;
    for f in frames {
        total += encode(f).len();
        ends.push(total);
    }
    ends
}

/// Drain the decoder to quiescence, tolerating (and counting) errors.
/// Every error path consumes at least the magic, so this terminates.
fn drain_lossy(dec: &mut FrameDecoder) -> (Vec<Frame>, usize) {
    let mut got = Vec::new();
    let mut errors = 0;
    loop {
        match dec.next_frame() {
            Ok(Some(f)) => got.push(f),
            Ok(None) => return (got, errors),
            Err(_) => errors += 1,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any frame sequence round-trips exactly, whatever the chunking.
    #[test]
    fn round_trips_any_frames_across_any_chunking(
        frames in collection::vec(frame(), 1..7),
        chunk in 1usize..23,
    ) {
        let bytes = concat(&frames);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk) {
            dec.push(piece);
            while let Some(f) = dec.next_frame().expect("clean stream decodes cleanly") {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// A plan round-trips and its payload is exactly its fields: two
    /// length-prefixed strings, the seed, three u32 counts, the trace flag
    /// byte, epoch and heartbeat — no scheduler byte.
    #[test]
    fn a_plan_round_trips_with_no_scheduler_byte(plan in plan()) {
        let Frame::Plan { topology, params, .. } = &plan else {
            unreachable!("plan() only generates plans")
        };
        let envelope = encode(&Frame::Shutdown).len();
        let fixed = (4 + 4) + 8 + 3 * 4 + 1 + 2 * 4;
        let bytes = encode(&plan);
        prop_assert_eq!(bytes.len(), envelope + fixed + topology.len() + params.len());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        prop_assert_eq!(dec.next_frame().expect("decodes"), Some(plan.clone()));
    }

    /// A garbage prefix that cannot contain the magic is skipped without
    /// losing a single following frame or raising an error.
    #[test]
    fn magic_free_garbage_prefix_is_skipped_losslessly(
        garbage in collection::vec(any::<u8>(), 1..24),
        frames in collection::vec(frame(), 1..5),
    ) {
        // Strip the magic's first byte so the junk can never look like a
        // frame boundary, even across the junk/stream seam.
        let mut bytes: Vec<u8> = garbage
            .into_iter()
            .map(|b| if b == MAGIC[0] { !b } else { b })
            .collect();
        bytes.extend_from_slice(&concat(&frames));
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let (got, errors) = drain_lossy(&mut dec);
        prop_assert_eq!(errors, 0);
        prop_assert_eq!(got, frames);
    }

    /// Cutting the stream anywhere yields exactly the frames that fit
    /// before the cut; pushing the remainder completes the sequence. The
    /// decoder never reports an error on a merely-truncated stream.
    #[test]
    fn a_split_stream_yields_an_exact_prefix_then_completes(
        frames in collection::vec(frame(), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let bytes = concat(&frames);
        let ends = frame_ends(&frames);
        #[allow(clippy::cast_possible_truncation)]
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let whole = ends.iter().filter(|&&e| e <= cut).count();

        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..cut]);
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().expect("truncation is not corruption") {
            got.push(f);
        }
        prop_assert_eq!(&got[..], &frames[..whole]);

        dec.push(&bytes[cut..]);
        while let Some(f) = dec.next_frame().expect("completed stream decodes cleanly") {
            got.push(f);
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// The decoder's read cursor is invisible from outside: after exactly
    /// `k` frames have been consumed, under any chunking and with any
    /// amount of the stream fed, `buffered()` counts only undecoded bytes.
    #[test]
    fn residue_after_k_consumed_frames_is_exactly_the_undecoded_bytes(
        frames in collection::vec(frame(), 1..8),
        chunk in 1usize..40,
        k_seed in any::<u64>(),
        fed_seed in any::<u64>(),
    ) {
        let bytes = concat(&frames);
        let ends = frame_ends(&frames);
        #[allow(clippy::cast_possible_truncation)]
        let k = (k_seed % (frames.len() as u64 + 1)) as usize;
        let consumed = if k == 0 { 0 } else { ends[k - 1] };
        #[allow(clippy::cast_possible_truncation)]
        let fed = consumed + (fed_seed % (bytes.len() - consumed + 1) as u64) as usize;

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in bytes[..fed].chunks(chunk) {
            dec.push(piece);
            while got.len() < k {
                match dec.next_frame().expect("clean stream decodes cleanly") {
                    Some(f) => got.push(f),
                    None => break,
                }
            }
        }
        prop_assert_eq!(&got[..], &frames[..k]);
        prop_assert_eq!(dec.buffered(), fed - consumed);
    }

    /// Flipping one bit anywhere never panics the decoder, and every frame
    /// that lies entirely before the damaged byte still decodes exactly.
    #[test]
    fn a_flipped_bit_never_panics_and_earlier_frames_survive(
        frames in collection::vec(frame(), 1..6),
        pos_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut bytes = concat(&frames);
        let ends = frame_ends(&frames);
        #[allow(clippy::cast_possible_truncation)]
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let intact = ends.iter().filter(|&&e| e <= pos).count();

        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let (got, _errors) = drain_lossy(&mut dec);
        prop_assert!(got.len() >= intact);
        prop_assert_eq!(&got[..intact], &frames[..intact]);
    }

    /// An oversized length field is rejected as [`WireError::Oversized`]
    /// without allocating, and the decoder resynchronizes on the very next
    /// valid frame.
    #[test]
    fn oversized_lengths_error_then_resync(
        tag in any::<u8>(),
        extra in 1u64..1_000_000,
        frames in collection::vec(frame(), 1..4),
    ) {
        // Keep the bogus header magic-free past byte 0 so resync lands on
        // the real frames deterministically.
        let tag = if tag == MAGIC[0] { !tag } else { tag };
        #[allow(clippy::cast_possible_truncation)]
        let len = (MAX_FRAME as u64 + extra) as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(tag);
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&concat(&frames));

        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        prop_assert_eq!(dec.next_frame(), Err(WireError::Oversized(len as usize)));
        let (got, errors) = drain_lossy(&mut dec);
        prop_assert_eq!(errors, 0);
        prop_assert_eq!(got, frames);
    }

    /// The router's decode keeps every check of the full decode: on clean
    /// streams and on streams cut short, bit-flipped, overwritten or
    /// spliced with oversized lengths — under any chunking — it returns
    /// the same `Ok`/`Err` sequence, and every data frame it accepts
    /// forwards exactly `message_bytes` of the message the full decode
    /// builds.
    #[test]
    fn the_router_decode_accepts_and_rejects_what_the_full_decode_does(
        frames in routed_stream(),
        damages in collection::vec((0u8..4, any::<u64>()), 0..3),
        chunk in 1usize..64,
    ) {
        let clean = concat(&frames);
        let data = frames.iter().filter(|f| matches!(f, Frame::Data { .. })).count();
        prop_assert_eq!(routed_agrees_with_full(&clean, chunk), data);
        let mut bytes = clean;
        for (kind, seed) in damages {
            damage(&mut bytes, kind, seed);
        }
        routed_agrees_with_full(&bytes, chunk);
    }

    /// Every bit of a data frame matters to the router as it does to the
    /// full decode: flipping any one of them — in the envelope, the wire
    /// and sequence numbers or the message — gives the same verdict
    /// through both, and an accepted flip forwards the flipped message's
    /// canonical bytes.
    #[test]
    fn every_bit_of_a_data_frame_gets_the_same_verdict(frame in data_frame()) {
        let bytes = encode(&frame);
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                routed_agrees_with_full(&flipped, flipped.len());
            }
        }
    }
}
