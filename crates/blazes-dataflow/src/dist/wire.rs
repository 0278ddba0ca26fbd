//! The framed wire codec of the distributed backend.
//!
//! Every frame is `MAGIC ("BLZW") + tag (u8) + length (u32 LE) + payload`.
//! The magic prefix lets a [`FrameDecoder`] resynchronize after garbage
//! (it scans forward to the next magic), the length prefix bounds every
//! read, and [`MAX_FRAME`] caps allocations so a corrupt length cannot
//! balloon memory. All integers are little-endian; strings are
//! `u32 length + UTF-8 bytes`; booleans are a single `0`/`1` byte.
//!
//! The codec is hand-rolled: the frame set is small and closed. Decoding
//! is total — any input either yields a frame, asks for more bytes, or
//! returns a typed [`WireError`] after consuming the offending region; it
//! never panics and never desynchronizes the stream.

use crate::message::{Message, SealKey};
use crate::sim::Time;
use crate::value::{Tuple, Value};

/// Frame preamble: resync anchor for the decoder.
pub const MAGIC: [u8; 4] = *b"BLZW";

/// Upper bound on a frame's payload size (16 MiB). Larger lengths are
/// treated as corruption, not as a request to allocate.
pub const MAX_FRAME: usize = 16 << 20;

/// Everything that crosses the parent↔worker boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → parent, the one frame a worker writes before its `Plan`.
    /// Each incarnation dials and says hello exactly once: a worker that
    /// loses its connection exits, and the coordinator respawns it.
    Hello {
        /// The worker's process index.
        index: u32,
        /// The worker's incarnation: 0 for the original spawn, bumped by
        /// the coordinator on every respawn. Lets the coordinator drop
        /// hellos from stale incarnations.
        epoch: u32,
    },
    /// Parent → worker: the partition plan (SPMD assembly inputs).
    Plan {
        /// Registered topology name.
        topology: String,
        /// Parameter string for the assembly function.
        params: String,
        /// Shared fault/run seed.
        seed: u64,
        /// Total worker process count.
        processes: u32,
        /// This worker's index.
        index: u32,
        /// Par-runtime threads this worker should run.
        workers: u32,
        /// Should the worker record trace events and ship them back?
        trace: bool,
        /// The incarnation this plan is addressed to (echo of the
        /// worker's hello epoch).
        epoch: u32,
        /// Heartbeat interval the worker should honor, in milliseconds.
        heartbeat_ms: u32,
    },
    /// A cross-partition message (either direction).
    Data {
        /// Global wire number.
        wire: u64,
        /// Egress sequence number on that wire (duplicates repeat one).
        seq: u64,
        /// The payload.
        msg: Message,
    },
    /// Worker → parent: the local runtime quiesced at these counters.
    Idle {
        /// Data frames this worker has written so far.
        sent: u64,
        /// Data frames this worker has received so far.
        recv: u64,
    },
    /// Parent → worker: confirm stability (answer with `ProbeAck`).
    Probe {
        /// Round identifier, echoed in the ack.
        nonce: u64,
    },
    /// Worker → parent: answer to a `Probe`.
    ProbeAck {
        /// Echo of the probe's nonce.
        nonce: u64,
        /// Data frames written at answer time.
        sent: u64,
        /// Data frames received at answer time.
        recv: u64,
        /// Was the local runtime settled with a drained egress queue?
        idle: bool,
    },
    /// Parent → worker: finish the run and stream back results.
    Collect,
    /// Worker → parent: contents of one sink this worker owns.
    SinkResult {
        /// Index into the assembly's sink set.
        sink: u32,
        /// The sink's `(time, message)` entries in arrival order.
        entries: Vec<(Time, Message)>,
    },
    /// Worker → parent: final run statistics; the worker is done.
    Done {
        /// Events its runtime processed.
        events: u64,
        /// Messages delivered on local wires.
        delivered: u64,
        /// Duplicates drawn on local wires.
        duplicates: u64,
        /// Retransmits drawn on local wires.
        retransmits: u64,
    },
    /// Parent → worker: exit now.
    Shutdown,
    /// Worker → parent: fatal worker-side failure.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Worker → parent: one thread's drained trace events, shipped during
    /// collection when the plan asked for tracing. Events travel as the
    /// packed 5-word form of `blazes_obs::Event` so the codec stays
    /// independent of the tracer's enum; unknown kinds are dropped at
    /// ingestion, not at decode.
    Trace {
        /// Originating process index (Chrome `pid` lane).
        pid: u32,
        /// Originating thread (ring) index within that process.
        tid: u32,
        /// Packed events: `[ts_ns, dur_ns, kind, a, b]` each.
        events: Vec<[u64; 5]>,
    },
    /// Worker → parent: liveness beacon, sent every `heartbeat_ms` even
    /// while busy. Doubles as an idle keepalive: when `idle` is set the
    /// counters are also a re-announcement of the worker's quiesced
    /// state, self-healing a lost `Idle` frame.
    Heartbeat {
        /// The worker's incarnation.
        epoch: u32,
        /// Data frames written so far.
        sent: u64,
        /// Data frames received so far.
        recv: u64,
        /// Is the local runtime currently quiesced with a drained egress
        /// queue?
        idle: bool,
    },
}

/// Decode-side failures. Each error consumes the offending bytes, so the
/// decoder stays usable on the same stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A frame header announced a payload larger than [`MAX_FRAME`].
    Oversized(usize),
    /// Unknown frame tag.
    BadTag(u8),
    /// The payload did not parse as its tag's layout.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds cap"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

const TAG_HELLO: u8 = 1;
const TAG_PLAN: u8 = 2;
const TAG_DATA: u8 = 3;
const TAG_IDLE: u8 = 4;
const TAG_PROBE: u8 = 5;
const TAG_PROBE_ACK: u8 = 6;
const TAG_COLLECT: u8 = 7;
const TAG_SINK_RESULT: u8 = 8;
const TAG_DONE: u8 = 9;
const TAG_SHUTDOWN: u8 = 10;
const TAG_ERROR: u8 = 11;
const TAG_TRACE: u8 = 12;
const TAG_HEARTBEAT: u8 = 13;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(1);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(2);
            put_bool(out, *b);
        }
    }
}

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u32(out, t.0.len() as u32);
    for v in &t.0 {
        put_value(out, v);
    }
}

fn put_seal_key(out: &mut Vec<u8>, k: &SealKey) {
    put_u32(out, k.parts.len() as u32);
    for (name, v) in &k.parts {
        put_str(out, name);
        put_value(out, v);
    }
}

/// The canonical encoded form of one message — the byte string hashed by
/// the recovery layer's content dedup ([`super::recover::fnv1a`]), kept
/// here so it is the codec (not the caller) that defines equality.
#[must_use]
pub fn message_bytes(m: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    put_message(&mut out, m);
    out
}

/// Frame already-encoded message bytes (see [`message_bytes`]) as a
/// [`Frame::Data`] — byte-identical to [`encode`] on the decoded frame,
/// so a router that hashed the message bytes need not encode them again.
#[must_use]
pub fn data_frame(wire: u64, seq: u64, message: &[u8]) -> Vec<u8> {
    let mut out = envelope(TAG_DATA, 16 + message.len());
    put_u64(&mut out, wire);
    put_u64(&mut out, seq);
    out.extend_from_slice(message);
    out
}

fn put_message(out: &mut Vec<u8>, m: &Message) {
    match m {
        Message::Data(t) => {
            out.push(0);
            put_tuple(out, t);
        }
        Message::Seal(k) => {
            out.push(1);
            put_seal_key(out, k);
        }
        Message::Eos => out.push(2),
    }
}

/// A frame's 9-byte envelope — magic, tag, payload length — in a buffer
/// sized to take the payload.
fn envelope(tag: u8, payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + payload_len);
    out.extend_from_slice(&MAGIC);
    out.push(tag);
    put_u32(&mut out, payload_len as u32);
    out
}

/// Encode one frame, magic and length prefix included.
#[must_use]
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    let tag = match frame {
        Frame::Hello { index, epoch } => {
            put_u32(&mut payload, *index);
            put_u32(&mut payload, *epoch);
            TAG_HELLO
        }
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
        } => {
            put_str(&mut payload, topology);
            put_str(&mut payload, params);
            put_u64(&mut payload, *seed);
            put_u32(&mut payload, *processes);
            put_u32(&mut payload, *index);
            put_u32(&mut payload, *workers);
            put_bool(&mut payload, *trace);
            put_u32(&mut payload, *epoch);
            put_u32(&mut payload, *heartbeat_ms);
            TAG_PLAN
        }
        Frame::Data { wire, seq, msg } => {
            put_u64(&mut payload, *wire);
            put_u64(&mut payload, *seq);
            put_message(&mut payload, msg);
            TAG_DATA
        }
        Frame::Idle { sent, recv } => {
            put_u64(&mut payload, *sent);
            put_u64(&mut payload, *recv);
            TAG_IDLE
        }
        Frame::Probe { nonce } => {
            put_u64(&mut payload, *nonce);
            TAG_PROBE
        }
        Frame::ProbeAck {
            nonce,
            sent,
            recv,
            idle,
        } => {
            put_u64(&mut payload, *nonce);
            put_u64(&mut payload, *sent);
            put_u64(&mut payload, *recv);
            put_bool(&mut payload, *idle);
            TAG_PROBE_ACK
        }
        Frame::Collect => TAG_COLLECT,
        Frame::SinkResult { sink, entries } => {
            put_u32(&mut payload, *sink);
            put_u32(&mut payload, entries.len() as u32);
            for (time, msg) in entries {
                put_u64(&mut payload, *time);
                put_message(&mut payload, msg);
            }
            TAG_SINK_RESULT
        }
        Frame::Done {
            events,
            delivered,
            duplicates,
            retransmits,
        } => {
            put_u64(&mut payload, *events);
            put_u64(&mut payload, *delivered);
            put_u64(&mut payload, *duplicates);
            put_u64(&mut payload, *retransmits);
            TAG_DONE
        }
        Frame::Shutdown => TAG_SHUTDOWN,
        Frame::Error { message } => {
            put_str(&mut payload, message);
            TAG_ERROR
        }
        Frame::Trace { pid, tid, events } => {
            put_u32(&mut payload, *pid);
            put_u32(&mut payload, *tid);
            put_u32(&mut payload, events.len() as u32);
            for words in events {
                for w in words {
                    put_u64(&mut payload, *w);
                }
            }
            TAG_TRACE
        }
        Frame::Heartbeat {
            epoch,
            sent,
            recv,
            idle,
        } => {
            put_u32(&mut payload, *epoch);
            put_u64(&mut payload, *sent);
            put_u64(&mut payload, *recv);
            put_bool(&mut payload, *idle);
            TAG_HEARTBEAT
        }
    };
    let mut out = envelope(tag, payload.len());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounded cursor over one frame's payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Malformed("payload underrun"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bad boolean")),
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-utf8 string"))
    }

    /// Sanity-bound a declared element count: every element occupies at
    /// least one byte, so a count beyond the remaining payload is
    /// corruption, not a huge allocation request.
    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(WireError::Malformed("impossible element count"));
        }
        Ok(n)
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::Str(self.string()?)),
            2 => Ok(Value::Bool(self.boolean()?)),
            _ => Err(WireError::Malformed("bad value tag")),
        }
    }

    fn tuple(&mut self) -> Result<Tuple, WireError> {
        let n = self.count()?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(Tuple(values))
    }

    fn seal_key(&mut self) -> Result<SealKey, WireError> {
        let n = self.count()?;
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.string()?;
            let value = self.value()?;
            parts.push((name, value));
        }
        Ok(SealKey { parts })
    }

    fn message(&mut self) -> Result<Message, WireError> {
        match self.u8()? {
            0 => Ok(Message::Data(self.tuple()?)),
            1 => Ok(Message::Seal(self.seal_key()?)),
            2 => Ok(Message::Eos),
            _ => Err(WireError::Malformed("bad message tag")),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing payload bytes"))
        }
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let frame = match tag {
        TAG_HELLO => Frame::Hello {
            index: c.u32()?,
            epoch: c.u32()?,
        },
        TAG_PLAN => Frame::Plan {
            topology: c.string()?,
            params: c.string()?,
            seed: c.u64()?,
            processes: c.u32()?,
            index: c.u32()?,
            workers: c.u32()?,
            trace: c.boolean()?,
            epoch: c.u32()?,
            heartbeat_ms: c.u32()?,
        },
        TAG_DATA => Frame::Data {
            wire: c.u64()?,
            seq: c.u64()?,
            msg: c.message()?,
        },
        TAG_IDLE => Frame::Idle {
            sent: c.u64()?,
            recv: c.u64()?,
        },
        TAG_PROBE => Frame::Probe { nonce: c.u64()? },
        TAG_PROBE_ACK => Frame::ProbeAck {
            nonce: c.u64()?,
            sent: c.u64()?,
            recv: c.u64()?,
            idle: c.boolean()?,
        },
        TAG_COLLECT => Frame::Collect,
        TAG_SINK_RESULT => {
            let sink = c.u32()?;
            let n = c.count()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let time = c.u64()?;
                let msg = c.message()?;
                entries.push((time, msg));
            }
            Frame::SinkResult { sink, entries }
        }
        TAG_DONE => Frame::Done {
            events: c.u64()?,
            delivered: c.u64()?,
            duplicates: c.u64()?,
            retransmits: c.u64()?,
        },
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_ERROR => Frame::Error {
            message: c.string()?,
        },
        TAG_TRACE => {
            let pid = c.u32()?;
            let tid = c.u32()?;
            let n = c.count()?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let mut words = [0u64; 5];
                for w in &mut words {
                    *w = c.u64()?;
                }
                events.push(words);
            }
            Frame::Trace { pid, tid, events }
        }
        TAG_HEARTBEAT => Frame::Heartbeat {
            epoch: c.u32()?,
            sent: c.u64()?,
            recv: c.u64()?,
            idle: c.boolean()?,
        },
        other => return Err(WireError::BadTag(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Incremental frame decoder over an unreliable byte stream.
///
/// Feed arbitrary chunks through [`FrameDecoder::push`], then drain with
/// [`FrameDecoder::next_frame`]: `Ok(Some(frame))` per complete frame,
/// `Ok(None)` when more bytes are needed, `Err` for a corrupt region —
/// after which the decoder has consumed the bad bytes and keeps working
/// on whatever follows.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor: `buf[..pos]` is consumed. Consuming a frame only
    /// advances it; the consumed prefix is reclaimed by [`Self::push`]
    /// once it is at least half the buffer, so decoding a chunk of many
    /// small frames is linear in the chunk, not quadratic.
    pos: usize,
}

impl FrameDecoder {
    /// A fresh decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos >= self.buf.len() - self.pos {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Undecoded bytes currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Scan to the next magic, skipping garbage. Keeps the last 3 bytes
    /// when no magic is found — they may be a magic prefix split across
    /// chunks.
    fn sync(&mut self) -> bool {
        let rest = &self.buf[self.pos..];
        if let Some(skip) = rest.windows(MAGIC.len()).position(|window| window == MAGIC) {
            if skip > 0 {
                // `a` = bytes of garbage skipped to reach the next magic.
                blazes_obs::record(blazes_obs::EventKind::Resync, skip as u64, 0);
            }
            self.pos += skip;
            true
        } else {
            self.pos = self.buf.len() - rest.len().min(MAGIC.len() - 1);
            false
        }
    }

    /// Try to decode the next complete frame.
    ///
    /// # Errors
    /// [`WireError`] for oversized, unknown-tag or malformed frames; the
    /// offending region is consumed either way.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if !self.sync() {
            return Ok(None);
        }
        let rest = &self.buf[self.pos..];
        if rest.len() < 9 {
            return Ok(None);
        }
        let tag = rest[4];
        let len = u32::from_le_bytes(rest[5..9].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            // Drop just the magic: the "length" is untrustworthy, so
            // resync from whatever follows it.
            self.pos += MAGIC.len();
            return Err(WireError::Oversized(len));
        }
        if rest.len() < 9 + len {
            return Ok(None);
        }
        let frame = decode_payload(tag, &rest[9..9 + len]);
        self.pos += 9 + len;
        frame.map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { index: 3, epoch: 2 },
            Frame::Plan {
                topology: "ad-report".to_string(),
                params: "seed=5\nreplicas=4".to_string(),
                seed: 42,
                processes: 4,
                index: 2,
                workers: 2,
                trace: true,
                epoch: 1,
                heartbeat_ms: 25,
            },
            Frame::Data {
                wire: 17,
                seq: 9,
                msg: Message::Data(Tuple(vec![
                    Value::Int(-5),
                    Value::Str("héllo".to_string()),
                    Value::Bool(true),
                ])),
            },
            Frame::Data {
                wire: 0,
                seq: 0,
                msg: Message::Seal(SealKey {
                    parts: vec![
                        ("campaign".to_string(), Value::Int(7)),
                        ("batch".to_string(), Value::Str("b".to_string())),
                    ],
                }),
            },
            Frame::Data {
                wire: 1,
                seq: 2,
                msg: Message::Eos,
            },
            Frame::Idle { sent: 10, recv: 4 },
            Frame::Probe { nonce: 99 },
            Frame::ProbeAck {
                nonce: 99,
                sent: 10,
                recv: 4,
                idle: true,
            },
            Frame::Collect,
            Frame::SinkResult {
                sink: 1,
                entries: vec![
                    (0, Message::data([1i64, 2])),
                    (7, Message::Eos),
                    (
                        9,
                        Message::Seal(SealKey {
                            parts: vec![("k".to_string(), Value::Bool(false))],
                        }),
                    ),
                ],
            },
            Frame::Done {
                events: 1,
                delivered: 2,
                duplicates: 3,
                retransmits: 4,
            },
            Frame::Shutdown,
            Frame::Error {
                message: "boom".to_string(),
            },
            Frame::Trace {
                pid: 2,
                tid: 1,
                events: vec![[1, 0, 0, 7, 8], [u64::MAX, 5, 13, 0, 3]],
            },
            Frame::Trace {
                pid: 1,
                tid: 0,
                events: vec![],
            },
            Frame::Heartbeat {
                epoch: 1,
                sent: 12,
                recv: 7,
                idle: false,
            },
            Frame::Heartbeat {
                epoch: 0,
                sent: 0,
                recv: 0,
                idle: true,
            },
        ]
    }

    #[test]
    fn round_trips_every_frame() {
        let mut dec = FrameDecoder::new();
        for frame in sample_frames() {
            dec.push(&encode(&frame));
            assert_eq!(dec.next_frame().unwrap(), Some(frame));
            assert_eq!(dec.next_frame().unwrap(), None);
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decodes_across_arbitrary_chunk_boundaries() {
        let frames = sample_frames();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode(f));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in bytes {
            dec.push(&[byte]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn truncated_frame_waits_then_completes() {
        let bytes = encode(&Frame::Probe { nonce: 7 });
        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..bytes.len() - 3]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.push(&bytes[bytes.len() - 3..]);
        assert_eq!(dec.next_frame().unwrap(), Some(Frame::Probe { nonce: 7 }));
    }

    #[test]
    fn oversized_length_is_rejected_and_stream_resyncs() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(TAG_PROBE);
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&encode(&Frame::Collect));
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(WireError::Oversized(_))));
        // The stream recovers on the next valid frame.
        assert_eq!(dec.next_frame().unwrap(), Some(Frame::Collect));
    }

    #[test]
    fn bad_tag_is_rejected_without_desync() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(200);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&encode(&Frame::Shutdown));
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame(), Err(WireError::BadTag(200)));
        assert_eq!(dec.next_frame().unwrap(), Some(Frame::Shutdown));
    }

    #[test]
    fn garbage_prefix_is_skipped_to_the_next_magic() {
        let hello = Frame::Hello { index: 1, epoch: 0 };
        let mut bytes = vec![0xde, 0xad, 0xbe, 0xef, b'B', b'L'];
        bytes.extend_from_slice(&encode(&hello));
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame().unwrap(), Some(hello));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn trailing_payload_bytes_are_malformed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(TAG_PROBE);
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.push(0xff);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::Malformed("trailing payload bytes"))
        );
    }

    #[test]
    fn message_bytes_matches_the_data_frame_payload_tail() {
        // `message_bytes` must be exactly the encoding a Data frame
        // carries after its wire+seq header, or the recovery layer's
        // content hashes would disagree with what crossed the wire.
        let msg = Message::Data(Tuple(vec![Value::Int(3), Value::Str("x".to_string())]));
        let framed = encode(&Frame::Data {
            wire: 1,
            seq: 2,
            msg: msg.clone(),
        });
        assert_eq!(&framed[9 + 16..], &message_bytes(&msg)[..]);
        // ... and framing those bytes directly is the same frame.
        assert_eq!(data_frame(1, 2, &message_bytes(&msg)), framed);
    }

    #[test]
    fn consumed_frames_are_reclaimed_not_rescanned() {
        // Many small frames in one chunk: the cursor walks them without
        // moving the buffer, and the next push reclaims the prefix.
        let one = encode(&Frame::Probe { nonce: 1 });
        let mut dec = FrameDecoder::new();
        dec.push(&one.repeat(100));
        for left in (0..100).rev() {
            assert_eq!(dec.next_frame().unwrap(), Some(Frame::Probe { nonce: 1 }));
            assert_eq!(dec.buffered(), left * one.len());
        }
        dec.push(&one[..5]);
        assert_eq!(dec.buffered(), 5);
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn impossible_element_count_is_malformed_not_oom() {
        // A SinkResult claiming u32::MAX entries in a tiny payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(TAG_SINK_RESULT);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::Malformed("impossible element count"))
        );
    }
}
