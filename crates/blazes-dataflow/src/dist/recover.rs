//! Pure data structures for the dist backend's crash-recovery protocol.
//!
//! There is one recovery path: a worker that dies, or merely loses its
//! connection, is respawned as a fresh incarnation, and the coordinator
//! replays everything it ever routed to that worker into it. Everything
//! here is deliberately free of sockets and processes (the one type that
//! writes, [`Outbox`], is generic over [`std::io::Write`]) so the
//! protocol invariants can be property-tested in isolation (see
//! `tests/prop_recovery.rs`):
//!
//! * [`SeqLedger`] — the coordinator's per-wire gap check. Each sequence
//!   number is accepted as [`SeqVerdict::Fresh`] exactly once, in order;
//!   a respawn resets the wires its producer restarts.
//! * [`ReplayDedup`] — content-level duplicate suppression for replayed
//!   streams whose re-emission *order* may differ from the original run
//!   (a respawned worker recomputes its outputs deterministically as a
//!   multiset, but interleaving across wires can permute).
//! * [`ReplayLog`] — the coordinator's post-fault frame history for one
//!   worker, replayed verbatim into a respawned process.
//! * [`Outbox`] — a [`ReplayLog`] plus the count of its bytes written to
//!   one worker's socket. Invariant: the log is the truth and the
//!   unwritten tail a cache of it, so whatever a crash discards from the
//!   tail is re-shipped by replay — exactly once, in order.
//! * [`ChaosSpec`] — seeded fail-stop (SIGKILL) crash schedules for the
//!   chaos differential.
//! * [`DistTuning`] / [`FailureCause`] — supervision knobs and forensic
//!   failure verdicts.
//!
//! [`EgressLog`] has no caller in the backend; it stays only because the
//! benchmark's `recover.egress_log_ns_per_frame` layer measures it.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::Write;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use super::wire;

/// Byte transport used between the coordinator and its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Unix domain sockets under a per-run temp directory (default).
    #[default]
    Unix,
    /// Loopback TCP — an addressable endpoint, so workers could in
    /// principle span machines.
    Tcp,
}

/// Supervision and recovery knobs for a distributed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistTuning {
    /// Transport used for the coordinator↔worker byte streams.
    pub transport: Transport,
    /// How often workers emit [`Frame::Heartbeat`](super::wire::Frame).
    pub heartbeat_every: Duration,
    /// Maximum respawns per worker before the run fails with
    /// [`FailureCause::BudgetExhausted`].
    pub respawn_budget: u32,
}

impl Default for DistTuning {
    fn default() -> Self {
        DistTuning {
            transport: Transport::Unix,
            heartbeat_every: Duration::from_millis(25),
            respawn_budget: 3,
        }
    }
}

impl DistTuning {
    /// Select the byte transport.
    #[must_use]
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Set the worker heartbeat interval.
    #[must_use]
    pub fn with_heartbeat_every(mut self, every: Duration) -> Self {
        self.heartbeat_every = every;
        self
    }

    /// Set the per-worker respawn budget.
    #[must_use]
    pub fn with_respawn_budget(mut self, budget: u32) -> Self {
        self.respawn_budget = budget;
        self
    }
}

/// Base of the exponential respawn backoff (doubles per respawn).
const RESPAWN_BACKOFF: Duration = Duration::from_millis(40);

/// Exponential backoff before the `used + 1`-th respawn of a worker:
/// `RESPAWN_BACKOFF · 2^used`, capped at 2 s.
pub(crate) fn backoff_for(used: u32) -> Duration {
    let cap = Duration::from_secs(2);
    let mult = 1u32 << used.min(16);
    RESPAWN_BACKOFF
        .checked_mul(mult)
        .map_or(cap, |d| d.min(cap))
}

/// Why a worker was declared dead — carried in
/// [`DistError::WorkerFailed`](super::DistError::WorkerFailed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The child process exited (status code, if one was reported). A
    /// SIGKILL'd child reports `None`.
    Exited(Option<i32>),
    /// The worker's socket hit EOF while the child was still unreaped.
    Eof,
    /// No frame (not even a heartbeat) for this many milliseconds.
    HeartbeatTimeout(u64),
    /// A (re)spawned worker never completed the Hello handshake.
    HelloTimeout,
    /// Spawning the worker process itself failed.
    SpawnFailed(String),
    /// The worker's byte stream stopped decoding — non-recoverable,
    /// since we cannot trust anything it sent.
    Corrupt(String),
    /// The worker reported a fatal error of its own — non-recoverable.
    Reported(String),
    /// The respawn budget ran out; `last` is the final failure.
    BudgetExhausted {
        /// Respawns consumed before giving up.
        respawns: u32,
        /// The failure that exhausted the budget.
        last: Box<FailureCause>,
    },
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Exited(Some(code)) => write!(f, "exited with status {code}"),
            FailureCause::Exited(None) => write!(f, "killed by signal"),
            FailureCause::Eof => write!(f, "socket EOF"),
            FailureCause::HeartbeatTimeout(ms) => {
                write!(f, "no heartbeat for {ms} ms")
            }
            FailureCause::HelloTimeout => write!(f, "hello handshake timed out"),
            FailureCause::SpawnFailed(e) => write!(f, "spawn failed: {e}"),
            FailureCause::Corrupt(e) => write!(f, "wire corruption: {e}"),
            FailureCause::Reported(e) => write!(f, "worker error: {e}"),
            FailureCause::BudgetExhausted { respawns, last } => {
                write!(
                    f,
                    "respawn budget exhausted after {respawns} respawns; last: {last}"
                )
            }
        }
    }
}

/// When, within a worker's lifetime, a chaos kill fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// After the coordinator has routed this many frames *to* the worker.
    RoutedFrames(u64),
    /// After the coordinator has received this many heartbeats from the
    /// worker. Only `Heartbeats(1)` is guaranteed to fire: a worker
    /// writes its first heartbeat right after the Plan handshake, before
    /// its first idle report, and the coordinator checks kills after
    /// every frame. A later heartbeat can arrive after the run has
    /// already stabilised, when no kill fires any more.
    Heartbeats(u64),
}

/// One scheduled SIGKILL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    /// Worker index to kill.
    pub worker: usize,
    /// When to kill it.
    pub point: KillPoint,
}

/// A seeded fail-stop crash schedule. Kills are SIGKILL — the victim
/// gets no chance to flush or clean up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The scheduled kills. Each fires at most once.
    pub kills: Vec<Kill>,
}

impl ChaosSpec {
    /// No crashes.
    #[must_use]
    pub fn none() -> Self {
        ChaosSpec::default()
    }

    /// Derive a deterministic schedule of `crashes` kills from `seed`.
    ///
    /// Kill points alternate between the first heartbeat (guaranteed to
    /// fire even on a run that routes few frames; see
    /// [`KillPoint::Heartbeats`]) and routed-frame counts within
    /// `frame_span` (mid-stream kills).
    #[must_use]
    pub fn seeded(seed: u64, crashes: u32, processes: u32, frame_span: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a5_0000_0000_0000);
        let mut kills = Vec::new();
        for n in 0..crashes {
            let worker = (rng.next_u64() % u64::from(processes.max(1))) as usize;
            let point = if frame_span == 0 || n % 2 == 0 {
                KillPoint::Heartbeats(1)
            } else {
                KillPoint::RoutedFrames(1 + rng.next_u64() % frame_span)
            };
            kills.push(Kill { worker, point });
        }
        ChaosSpec { kills }
    }

    /// True when the schedule contains no kills.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }
}

/// One logged egress frame awaiting acknowledgement.
#[derive(Debug)]
struct LoggedFrame {
    wire: u64,
    seq: u64,
    /// The encoded bytes, kept as a sender would to resend them.
    _bytes: Vec<u8>,
}

/// Sender-side output log: every unacknowledged frame sent on any wire,
/// in send order, trimmed by per-wire acknowledgements.
///
/// No part of the dist backend uses it: a worker that loses its
/// connection is respawned and replayed, never resent from a log of its
/// own. It stays only because the benchmark's
/// `recover.egress_log_ns_per_frame` layer measures it.
#[derive(Debug, Default)]
pub struct EgressLog {
    frames: VecDeque<LoggedFrame>,
}

impl EgressLog {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        EgressLog::default()
    }

    /// Record one sent frame.
    pub fn append(&mut self, wire: u64, seq: u64, bytes: Vec<u8>) {
        self.frames.push_back(LoggedFrame {
            wire,
            seq,
            _bytes: bytes,
        });
    }

    /// The receiver has acknowledged everything on `wire` up to and
    /// including `upto`; drop those entries.
    pub fn ack(&mut self, wire: u64, upto: u64) {
        self.frames.retain(|f| f.wire != wire || f.seq > upto);
    }

    /// Number of unacknowledged frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when every sent frame has been acknowledged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Receiver-side verdict for one arriving sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqVerdict {
    /// First sighting — deliver it.
    Fresh,
    /// Already accepted: a repeat of an earlier sequence number.
    Duplicate,
    /// Skipped ahead: `expected` is the sequence number we were owed.
    Gap {
        /// The next sequence number the ledger would have accepted.
        expected: u64,
    },
}

/// Per-wire expected-sequence tracking on the receiving side. FIFO
/// transports plus replay-from-zero semantics mean a simple "next
/// expected" counter per wire suffices: anything below is a repeat,
/// anything above is a gap.
#[derive(Debug, Default)]
pub struct SeqLedger {
    next: HashMap<u64, u64>,
}

impl SeqLedger {
    /// Empty ledger.
    #[must_use]
    pub fn new() -> Self {
        SeqLedger::default()
    }

    /// Classify an arriving `(wire, seq)` and advance the ledger when it
    /// is fresh.
    pub fn accept(&mut self, wire: u64, seq: u64) -> SeqVerdict {
        let next = self.next.entry(wire).or_insert(0);
        if seq < *next {
            SeqVerdict::Duplicate
        } else if seq == *next {
            *next += 1;
            SeqVerdict::Fresh
        } else {
            SeqVerdict::Gap { expected: *next }
        }
    }

    /// Forget the listed wires: a respawned producer restarts its
    /// per-wire sequences from zero, and its re-emissions must be
    /// classified fresh-by-sequence again (content dedup happens in
    /// [`ReplayDedup`]).
    pub fn reset_wires(&mut self, wires: &[u64]) {
        for w in wires {
            self.next.remove(w);
        }
    }
}

/// Content-level (hash multiset) duplicate suppression per wire.
///
/// A respawned worker recomputes deterministically, so the *multiset* of
/// frames it re-emits on each wire matches the original run — but the
/// interleaving may permute, so sequence numbers alone cannot pair a
/// re-emission with its already-delivered original. Arming a wire with
/// the hashes of already-delivered frames lets [`ReplayDedup::admit`]
/// swallow exactly that multiset and pass everything beyond it through.
#[derive(Debug, Default)]
pub struct ReplayDedup {
    pending: HashMap<u64, HashMap<u64, u64>>,
}

impl ReplayDedup {
    /// Empty filter (admits everything).
    #[must_use]
    pub fn new() -> Self {
        ReplayDedup::default()
    }

    /// Arm `wire` with the hashes of frames already delivered on it.
    /// Replaces any previous arming for the wire.
    pub fn arm(&mut self, wire: u64, delivered_hashes: &[u64]) {
        let set = self.pending.entry(wire).or_default();
        set.clear();
        for h in delivered_hashes {
            *set.entry(*h).or_insert(0) += 1;
        }
    }

    /// Should a frame with `hash` on `wire` be delivered? Returns false
    /// (and consumes one pending count) when it is a replay of an
    /// already-delivered frame.
    pub fn admit(&mut self, wire: u64, hash: u64) -> bool {
        let Some(set) = self.pending.get_mut(&wire) else {
            return true;
        };
        match set.get_mut(&hash) {
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    set.remove(&hash);
                }
                if set.is_empty() {
                    self.pending.remove(&wire);
                }
                false
            }
            None => true,
        }
    }

    /// Total replayed frames still awaiting suppression.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.pending.values().flat_map(|set| set.values()).sum()
    }
}

/// Coordinator-side history of every data frame shipped to one worker
/// after fault injection, in ship order: one byte buffer holding the
/// frames back to back. Replayed whole to rehydrate a respawned worker.
#[derive(Debug, Default)]
pub struct ReplayLog {
    bytes: Vec<u8>,
    /// Where each frame ends in `bytes`.
    ends: Vec<usize>,
}

impl ReplayLog {
    /// Frame and record one shipped data frame whose message is already
    /// encoded ([`wire::message_bytes`]).
    fn push(&mut self, wire: u64, seq: u64, message: &[u8]) {
        wire::put_data_frame(&mut self.bytes, wire, seq, message);
        self.ends.push(self.bytes.len());
    }

    /// Frames from position `from` onward (what a worker that confirmed
    /// delivery of `from` frames still needs).
    pub fn tail(&self, from: u64) -> impl Iterator<Item = &[u8]> {
        let from = usize::try_from(from)
            .unwrap_or(usize::MAX)
            .min(self.ends.len());
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .skip(from)
            .map(|(start, &end)| &self.bytes[start..end])
    }

    /// Total frames logged.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.ends.len() as u64
    }

    /// True when nothing has been logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// Bytes a sender coalesces before it writes without being asked: one
/// socket write then carries on the order of a thousand tuple-sized
/// frames instead of one.
pub const FLUSH_BYTES: usize = 64 * 1024;

/// The coordinator's send side toward one worker: the [`ReplayLog`] of
/// every post-fault data frame, and how far into it the live connection
/// has been written.
///
/// The log is the truth, the unwritten tail a cache of it. A frame is
/// logged before it can reach the writer; only bytes meant for the
/// *current* connection are pending, so [`Outbox::disconnect`], a failed
/// write and [`Outbox::connect`] all discard them — those frames are in
/// the log, and the replay that opens the next connection re-ships them.
/// Each connection therefore receives every frame once, in push order.
#[derive(Debug)]
pub struct Outbox<W> {
    log: ReplayLog,
    /// Log bytes before this offset are written (or were discarded with
    /// a connection); the rest are pending for the live connection.
    written: usize,
    writer: Option<W>,
    failed: bool,
}

impl<W> Default for Outbox<W> {
    fn default() -> Self {
        Outbox {
            log: ReplayLog::default(),
            written: 0,
            writer: None,
            failed: false,
        }
    }
}

impl<W: Write> Outbox<W> {
    /// An empty, disconnected outbox.
    #[must_use]
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Everything ever pushed, in push order.
    #[must_use]
    pub fn log(&self) -> &ReplayLog {
        &self.log
    }

    /// Bytes logged but not yet written to the live connection.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.log.bytes.len() - self.written
    }

    /// Log one data frame — `wire`, `seq` and the message's canonical
    /// bytes — and queue it for the live connection, if any. Pending
    /// bytes that reach [`FLUSH_BYTES`] flush themselves.
    pub fn push(&mut self, wire: u64, seq: u64, message: &[u8]) {
        self.log.push(wire, seq, message);
        if self.writer.is_none() {
            self.written = self.log.bytes.len();
        } else if self.pending_bytes() >= FLUSH_BYTES {
            self.flush();
        }
    }

    /// Write `bytes` — a control frame: never logged, never replayed —
    /// behind everything pending, now. Skipped while disconnected.
    pub fn send_unlogged(&mut self, bytes: &[u8]) {
        self.flush();
        if let Some(writer) = self.writer.as_mut() {
            if writer.write_all(bytes).is_err() {
                self.writer = None;
                self.failed = true;
            }
        }
    }

    /// Hand everything pending to the connection in one write. A failed
    /// write drops the connection and raises the flag
    /// [`Outbox::take_failed`] reports; the bytes stay safe in the log.
    pub fn flush(&mut self) {
        let pending = &self.log.bytes[self.written..];
        if pending.is_empty() {
            return;
        }
        if let Some(writer) = self.writer.as_mut() {
            if writer.write_all(pending).is_err() {
                self.writer = None;
                self.failed = true;
            }
        }
        self.written = self.log.bytes.len();
    }

    /// Did a write fail since the last call? (Clears the flag.)
    pub fn take_failed(&mut self) -> bool {
        std::mem::take(&mut self.failed)
    }

    /// Drop the connection, returning its writer. Pending bytes are
    /// discarded (the log still has them) and the failure flag cleared.
    pub fn disconnect(&mut self) -> Option<W> {
        self.written = self.log.bytes.len();
        self.failed = false;
        self.writer.take()
    }

    /// Open a connection to a fresh worker incarnation: replay the whole
    /// log into `writer`, then adopt it as the live connection. Returns
    /// the number of frames replayed.
    ///
    /// # Errors
    /// The replay's write error; the outbox is then left disconnected.
    pub fn connect(&mut self, mut writer: W) -> std::io::Result<u64> {
        self.disconnect();
        writer.write_all(&self.log.bytes)?;
        self.writer = Some(writer);
        Ok(self.log.len())
    }
}

/// FNV-1a over `bytes` — the content hash used by [`ReplayDedup`].
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_for(0), Duration::from_millis(40));
        assert_eq!(backoff_for(1), Duration::from_millis(80));
        assert_eq!(backoff_for(2), Duration::from_millis(160));
        assert_eq!(backoff_for(20), Duration::from_secs(2));
    }

    #[test]
    fn seeded_chaos_is_deterministic_and_guaranteed_to_fire() {
        let a = ChaosSpec::seeded(7, 2, 4, 100);
        let b = ChaosSpec::seeded(7, 2, 4, 100);
        assert_eq!(a, b);
        assert_eq!(a.kills.len(), 2);
        for kill in &a.kills {
            assert!(kill.worker < 4);
            match kill.point {
                KillPoint::Heartbeats(n) => assert_eq!(n, 1),
                KillPoint::RoutedFrames(n) => assert!((1..=100).contains(&n)),
            }
        }
        // Zero frame span forces heartbeat points only.
        for kill in &ChaosSpec::seeded(9, 3, 1, 0).kills {
            assert!(matches!(kill.point, KillPoint::Heartbeats(_)));
        }
    }

    /// Only the first heartbeat is written before a worker's first idle
    /// report, so only `Heartbeats(1)` is sure to land before the run
    /// stabilises; every heartbeat kill the generator draws must be that
    /// one, whatever the seed, crash count or process count.
    #[test]
    fn seeded_heartbeat_kills_fire_on_the_first_heartbeat() {
        let mut heartbeat_kills = 0;
        for seed in 0..200u64 {
            for crashes in 0..4u32 {
                for processes in [1u32, 2, 3, 4] {
                    for frame_span in [0u64, 8] {
                        let chaos = ChaosSpec::seeded(seed, crashes, processes, frame_span);
                        for kill in &chaos.kills {
                            if let KillPoint::Heartbeats(n) = kill.point {
                                heartbeat_kills += 1;
                                assert_eq!(
                                    n, 1,
                                    "seed {seed}, {crashes} crashes, {processes} processes: \
                                     heartbeat {n} can land after stability"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(heartbeat_kills > 0);
    }

    #[test]
    fn egress_log_trims_only_acked() {
        let mut log = EgressLog::new();
        log.append(1, 0, vec![0]);
        log.append(2, 0, vec![1]);
        log.append(1, 1, vec![2]);
        log.append(1, 2, vec![3]);
        log.ack(1, 1);
        let left: Vec<(u64, u64)> = log.frames.iter().map(|f| (f.wire, f.seq)).collect();
        assert_eq!(left, vec![(2, 0), (1, 2)]);
        log.ack(2, 0);
        log.ack(1, 2);
        assert!(log.is_empty());
    }

    #[test]
    fn seq_ledger_fresh_exactly_once() {
        let mut led = SeqLedger::new();
        assert_eq!(led.accept(5, 0), SeqVerdict::Fresh);
        assert_eq!(led.accept(5, 0), SeqVerdict::Duplicate);
        assert_eq!(led.accept(5, 1), SeqVerdict::Fresh);
        assert_eq!(led.accept(5, 3), SeqVerdict::Gap { expected: 2 });
        led.reset_wires(&[5]);
        assert_eq!(led.accept(5, 0), SeqVerdict::Fresh);
    }

    #[test]
    fn replay_dedup_swallows_exactly_the_armed_multiset() {
        let mut dd = ReplayDedup::new();
        dd.arm(1, &[10, 10, 20]);
        assert_eq!(dd.pending(), 3);
        assert!(!dd.admit(1, 10));
        assert!(!dd.admit(1, 20));
        assert!(!dd.admit(1, 10));
        // The multiset is spent: same hashes now pass through.
        assert!(dd.admit(1, 10));
        assert!(dd.admit(1, 20));
        // Unarmed wires always admit.
        assert!(dd.admit(2, 10));
        assert_eq!(dd.pending(), 0);
    }

    /// `(wire, seq, message bytes)` of a small data frame, and the frame
    /// as [`wire::encode`] writes it.
    fn frame(n: u8) -> ((u64, u64, Vec<u8>), Vec<u8>) {
        let msg = crate::message::Message::data([i64::from(n)]);
        let bytes = wire::encode(&wire::Frame::Data {
            wire: 1,
            seq: n.into(),
            msg: msg.clone(),
        });
        ((1, n.into(), wire::message_bytes(&msg)), bytes)
    }

    fn push(out: &mut Outbox<Vec<u8>>, n: u8) -> Vec<u8> {
        let ((wire, seq, message), bytes) = frame(n);
        out.push(wire, seq, &message);
        bytes
    }

    #[test]
    fn replay_log_tail_is_exact() {
        let mut log = ReplayLog::default();
        let mut frames = Vec::new();
        for n in 1..=3 {
            let ((wire, seq, message), bytes) = frame(n);
            log.push(wire, seq, &message);
            frames.push(bytes);
        }
        assert_eq!(log.len(), 3);
        let tail: Vec<&[u8]> = log.tail(1).collect();
        assert_eq!(tail, vec![&frames[1][..], &frames[2][..]]);
        assert_eq!(log.tail(3).count(), 0);
        assert_eq!(log.tail(99).count(), 0);
    }

    #[test]
    fn outbox_buffer_is_a_cache_of_the_log_tail() {
        let control = wire::encode(&wire::Frame::Collect { sent: 4, recv: 9 });
        let mut out: Outbox<Vec<u8>> = Outbox::new();
        // Disconnected: frames are logged, nothing is pending.
        let f1 = push(&mut out, 1);
        out.send_unlogged(&control);
        assert_eq!((out.log().len(), out.pending_bytes()), (1, 0));
        // Connecting replays the log, then holds frames until flushed.
        assert_eq!(out.connect(Vec::new()).unwrap(), 1);
        let f2 = push(&mut out, 2);
        let f3 = push(&mut out, 3);
        assert_eq!(out.pending_bytes(), f2.len() + f3.len());
        // A control frame goes out behind the pending data, at once.
        out.send_unlogged(&control);
        assert_eq!(out.pending_bytes(), 0);
        let f4 = push(&mut out, 4);
        // Losing the connection discards the pending tail, never the log.
        assert_eq!(
            out.disconnect(),
            Some([&f1[..], &f2, &f3, &control].concat())
        );
        assert_eq!((out.log().len(), out.pending_bytes()), (4, 0));
        // The next incarnation gets the whole log, once, in order.
        assert_eq!(out.connect(Vec::new()).unwrap(), 4);
        assert_eq!(out.disconnect(), Some([&f1[..], &f2, &f3, &f4].concat()));
        // A chunk's worth of pending bytes flushes itself.
        out.connect(Vec::new()).unwrap();
        while out.pending_bytes() + f1.len() < FLUSH_BYTES {
            push(&mut out, 5);
        }
        assert!(out.pending_bytes() > 0);
        push(&mut out, 5);
        assert_eq!(out.pending_bytes(), 0);
        let log: Vec<u8> = out.log().tail(0).flatten().copied().collect();
        assert_eq!(out.disconnect(), Some(log));
    }

    #[test]
    fn outbox_failed_write_drops_the_connection_and_flags_it() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = Outbox::new();
        out.connect(Broken).unwrap(); // empty replay writes nothing
        let ((wire, seq, message), _) = frame(7);
        out.push(wire, seq, &message);
        assert!(!out.take_failed());
        out.flush();
        assert!(out.take_failed() && !out.take_failed());
        assert!(out.disconnect().is_none(), "the connection is gone");
        assert_eq!((out.log().len(), out.pending_bytes()), (1, 0));
        out.push(wire, seq + 1, &message);
        assert!(out.connect(Broken).is_err());
        assert!(out.disconnect().is_none(), "a failed replay adopts nothing");
    }

    #[test]
    fn fnv1a_distinguishes_and_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }
}
