//! Pure data structures for the dist backend's crash-recovery protocol.
//!
//! Everything here is deliberately free of sockets and processes (the one
//! type that writes, [`Outbox`], is generic over [`std::io::Write`]) so the
//! protocol invariants can be property-tested in isolation (see
//! `tests/prop_recovery.rs`):
//!
//! * [`EgressLog`] — a sender-side log of encoded frames, trimmed by acks.
//!   Invariant: trimming never drops a frame the receiver has not
//!   acknowledged.
//! * [`SeqLedger`] — receiver-side per-wire sequence tracking. Each
//!   sequence number is accepted as [`SeqVerdict::Fresh`] exactly once.
//! * [`ReplayDedup`] — content-level duplicate suppression for replayed
//!   streams whose re-emission *order* may differ from the original run
//!   (a respawned worker recomputes its outputs deterministically as a
//!   multiset, but interleaving across wires can permute).
//! * [`ReplayLog`] — the coordinator's post-fault frame history for one
//!   worker, replayed verbatim into a respawned process.
//! * [`Outbox`] — a [`ReplayLog`] plus the coalescing buffer in front of
//!   one worker's socket. Invariant: the log is the truth and the buffer a
//!   cache of its tail, so whatever a crash or reconnect discards from the
//!   buffer is re-shipped by replay — exactly once, in order.
//! * [`ChaosSpec`] — seeded fail-stop (SIGKILL) crash schedules for the
//!   chaos differential.
//! * [`DistTuning`] / [`FailureCause`] — supervision knobs and forensic
//!   failure verdicts.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::Write;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Byte transport used between the coordinator and its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Unix domain sockets under a per-run temp directory (default).
    #[default]
    Unix,
    /// Loopback TCP — an addressable endpoint, so reconnect-with-backoff
    /// works and workers could in principle span machines.
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
    /// worker. Guaranteed to fire: the first heartbeat is sent
    /// immediately after the Plan handshake.
    Heartbeats(u64),
    /// This long after the run's routing phase started. Not used by
    /// [`ChaosSpec::seeded`] — firing is not guaranteed on a fast run.
    AfterMillis(u64),
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
/// gets no chance to flush, ack, or clean up.
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
    /// Kill points alternate between early heartbeats (guaranteed to
    /// fire even on a run that routes few frames) and routed-frame
    /// counts within `frame_span` (mid-stream kills). Wall-clock points
    /// are never chosen — they might not fire before the run finishes,
    /// which would make "the respawn actually happened" assertions flaky.
    #[must_use]
    pub fn seeded(seed: u64, crashes: u32, processes: u32, frame_span: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a5_0000_0000_0000);
        let mut kills = Vec::new();
        for n in 0..crashes {
            let worker = (rng.next_u64() % u64::from(processes.max(1))) as usize;
            let point = if frame_span == 0 || n % 2 == 0 {
                KillPoint::Heartbeats(1 + rng.next_u64() % 3)
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedFrame {
    /// Wire the frame was sent on.
    pub wire: u64,
    /// Per-wire sequence number.
    pub seq: u64,
    /// The full encoded frame bytes, resent verbatim on reconnect.
    pub bytes: Vec<u8>,
}

/// Sender-side output log: every unacknowledged frame sent on any wire,
/// in send order. Trimmed by [`Frame::Ack`](super::wire::Frame) so memory
/// stays bounded; on reconnect the whole log is resent.
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
        self.frames.push_back(LoggedFrame { wire, seq, bytes });
    }

    /// The receiver has acknowledged everything on `wire` up to and
    /// including `upto`; drop those entries.
    pub fn ack(&mut self, wire: u64, upto: u64) {
        self.frames.retain(|f| f.wire != wire || f.seq > upto);
    }

    /// Frames not yet acknowledged, oldest first.
    pub fn unacked(&self) -> impl Iterator<Item = &LoggedFrame> {
        self.frames.iter()
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
    /// Already delivered (a replay or wire-level duplicate) — drop it.
    Duplicate,
    /// Skipped ahead: `expected` is the sequence number we were owed.
    Gap {
        /// The next sequence number the ledger would have accepted.
        expected: u64,
    },
}

/// Per-wire expected-sequence tracking on the receiving side. FIFO
/// transports plus replay-from-zero semantics mean a simple "next
/// expected" counter per wire suffices: anything below is a duplicate,
/// anything above is a protocol violation.
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

    /// Highest sequence accepted on `wire` (i.e. acknowledgeable
    /// watermark), or `None` when nothing has arrived yet.
    #[must_use]
    pub fn high(&self, wire: u64) -> Option<u64> {
        self.next.get(&wire).and_then(|n| n.checked_sub(1))
    }

    /// Wires with at least one accepted frame.
    pub fn wires(&self) -> impl Iterator<Item = u64> + '_ {
        self.next.iter().filter(|(_, n)| **n > 0).map(|(w, _)| *w)
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

/// Coordinator-side history of every encoded frame shipped to one worker
/// after fault injection, in ship order. Replayed from an arbitrary
/// offset to rehydrate a reconnecting or respawned worker.
#[derive(Debug, Default)]
pub struct ReplayLog {
    frames: Vec<Vec<u8>>,
}

impl ReplayLog {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        ReplayLog::default()
    }

    /// Record one shipped frame.
    pub fn append(&mut self, bytes: Vec<u8>) {
        self.frames.push(bytes);
    }

    /// Frames from position `from` onward (what a worker that confirmed
    /// delivery of `from` frames still needs).
    pub fn tail(&self, from: u64) -> impl Iterator<Item = &[u8]> {
        let from = usize::try_from(from).unwrap_or(usize::MAX);
        self.frames
            .iter()
            .skip(from.min(self.frames.len()))
            .map(Vec::as_slice)
    }

    /// Total frames logged.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.frames.len() as u64
    }

    /// True when nothing has been logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Bytes a sender coalesces before it writes without being asked, and the
/// chunk size of a log replay: one socket write then carries on the order
/// of a thousand tuple-sized frames instead of one.
pub const FLUSH_BYTES: usize = 64 * 1024;

/// Write already-encoded `frames` back to back, coalesced into chunks of
/// about [`FLUSH_BYTES`] — how a log is replayed into a fresh connection.
/// Returns the number of frames written.
///
/// # Errors
/// The first write error; frames of earlier chunks have been written.
pub fn write_coalesced<'a, W: Write>(
    writer: &mut W,
    frames: impl Iterator<Item = &'a [u8]>,
) -> std::io::Result<u64> {
    let mut chunk = Vec::new();
    let mut written = 0u64;
    for frame in frames {
        chunk.extend_from_slice(frame);
        written += 1;
        if chunk.len() >= FLUSH_BYTES {
            writer.write_all(&chunk)?;
            chunk.clear();
        }
    }
    writer.write_all(&chunk)?;
    Ok(written)
}

/// The coordinator's send side toward one worker: the [`ReplayLog`] of
/// every post-fault data frame, and a coalescing buffer of bytes logged
/// but not yet written to the live connection.
///
/// The log is the truth, the buffer is a cache of its tail. A frame is
/// logged before it can reach the writer; the buffer only ever holds bytes
/// meant for the *current* connection, so [`Outbox::disconnect`], a failed
/// write and [`Outbox::connect`] all discard it — those frames are in the
/// log, and the replay that opens the next connection re-ships them. A
/// reconnect therefore never delivers a frame twice or out of order.
#[derive(Debug)]
pub struct Outbox<W> {
    log: ReplayLog,
    pending: Vec<u8>,
    writer: Option<W>,
    failed: bool,
}

impl<W> Default for Outbox<W> {
    fn default() -> Self {
        Outbox {
            log: ReplayLog::new(),
            pending: Vec::new(),
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

    /// Bytes logged (or sent unlogged) but not yet written.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// Log one encoded data frame and queue it for the live connection,
    /// if any. A buffer that reaches [`FLUSH_BYTES`] flushes itself.
    pub fn push(&mut self, frame: Vec<u8>) {
        if self.writer.is_some() {
            self.pending.extend_from_slice(&frame);
        }
        self.log.append(frame);
        if self.pending.len() >= FLUSH_BYTES {
            self.flush();
        }
    }

    /// Write `bytes` — a control frame: never logged, never replayed —
    /// behind everything pending, now. Skipped while disconnected.
    pub fn send_unlogged(&mut self, bytes: &[u8]) {
        if self.writer.is_some() {
            self.pending.extend_from_slice(bytes);
            self.flush();
        }
    }

    /// Hand everything pending to the connection in one write. A failed
    /// write drops the connection and raises the flag
    /// [`Outbox::take_failed`] reports; the bytes stay safe in the log.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if let Some(writer) = self.writer.as_mut() {
            if writer.write_all(&self.pending).is_err() {
                self.writer = None;
                self.failed = true;
            }
        }
        self.pending.clear();
    }

    /// Did a write fail since the last call? (Clears the flag.)
    pub fn take_failed(&mut self) -> bool {
        std::mem::take(&mut self.failed)
    }

    /// Drop the connection, returning its writer. Pending bytes are
    /// discarded (the log still has them) and the failure flag cleared.
    pub fn disconnect(&mut self) -> Option<W> {
        self.pending.clear();
        self.failed = false;
        self.writer.take()
    }

    /// Open a connection to a worker that has consumed the first `from`
    /// logged frames: replay the rest of the log into `writer`
    /// ([`write_coalesced`]), then adopt it as the live connection.
    /// Returns the number of frames replayed.
    ///
    /// # Errors
    /// The replay's write error; the outbox is then left disconnected.
    pub fn connect(&mut self, mut writer: W, from: u64) -> std::io::Result<u64> {
        self.disconnect();
        let replayed = write_coalesced(&mut writer, self.log.tail(from))?;
        self.writer = Some(writer);
        Ok(replayed)
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
                KillPoint::Heartbeats(n) => assert!((1..=3).contains(&n)),
                KillPoint::RoutedFrames(n) => assert!((1..=100).contains(&n)),
                KillPoint::AfterMillis(_) => panic!("seeded schedules never use wall-clock"),
            }
        }
        // Zero frame span forces heartbeat points only.
        for kill in &ChaosSpec::seeded(9, 3, 1, 0).kills {
            assert!(matches!(kill.point, KillPoint::Heartbeats(_)));
        }
    }

    #[test]
    fn egress_log_trims_only_acked() {
        let mut log = EgressLog::new();
        log.append(1, 0, vec![0]);
        log.append(2, 0, vec![1]);
        log.append(1, 1, vec![2]);
        log.append(1, 2, vec![3]);
        log.ack(1, 1);
        let left: Vec<(u64, u64)> = log.unacked().map(|f| (f.wire, f.seq)).collect();
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
        assert_eq!(led.high(5), Some(1));
        assert_eq!(led.high(6), None);
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

    #[test]
    fn replay_log_tail_is_exact() {
        let mut log = ReplayLog::new();
        log.append(vec![1]);
        log.append(vec![2]);
        log.append(vec![3]);
        assert_eq!(log.len(), 3);
        let tail: Vec<&[u8]> = log.tail(1).collect();
        assert_eq!(tail, vec![&[2][..], &[3][..]]);
        assert_eq!(log.tail(3).count(), 0);
        assert_eq!(log.tail(99).count(), 0);
    }

    #[test]
    fn outbox_buffer_is_a_cache_of_the_log_tail() {
        let mut out: Outbox<Vec<u8>> = Outbox::new();
        // Disconnected: frames are logged, nothing is buffered.
        out.push(vec![1]);
        out.send_unlogged(&[99]);
        assert_eq!((out.log().len(), out.pending_bytes()), (1, 0));
        // Connecting replays the log tail, then buffers until flushed.
        assert_eq!(out.connect(Vec::new(), 0).unwrap(), 1);
        out.push(vec![2]);
        out.push(vec![3]);
        assert_eq!(out.pending_bytes(), 2);
        // A control frame goes out behind the pending data, at once.
        out.send_unlogged(&[99]);
        assert_eq!(out.pending_bytes(), 0);
        out.push(vec![4]);
        // Losing the connection discards the buffer, never the log.
        assert_eq!(out.disconnect(), Some(vec![1, 2, 3, 99]));
        assert_eq!((out.log().len(), out.pending_bytes()), (4, 0));
        // The next incarnation is told what it missed — exactly that.
        assert_eq!(out.connect(Vec::new(), 3).unwrap(), 1);
        assert_eq!(out.disconnect(), Some(vec![4]));
        // A full buffer flushes itself.
        out.connect(Vec::new(), 4).unwrap();
        out.push(vec![0; FLUSH_BYTES - 1]);
        assert_eq!(out.pending_bytes(), FLUSH_BYTES - 1);
        out.push(vec![0]);
        assert_eq!(out.pending_bytes(), 0);
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
        out.connect(Broken, 0).unwrap(); // empty replay writes nothing
        out.push(vec![7]);
        assert!(!out.take_failed());
        out.flush();
        assert!(out.take_failed() && !out.take_failed());
        assert!(out.disconnect().is_none(), "the connection is gone");
        assert_eq!((out.log().len(), out.pending_bytes()), (1, 0));
        out.push(vec![8]);
        assert!(out.connect(Broken, 0).is_err());
        assert!(out.disconnect().is_none(), "a failed replay adopts nothing");
    }

    #[test]
    fn fnv1a_distinguishes_and_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }
}
