//! The coordinator as a pure state machine: [`Coord::step`] takes one
//! [`Input`] and the current time, writes bytes into one [`Outbox`] per
//! worker over whatever [`Write`] its caller connected (a socket in the
//! shell, a byte queue in the in-memory harness), and returns the
//! [`Effect`]s the caller must carry out. It owns no socket, thread,
//! process or clock.

use super::recover::{
    backoff_for, FailureCause, KillPoint, Outbox, ReplayDedup, SeqLedger, SeqVerdict,
};
use super::wire::{self, Frame, FrameDecoder, Routed, WireError};
use super::{owner, DistError, DistRun, DistSpec, DistStats, SinkSet};
use crate::backend::Topology;
use crate::channel::WireFaults;
use std::collections::HashMap;
use std::io::Write;
use std::ops::Range;
use std::time::Duration;

/// How long the coordinator tolerates zero protocol *progress* (see
/// `Coord::last_progress`) before declaring the run stalled, and how long
/// collection may take.
const STALL_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a (re)spawned worker may take to complete its hello.
pub(super) const HELLO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the coordinator tolerates silence from a worker before
/// declaring it dead ([`FailureCause::HeartbeatTimeout`]). Generous: on a
/// loaded 1-core box heartbeat threads can starve for whole seconds, and
/// crash detection is near-instant anyway via EOF and process exits.
const WORKER_DEADLINE: Duration = Duration::from_secs(30);

/// The frames decoded from one read of a worker's connection, as its
/// reader hands them over. A data frame's message stays the bytes the
/// decoder checked ([`FrameDecoder::next_routed`]), back to back with the
/// read's other messages in one buffer: the coordinator hashes and
/// forwards those bytes and never builds a [`crate::message::Message`].
#[derive(Debug, Default)]
pub(super) struct Received {
    /// Every data frame's message, back to back.
    messages: Vec<u8>,
    frames: Vec<Inbound>,
}

/// One frame of a [`Received`].
#[derive(Debug)]
enum Inbound {
    /// A data frame whose message is `messages[message]`.
    Data {
        wire: u64,
        seq: u64,
        message: Range<usize>,
    },
    /// Any other frame.
    Frame(Frame),
}

impl Received {
    /// Take every complete frame out of `decoder`, up to the first
    /// corrupt one, whose error comes back alongside.
    pub(super) fn decode(decoder: &mut FrameDecoder) -> (Received, Option<WireError>) {
        let mut received = Received::default();
        loop {
            let frame = match decoder.next_routed() {
                Ok(Some(Routed::Data { wire, seq, message })) => {
                    let start = received.messages.len();
                    received.messages.extend_from_slice(message);
                    let message = start..received.messages.len();
                    Inbound::Data { wire, seq, message }
                }
                Ok(Some(Routed::Frame(frame))) => Inbound::Frame(frame),
                Ok(None) => return (received, None),
                Err(e) => return (received, Some(e)),
            };
            received.frames.push(frame);
        }
    }

    /// Did the read complete no frame?
    pub(super) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// What the caller tells the coordinator. Connection ids are the
/// caller's; every input tagged with one is ignored unless it names the
/// worker's live connection, so a dead incarnation's bytes are never
/// attributed to its successor.
pub(super) enum Input<W> {
    /// Connection `conn` completed its hello as `worker` at `epoch`;
    /// `writer` is its send half.
    Hello {
        worker: usize,
        epoch: u32,
        conn: u64,
        writer: W,
    },
    /// Frames decoded from one read of connection `conn`.
    Frames {
        worker: usize,
        conn: u64,
        frames: Received,
    },
    /// `worker` was lost: connection `conn` ended (EOF or a failed read
    /// is [`FailureCause::Eof`], a stream that stopped decoding
    /// [`FailureCause::Corrupt`]), or with `conn` `None`, the process of
    /// its current incarnation exited ([`FailureCause::Exited`]).
    Lost {
        worker: usize,
        conn: Option<u64>,
        cause: FailureCause,
    },
    /// Time passed: check deadlines and due respawns.
    Tick,
}

/// What the coordinator asks of its caller.
pub(super) enum Effect {
    /// Start incarnation `epoch` of `worker`; it must dial back and say
    /// hello with that epoch.
    Spawn { worker: usize, epoch: u32 },
    /// Kill `worker`'s current incarnation now, without letting it flush.
    Kill { worker: usize },
    /// The run is over: every worker has been told to shut down.
    Done(DistRun),
}

/// Coordinator-side state of one cross wire.
struct WireRoute {
    /// Owner of the consumer — where frames of this wire go.
    dest: usize,
    /// Loss/duplication schedule — the one the wire would draw on a local
    /// par runtime.
    faults: Option<WireFaults>,
    /// Delivery ordinal of the next frame routed on the wire.
    next_seq: u64,
}

/// The coordinator's serial router: applies per-wire faults, then logs
/// each frame into the destination worker's [`Outbox`], which coalesces
/// them into chunk-sized writes. Serial on purpose — one owner makes every
/// draw, so fault schedules cannot race.
///
/// Sequence numbers on routed frames are the router's own *delivery
/// ordinals* (per wire, from 0), not the producer's egress numbers: a
/// respawned producer restarts its egress sequences and may permute its
/// re-emissions, but consumers must still see a contiguous per-wire
/// stream. Replay-suppressed frames consume neither an ordinal nor a
/// fault draw, so crash-free and crashed runs route byte-identically.
pub(super) struct Router<W> {
    routes: HashMap<u64, WireRoute>,
    /// Per worker: the log of everything ever routed toward it, in route
    /// order — the exact post-fault stream, re-shipped verbatim into each
    /// respawned incarnation — and the write buffer in front of its
    /// connection. A failed write is flagged there; the coordinator turns
    /// the flag into a failure verdict (the frames are safe in the log).
    pub(super) outboxes: Vec<Outbox<W>>,
    /// Data frames logged toward each worker. Counts at log time, like
    /// everything that keys on it (stability, chaos kill points): a frame
    /// waiting in an outbox buffer is already "sent".
    pub(super) sent_to: Vec<u64>,
    pub(super) stats: DistStats,
}

impl<W: Write> Router<W> {
    /// A router for `processes` workers over the cross wires of
    /// `topology`, with their fault schedules seeded from `seed`. Also
    /// returns, per worker, the cross wires it produces.
    pub(super) fn new(topology: &Topology, processes: usize, seed: u64) -> (Self, Vec<Vec<u64>>) {
        let mut routes = HashMap::new();
        let mut origin_wires = vec![Vec::new(); processes];
        for w in topology.wires() {
            let (from, to) = (owner(w.from.0, processes), owner(w.to.0, processes));
            if from == to {
                continue;
            }
            origin_wires[from].push(w.number);
            let faults = WireFaults::new(&topology.channels()[w.channel.0], seed, w.number);
            let route = WireRoute {
                dest: to,
                faults,
                next_seq: 0,
            };
            routes.insert(w.number, route);
        }
        let router = Router {
            routes,
            outboxes: (0..processes).map(|_| Outbox::new()).collect(),
            sent_to: vec![0; processes],
            stats: DistStats {
                processes,
                ..DistStats::default()
            },
        };
        (router, origin_wires)
    }

    /// Route one data message arriving from a worker, given as its
    /// canonical encoding ([`wire::message_bytes`]) — the bytes the
    /// caller hashed for dedup are the bytes that get framed and logged.
    pub(super) fn route(&mut self, wire: u64, message: &[u8]) -> Result<(), DistError> {
        let route = self
            .routes
            .get_mut(&wire)
            .ok_or_else(|| DistError::Protocol(format!("data frame for unknown wire {wire}")))?;
        let (dest, seq) = (route.dest, route.next_seq);
        route.next_seq += 1;
        let (retransmitted, duplicate) = route
            .faults
            .as_mut()
            .map_or((false, false), WireFaults::draw);
        self.stats.retransmits += u64::from(retransmitted);
        if duplicate {
            self.stats.duplicates += 1;
            self.write(dest, wire, seq, message);
        }
        self.write(dest, wire, seq, message);
        Ok(())
    }

    /// Log one post-fault frame for `dest` and queue it for the
    /// connection; the bytes leave with the next [`Self::flush`] (or
    /// sooner, once a chunk's worth is pending). A failed (or absent)
    /// connection never loses the frame: it is in the log, and the
    /// respawned worker's connection replays the log.
    fn write(&mut self, dest: usize, wire: u64, seq: u64, message: &[u8]) {
        self.sent_to[dest] += 1;
        self.stats.frames_routed += 1;
        blazes_obs::record(
            blazes_obs::EventKind::FrameSend,
            dest as u64,
            self.sent_to[dest],
        );
        self.outboxes[dest].push(wire, seq, message);
    }

    /// Hand every worker's pending bytes to its connection.
    pub(super) fn flush(&mut self) {
        for outbox in &mut self.outboxes {
            outbox.flush();
        }
    }

    /// Send a control frame to one worker (bypasses the fault schedule
    /// and the replay log — faults and recovery model the data plane, not
    /// the coordinator's own protocol). It leaves at once, behind any
    /// data still pending for that worker, so a `Collect` never overtakes
    /// the frames its counters vouch for. A down worker is skipped; a
    /// failed write is flagged for the supervisor.
    pub(super) fn control(&mut self, dest: usize, frame: &Frame) {
        self.outboxes[dest].send_unlogged(&wire::encode(frame));
    }
}

/// Where a worker slot is in its incarnation's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Life {
    /// Spawned at `since`; its hello has not arrived.
    Awaiting { since: Duration },
    /// Hello'd, planned and connected on `conn`.
    Up { conn: u64 },
    /// Dead; the next incarnation is due at `respawn_at`.
    Down { respawn_at: Duration },
}

/// Coordinator-side state of one worker.
pub(super) struct Slot {
    pub(super) life: Life,
    /// Incarnation number: 0 originally, bumped on every respawn.
    pub(super) epoch: u32,
    /// Last frame of any kind on the live connection (liveness clock).
    last_heard: Duration,
    /// Heartbeats received across all incarnations (chaos triggers key
    /// on this).
    heartbeats: u64,
    /// Respawns consumed against the budget.
    respawns: u32,
    /// Latest idle report of the live incarnation.
    idle: Option<(u64, u64)>,
    /// Name of the last frame received (stall forensics).
    last_frame: &'static str,
}

/// Phase 1 routes until the fleet is stable; phase 2 collects.
pub(super) enum Phase {
    Routing,
    /// `done[i]`: worker `i` sent `Done`; collection began at `since`.
    Collecting {
        done: Vec<bool>,
        since: Duration,
    },
}

/// The coordinator core: the router, the per-worker slots and the
/// ingest-side dedup state; drives supervision, recovery and collection.
pub(super) struct Coord<'a, W> {
    spec: &'a DistSpec,
    pub(super) router: Router<W>,
    pub(super) slots: Vec<Slot>,
    /// Cross-process wires originating at each worker — the wires whose
    /// egress that worker produces, and whose ingest filters must reset
    /// when it respawns.
    origin_wires: Vec<Vec<u64>>,
    /// Per-wire gap check on producer egress sequencing, reset for a
    /// producer's wires when it respawns.
    seq: SeqLedger,
    /// Content multisets armed at respawn: swallows recomputed frames
    /// the dead incarnation already delivered, in any emission order.
    dedup: ReplayDedup,
    /// Content hashes admitted per wire, in admission order — the data
    /// that arms `dedup` when the wire's producer respawns.
    routed_hashes: HashMap<u64, Vec<u64>>,
    /// Seq-fresh frames received per worker: the coordinator-side mirror
    /// of each worker's `sent` counter.
    pub(super) recv_from: Vec<u64>,
    chaos_fired: Vec<bool>,
    /// Protocol-progress clock: fresh data, changed idle reports, hellos
    /// and failures feed it. Heartbeats deliberately do not — they answer
    /// "is the worker alive?", not "is the run advancing?" — so a
    /// livelock among healthy workers still trips the stall verdict.
    last_progress: Duration,
    pub(super) phase: Phase,
    sinks: SinkSet,
    effects: Vec<Effect>,
}

impl<'a, W: Write> Coord<'a, W> {
    /// A coordinator for `spec`, whose assembly `topology` recorded and
    /// whose sinks collection fills, started at `now`. Returns it with
    /// the spawns of every worker's first incarnation. Only the routing
    /// table outlives this call: the recording, components and injections
    /// with it, is dropped before any worker spawns.
    pub(super) fn new(
        spec: &'a DistSpec,
        topology: Topology,
        sinks: SinkSet,
        now: Duration,
    ) -> (Self, Vec<Effect>) {
        let processes = spec.processes;
        let (router, origin_wires) = Router::new(&topology, processes, spec.seed);
        drop(topology);
        let slots = (0..processes)
            .map(|_| Slot {
                life: Life::Awaiting { since: now },
                epoch: 0,
                last_heard: now,
                heartbeats: 0,
                respawns: 0,
                idle: None,
                last_frame: "<none>",
            })
            .collect();
        let coord = Coord {
            spec,
            router,
            slots,
            origin_wires,
            seq: SeqLedger::new(),
            dedup: ReplayDedup::new(),
            routed_hashes: HashMap::new(),
            recv_from: vec![0; processes],
            chaos_fired: vec![false; spec.chaos.kills.len()],
            last_progress: now,
            phase: Phase::Routing,
            sinks,
            effects: Vec::new(),
        };
        let spawns = (0..processes)
            .map(|worker| Effect::Spawn { worker, epoch: 0 })
            .collect();
        (coord, spawns)
    }

    /// Would a hello from `worker` at `epoch` be admitted? Only the
    /// incarnation a slot awaits, during routing, is; any other dialer —
    /// a stale epoch, a slot that is already up, an index out of range —
    /// is dropped. The caller asks before it starts reading a connection.
    pub(super) fn admits(&self, worker: usize, epoch: u32) -> bool {
        matches!(self.phase, Phase::Routing)
            && self
                .slots
                .get(worker)
                .is_some_and(|s| s.epoch == epoch && matches!(s.life, Life::Awaiting { .. }))
    }

    /// Hand every worker's pending bytes to its connection. The caller
    /// calls this before it blocks, so nothing waits in a buffer while
    /// anyone waits on it.
    pub(super) fn flush(&mut self) {
        self.router.flush();
    }

    /// Advance the coordinator by one input at time `now` and return what
    /// the caller must do. After [`Effect::Done`] it has nothing left to
    /// do and is stepped no more.
    ///
    /// # Errors
    /// The run's failure verdict: a protocol violation, a worker failure
    /// that cannot be (or may not be) recovered, or a stall.
    pub(super) fn step(
        &mut self,
        now: Duration,
        input: Input<W>,
    ) -> Result<Vec<Effect>, DistError> {
        match input {
            Input::Hello {
                worker,
                epoch,
                conn,
                writer,
            } => self.on_hello(now, worker, epoch, conn, writer),
            Input::Frames {
                worker,
                conn,
                frames,
            } => {
                if matches!(self.phase, Phase::Routing) {
                    self.on_frames(now, worker, conn, frames)?;
                } else if self.slots[worker].life == (Life::Up { conn }) {
                    self.on_results(worker, frames)?;
                }
            }
            Input::Lost {
                worker,
                conn,
                cause,
            } => {
                // A connection that is not the live one was a dead
                // incarnation's. While collecting, a worker that has not
                // reported is the run's verdict: sink contents live only
                // in their owning worker, and recomputing them
                // mid-collection could tear the result set.
                if conn.is_none_or(|conn| self.slots[worker].life == (Life::Up { conn })) {
                    match &self.phase {
                        Phase::Routing => self.worker_down(now, worker, cause)?,
                        Phase::Collecting { done, .. } if !done[worker] => {
                            return Err(DistError::WorkerFailed { worker, cause });
                        }
                        Phase::Collecting { .. } => {}
                    }
                }
            }
            Input::Tick => self.on_tick(now)?,
        }
        Ok(std::mem::take(&mut self.effects))
    }

    /// Supervision: chaos, flagged write failures, deadlines and due
    /// respawns while routing; the collection deadline after.
    fn on_tick(&mut self, now: Duration) -> Result<(), DistError> {
        if let Phase::Collecting { since, .. } = self.phase {
            if now.saturating_sub(since) > STALL_TIMEOUT {
                return Err(DistError::Protocol("stalled during collection".to_string()));
            }
            return Ok(());
        }
        self.fire_chaos(now)?;
        self.sweep_write_failures(now)?;
        for i in 0..self.spec.processes {
            let silent = now.saturating_sub(self.slots[i].last_heard);
            match self.slots[i].life {
                Life::Awaiting { since } if now.saturating_sub(since) > HELLO_TIMEOUT => {
                    self.worker_down(now, i, FailureCause::HelloTimeout)?;
                }
                Life::Up { .. } if silent > WORKER_DEADLINE => {
                    let ms = silent.as_millis() as u64;
                    self.worker_down(now, i, FailureCause::HeartbeatTimeout(ms))?;
                }
                Life::Down { respawn_at } if now >= respawn_at => {
                    let epoch = self.slots[i].epoch;
                    self.slots[i].life = Life::Awaiting { since: now };
                    self.router.stats.respawns += 1;
                    blazes_obs::record(blazes_obs::EventKind::Respawn, i as u64, epoch.into());
                    self.effects.push(Effect::Spawn { worker: i, epoch });
                }
                _ => {}
            }
        }
        if now.saturating_sub(self.last_progress) > STALL_TIMEOUT {
            self.dump_stall_forensics(now);
            return Err(DistError::Protocol(self.stall_verdict(now)));
        }
        Ok(())
    }

    /// Fire any chaos kills whose trigger condition now holds. The death
    /// is declared in the same call: if the kill only signalled and left
    /// discovery to the liveness checks, the stability protocol could
    /// converge on the victim's stale idle report and phase 2 could begin
    /// while it dies — and phase-2 deaths are fatal by design.
    fn fire_chaos(&mut self, now: Duration) -> Result<(), DistError> {
        for k in 0..self.spec.chaos.kills.len() {
            if self.chaos_fired[k] {
                continue;
            }
            let kill = self.spec.chaos.kills[k];
            if kill.worker >= self.spec.processes {
                self.chaos_fired[k] = true;
                continue;
            }
            let due = match kill.point {
                KillPoint::RoutedFrames(n) => self.router.sent_to[kill.worker] >= n,
                KillPoint::Heartbeats(n) => self.slots[kill.worker].heartbeats >= n,
            };
            if due {
                self.chaos_fired[k] = true;
                self.worker_down(now, kill.worker, FailureCause::Exited(None))?;
            }
        }
        Ok(())
    }

    /// Convert flagged write failures into failure verdicts.
    fn sweep_write_failures(&mut self, now: Duration) -> Result<(), DistError> {
        for i in 0..self.spec.processes {
            if self.router.outboxes[i].take_failed() {
                self.worker_down(now, i, FailureCause::Eof)?;
            }
        }
        Ok(())
    }

    /// Declare worker `i` dead with `cause`: have it killed, quarantine
    /// its connection, and either schedule a respawn or convert the cause
    /// into the run's failure verdict.
    fn worker_down(
        &mut self,
        now: Duration,
        i: usize,
        cause: FailureCause,
    ) -> Result<(), DistError> {
        if matches!(self.slots[i].life, Life::Down { .. }) {
            return Ok(()); // already down, respawn scheduled
        }
        self.effects.push(Effect::Kill { worker: i });
        self.slots[i].idle = None;
        self.router.outboxes[i].disconnect();
        self.last_progress = now;
        self.router.stats.worker_failures += 1;
        if matches!(cause, FailureCause::Reported(_) | FailureCause::Corrupt(_)) {
            return Err(DistError::WorkerFailed { worker: i, cause });
        }
        let slot = &mut self.slots[i];
        if slot.respawns >= self.spec.tuning.respawn_budget {
            return Err(DistError::WorkerFailed {
                worker: i,
                cause: FailureCause::BudgetExhausted {
                    respawns: slot.respawns,
                    last: Box::new(cause),
                },
            });
        }
        slot.life = Life::Down {
            respawn_at: now + backoff_for(slot.respawns),
        };
        slot.respawns += 1;
        slot.epoch += 1;
        Ok(())
    }

    /// Admit the hello of the incarnation a slot awaits: ship the plan,
    /// replay the log, and re-arm the ingest filters. Any other hello is
    /// dropped with its writer, and nothing is written to it.
    ///
    /// The caller starts reading the connection *before* this step. A
    /// rehydrating worker emits while it is still being fed; with nobody
    /// draining its connection it would stop reading, and the replay
    /// write below would never return.
    fn on_hello(&mut self, now: Duration, worker: usize, epoch: u32, conn: u64, mut writer: W) {
        if !self.admits(worker, epoch) {
            return;
        }
        // The incarnation may die during its own handshake (a write below
        // fails); its exit or the hello deadline then schedules the next
        // try, and its connection's inputs are ignored: the slot never
        // adopted this connection id.
        let plan = Frame::Plan {
            topology: self.spec.topology.clone(),
            params: self.spec.params.clone(),
            seed: self.spec.seed,
            processes: self.spec.processes as u32,
            index: worker as u32,
            workers: self.spec.workers_per_process as u32,
            trace: blazes_obs::enabled(),
            epoch,
            heartbeat_ms: u32::try_from(self.spec.tuning.heartbeat_every.as_millis())
                .unwrap_or(u32::MAX),
        };
        if writer.write_all(&wire::encode(&plan)).is_err() {
            return;
        }
        let Ok(replayed) = self.router.outboxes[worker].connect(writer) else {
            return;
        };
        // The incarnation restarts its egress from zero and will re-emit
        // everything it computes. Reset the sequence ledger for its wires
        // and arm the content filter with what those wires already
        // delivered, so re-emissions are swallowed.
        self.recv_from[worker] = 0;
        for &w in &self.origin_wires[worker] {
            self.dedup
                .arm(w, self.routed_hashes.get(&w).map_or(&[][..], Vec::as_slice));
        }
        self.seq.reset_wires(&self.origin_wires[worker]);
        if replayed > 0 {
            self.router.stats.replayed_frames += replayed;
            blazes_obs::record(blazes_obs::EventKind::Replay, worker as u64, replayed);
        }
        let slot = &mut self.slots[worker];
        slot.life = Life::Up { conn };
        slot.last_heard = now;
        slot.idle = None;
        self.last_progress = now;
    }

    /// Phase 1: handle every frame of one read of `conn`, also past the
    /// idle report that completes stability — nothing a read decoded is
    /// left behind when phase 1 ends — but not past the point where the
    /// connection itself died.
    fn on_frames(
        &mut self,
        now: Duration,
        i: usize,
        conn: u64,
        received: Received,
    ) -> Result<(), DistError> {
        let mut stable = false;
        for frame in received.frames {
            // Checked per frame, not per read: a chaos kill due mid-read
            // (kill points count at log time) makes the rest of the read
            // a dead incarnation's bytes.
            if self.slots[i].life != (Life::Up { conn }) {
                break;
            }
            self.slots[i].last_heard = now;
            match frame {
                Inbound::Data { wire, seq, message } => {
                    self.slots[i].last_frame = "data";
                    self.on_data(now, i, wire, seq, &received.messages[message])?;
                }
                Inbound::Frame(frame) => {
                    self.slots[i].last_frame = frame_name(&frame);
                    stable |= self.on_frame(now, i, frame)?;
                }
            }
            self.fire_chaos(now)?;
        }
        // Only leave phase 1 with every worker alive — phase-2 deaths
        // are fatal by design. `Collect` carries the counters stability
        // was decided on, for each worker to check against its own.
        if stable {
            self.sweep_write_failures(now)?;
            if self.stable() {
                for w in 0..self.spec.processes {
                    let (sent, recv) = (self.recv_from[w], self.router.sent_to[w]);
                    self.router.control(w, &Frame::Collect { sent, recv });
                }
                self.phase = Phase::Collecting {
                    done: vec![false; self.spec.processes],
                    since: now,
                };
            }
        }
        Ok(())
    }

    /// Handle one data frame from live worker `i`: its message arrives as
    /// the canonical bytes the reader checked, which are hashed for the
    /// replay filter and routed as they are.
    fn on_data(
        &mut self,
        now: Duration,
        i: usize,
        wire: u64,
        seq: u64,
        message: &[u8],
    ) -> Result<(), DistError> {
        blazes_obs::record(blazes_obs::EventKind::FrameRecv, wire, seq);
        // An incarnation sends each egress sequence number once, in
        // order: anything but the next one is a protocol violation, not
        // something to filter.
        let verdict = self.seq.accept(wire, seq);
        if verdict != SeqVerdict::Fresh {
            return Err(DistError::Protocol(format!(
                "wire {wire}: seq {seq} is {verdict:?} at the coordinator"
            )));
        }
        self.recv_from[i] += 1;
        self.slots[i].idle = None;
        self.last_progress = now;
        let hash = super::recover::fnv1a(message);
        if self.dedup.admit(wire, hash) {
            self.routed_hashes.entry(wire).or_default().push(hash);
            self.router.route(wire, message)?;
        } else {
            self.router.stats.deduped_frames += 1;
        }
        Ok(())
    }

    /// Handle one other phase-1 frame from live worker `i`. Returns
    /// `true` when an idle report completes global stability.
    fn on_frame(&mut self, now: Duration, i: usize, frame: Frame) -> Result<bool, DistError> {
        match frame {
            Frame::Idle { sent, recv } => Ok(self.on_idle(now, i, sent, recv)),
            Frame::Heartbeat => {
                self.slots[i].heartbeats += 1;
                self.router.stats.heartbeats += 1;
                Ok(false)
            }
            Frame::Error { message } => {
                self.worker_down(now, i, FailureCause::Reported(message))?;
                Ok(false)
            }
            _ => Ok(false),
        }
    }

    /// Traffic paused at worker `i`: record its report and say whether
    /// the whole fleet is now stable (see the module's *Termination*).
    fn on_idle(&mut self, now: Duration, i: usize, sent: u64, recv: u64) -> bool {
        if self.slots[i].idle != Some((sent, recv)) {
            self.last_progress = now;
        }
        self.slots[i].idle = Some((sent, recv));
        self.stable()
    }

    /// Is every worker up, with a latest idle report equal to the frames
    /// the coordinator received from it and routed to it?
    fn stable(&self) -> bool {
        (0..self.spec.processes).all(|w| {
            matches!(self.slots[w].life, Life::Up { .. })
                && self.slots[w].idle == Some((self.recv_from[w], self.router.sent_to[w]))
        })
    }

    /// Phase 2: append sink slices, sum statistics, ingest trace lanes;
    /// once every worker is done, shut the fleet down and finish.
    fn on_results(&mut self, i: usize, received: Received) -> Result<(), DistError> {
        let Phase::Collecting { done, .. } = &mut self.phase else {
            return Ok(());
        };
        for frame in received.frames {
            let Inbound::Frame(frame) = frame else {
                continue;
            };
            match frame {
                // A sink arrives as one frame per slice of its entries,
                // in order.
                Frame::SinkResult { sink, entries } => {
                    let (_, handle) = self
                        .sinks
                        .get(sink as usize)
                        .ok_or_else(|| DistError::Protocol(format!("unknown sink {sink}")))?;
                    handle.extend(entries);
                }
                Frame::Done {
                    events,
                    delivered,
                    duplicates,
                    retransmits,
                } => {
                    let stats = &mut self.router.stats;
                    stats.events_processed += events;
                    stats.messages_delivered += delivered;
                    stats.duplicates += duplicates;
                    stats.retransmits += retransmits;
                    done[i] = true;
                }
                Frame::Trace { pid, tid, events } => {
                    // Unknown event kinds (version skew) drop here, at
                    // ingestion — the codec accepted them as raw words.
                    let events: Vec<blazes_obs::Event> = events
                        .into_iter()
                        .filter_map(blazes_obs::Event::from_words)
                        .collect();
                    blazes_obs::global().ingest_remote(vec![blazes_obs::RemoteLane {
                        pid,
                        tid,
                        events,
                    }]);
                }
                Frame::Error { message } => {
                    return Err(DistError::WorkerFailed {
                        worker: i,
                        cause: FailureCause::Reported(message),
                    });
                }
                _ => {}
            }
        }
        if done.iter().all(|d| *d) {
            for w in 0..self.spec.processes {
                self.router.control(w, &Frame::Shutdown);
                self.router.outboxes[w].disconnect();
            }
            self.effects.push(Effect::Done(DistRun {
                sinks: std::mem::take(&mut self.sinks),
                stats: self.router.stats.clone(),
            }));
        }
        Ok(())
    }

    /// One-line diagnosis of a stalled run: dead/silent workers are a
    /// liveness bug; a fleet of heartbeating workers that never converges
    /// is a scheduling stall or protocol livelock.
    fn stall_verdict(&self, now: Duration) -> String {
        let silent: Vec<usize> = (0..self.spec.processes)
            .filter(|&i| {
                !matches!(self.slots[i].life, Life::Up { .. })
                    || now.saturating_sub(self.slots[i].last_heard)
                        > self.spec.tuning.heartbeat_every * 4
            })
            .collect();
        if silent.is_empty() {
            "run stalled: all workers alive and heartbeating, but the stability \
             counters never converged (scheduling stall or protocol livelock)"
                .to_string()
        } else {
            format!("run stalled: workers {silent:?} silent (dead or wedged)")
        }
    }

    /// Print the per-worker ledger to stderr before giving up on a
    /// stalled run — the difference between "flaked again" and a
    /// diagnosable interleaving in CI logs.
    fn dump_stall_forensics(&self, now: Duration) {
        eprintln!(
            "dist coordinator stalled after {}s without protocol progress",
            STALL_TIMEOUT.as_secs(),
        );
        for (i, s) in self.slots.iter().enumerate() {
            let idle = s
                .idle
                .map_or("<none>".to_string(), |(a, b)| format!("sent={a} recv={b}"));
            eprintln!(
                "  worker {i}: epoch={} life={:?} respawns={} heartbeats={} heard={}ms-ago \
                 routed_to={} recv_from={} last_frame={} idle_report={idle}",
                s.epoch,
                s.life,
                s.respawns,
                s.heartbeats,
                now.saturating_sub(s.last_heard).as_millis(),
                self.router.sent_to[i],
                self.recv_from[i],
                s.last_frame
            );
        }
    }
}

/// Short display name of a frame, for the stall forensic dump.
fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "hello",
        Frame::Plan { .. } => "plan",
        Frame::Data { .. } => "data",
        Frame::Idle { .. } => "idle",
        Frame::Collect { .. } => "collect",
        Frame::SinkResult { .. } => "sink-result",
        Frame::Done { .. } => "done",
        Frame::Shutdown => "shutdown",
        Frame::Error { .. } => "error",
        Frame::Trace { .. } => "trace",
        Frame::Heartbeat => "heartbeat",
    }
}
