//! The distributed multi-process backend: a topology partitioned across
//! OS processes over a real byte boundary.
//!
//! Where [`crate::par`] runs a topology on threads inside one address
//! space, this backend forks *worker processes* and ships each one its
//! partition of the graph. Inside every worker the lock-free parallel
//! runtime does the actual execution; what this module adds is the
//! boundary between them — Unix-domain sockets carrying length-prefixed
//! frames ([`wire`]) — and a coordinator (the *parent*) that routes every
//! cross-partition message.
//!
//! # Layout
//!
//! The protocol is sans-IO, split along its IO seam: `coord` is the
//! coordinator as a pure state machine (inputs and the current time in;
//! bytes into per-worker [`recover::Outbox`]es and spawn / kill / done
//! effects out) — routing and fault draws, the ingest filters, chaos kill
//! points, the respawn budget and backoff, stability and probe rounds,
//! collection; `worker` is a worker without a socket — plan checks, the
//! per-wire FIFO check, ingress injection, idle and probe answers, sink
//! and `Done` frames; `shell` holds the sockets, threads and processes
//! around both, and the one event loop that drives the coordinator
//! through both phases of a run. An in-memory harness drives the same
//! cores over byte queues and a virtual clock, which is what lets the
//! tests kill a worker at every routed-frame boundary instead of
//! sampling a few.
//!
//! # SPMD assembly
//!
//! There is no plan serializer for arbitrary component graphs (components
//! are closures over arbitrary state). Instead, topologies are *named*:
//! a [`Registry`] maps a topology name to a deterministic assembly
//! function `fn(&mut dyn ExecutorBuilder, params) -> sinks`. The parent
//! ships each worker a tiny framed plan — name, parameter string, seed,
//! process count, its own index — and every process (parent included)
//! runs the *identical* assembly. Because assembly is deterministic, all
//! processes agree on the global numbering of instances, channels and
//! wires without ever serializing a component. Instance `i` is *owned* by
//! process `i % processes`; a worker materializes only its own instances
//! (through a builder that translates global ids to local
//! [`crate::par::ParBuilder`] ids), while the parent assembles into a
//! [`ProbeBuilder`] that records pure structure.
//!
//! Coordination injection composes untouched: `blazes-autocoord`'s
//! rewrite pass runs *inside* the assembly function, below the
//! [`ExecutorBuilder`] surface, so the rewritten graph — gates and all —
//! is what gets numbered and partitioned, identically everywhere.
//!
//! # Routing and faults on the wire
//!
//! Workers connect only to the parent (a star). A wire whose producer and
//! consumer are owned by the same process stays entirely local — the par
//! runtime delivers it, fault RNG and all. A *cross* wire is split: the
//! producer is wired to an egress shim that forwards
//! `(wire, seq, message)` to the parent, the parent applies the wire's
//! fault schedule and routes the frame to the consumer's owner, and the
//! consumer's owner injects it through [`crate::par::RunningPar::inject`]
//! — each socket read's data frames as one batch, flushed before the
//! worker answers any control frame read behind them.
//!
//! The parent is a byte switch. Its reader threads check every frame
//! exactly as [`wire::FrameDecoder::next_frame`] would — tags, UTF-8,
//! element counts, trailing bytes — but through
//! [`wire::FrameDecoder::next_routed`], which leaves a data frame's
//! message as the bytes it arrived as. The coordinator hashes those bytes
//! for the replay filter and frames them straight into the destination's
//! replay log; it never builds a [`Message`]. This is sound because the
//! codec is canonical: for any message bytes the decoder accepts,
//! [`wire::message_bytes`] of the decoded message gives the same bytes
//! back, so hashes and the routed stream are what a decode-and-re-encode
//! router would produce, byte for byte.
//!
//! There is one fault model, the same on every backend: the per-wire
//! loss/duplication schedule of `WireFaults` (the channel layer), plus
//! seeded worker crashes ([`ChaosSpec`]). The parent seeds one schedule
//! per cross wire with the exact formula and per-send draw order the par
//! backend uses for local wires, so a wire's schedule is a function of its
//! global wire number and send ordinal only — identical whether the wire
//! happens to be local or cross, which is what makes digests reproducible
//! across `{1,2,4}` processes and against the single-process backends.
//! Every wire delivers in send order.
//!
//! The cost of moving a tuple between processes is paid per *chunk*, not
//! per tuple: a worker's egress pump writes whatever is queued (up to
//! [`recover::FLUSH_BYTES`]) in one socket write, the parent's readers
//! hand over every frame decoded from one read as one input, and each
//! worker's [`recover::Outbox`] coalesces routed frames into chunk-sized
//! writes. Everything that counts frames (`sent_to`, `frames_routed`,
//! kill points, delivery ordinals, fault draws) counts at *log* time, so
//! batching moves no schedule. The rule that keeps it live is **flush
//! before block**: the event loop takes queued inputs without blocking
//! and flushes every outbox before it waits; a control frame (`Probe`,
//! `Collect`, `Shutdown`) goes out behind whatever is pending for its
//! worker, never ahead; and an outbox that reaches a chunk's worth
//! flushes itself.
//!
//! # Termination and collection
//!
//! A worker reports `Idle{sent, recv}` whenever its local runtime has
//! quiesced ([`crate::par::RunningPar::settled`]) and its egress queue
//! has drained. The parent declares stability when every worker is up and
//! its latest report matches the parent's own per-worker frame counters —
//! any frame still in flight in either direction makes some counter pair
//! disagree. A `Probe`/`ProbeAck` confirmation round then re-validates
//! before the parent collects: `Collect` makes each worker finish its run
//! and stream back the contents of every sink it owns — moved out of the
//! sink, not copied, in `SinkResult` slices of at most 1 MiB of payload
//! the parent appends in order, so a sink's size is not bounded by
//! [`wire::MAX_FRAME`]; only an entry too large for a frame of its own
//! fails the run, with [`wire::WireError::Oversized`] — plus its run
//! statistics. Workers run their par runtime without time-warp
//! speculation, so a stable run has nothing left to do after `Collect`:
//! no frame is produced once the wire has closed for data.
//!
//! # Fault tolerance
//!
//! The crash model is *fail-stop during routing*: a worker process may be
//! SIGKILL'd (or die any other way) at any point of phase 1, and the run
//! still completes with the same sinks. Three mechanisms compose:
//!
//! * **Liveness.** Workers send [`wire::Frame::Heartbeat`] every
//!   [`DistTuning::heartbeat_every`]; the coordinator keeps per-worker
//!   deadlines, reaps child exits promptly, and converts every failure
//!   into a forensic [`DistError::WorkerFailed`] verdict instead of a
//!   global stall timeout. Heartbeats also double as idle keepalives, so
//!   a lost `Idle` frame self-heals on the next beat.
//! * **Recovery.** There is one way back: respawn and replay. Any
//!   connection loss is the end of an incarnation — the coordinator
//!   SIGKILLs a worker whose socket reads EOF, fails to decode or fails a
//!   write, and a worker whose connection reads EOF or fails a read or
//!   write exits. The coordinator logs the exact post-fault byte stream
//!   it ships to each worker ([`recover::ReplayLog`]) and respawns a dead
//!   worker (bounded exponential backoff, respawn budget) with a bumped
//!   *epoch*; the fresh incarnation re-runs the identical SPMD assembly
//!   and is rehydrated by replaying the whole log verbatim — one
//!   contiguous buffer, in one write — so a kill between "logged" and
//!   "flushed" loses and doubles nothing ([`recover::Outbox`]). The respawned producer restarts
//!   its egress sequences from zero, so the coordinator resets its
//!   per-wire gap check ([`recover::SeqLedger`]) for that producer's
//!   wires, and a content-multiset filter ([`recover::ReplayDedup`])
//!   suppresses the recomputed output the dead incarnation had already
//!   delivered, whatever its interleaving.
//! * **Chaos.** [`ChaosSpec`] schedules seeded SIGKILLs (after N
//!   heartbeats or N routed frames) so the differential suite can prove
//!   digests bit-identical with and without crashes.
//!
//! The guarantee is deliberately CALM-shaped: replay restores the
//! *multiset* of cross-partition messages, so confluent and coordinated
//! topologies recover bit-identically, while an *uncoordinated*
//! order-sensitive topology may still diverge under crashes — the same
//! separation the paper draws for message-level disorder. Crashes during
//! phase 2 (collection) are fatal: sink contents live only in their
//! owning worker, and recomputing them mid-collection could tear the
//! result set.

mod coord;
mod harness; // test-only: `#![cfg(test)]`
pub mod recover;
mod shell;
pub mod wire;
mod worker;

use crate::backend::{ChannelId, ExecutorBuilder, PortId};
use crate::channel::ChannelConfig;
use crate::component::Component;
use crate::message::Message;
use crate::sim::{InstanceId, Time};
use crate::sinks::CollectorSink;
pub use recover::{ChaosSpec, DistTuning, FailureCause, Kill, KillPoint, Transport};
// A glob: naming `libtest_worker_command` here would read as a caller to
// the workspace's reachability check, which must see that only tests
// call it.
pub use shell::*;
use std::collections::BTreeMap;

/// Environment variable carrying a worker's process index.
pub const ENV_INDEX: &str = "BLAZES_DIST_INDEX";
/// Environment variable carrying a worker's incarnation epoch (0 for the
/// original spawn; bumped on every respawn).
pub const ENV_EPOCH: &str = "BLAZES_DIST_EPOCH";

/// Which process owns global instance `instance` in an
/// `processes`-process run.
#[must_use]
fn owner(instance: usize, processes: usize) -> usize {
    instance % processes
}

/// Sinks returned by a registered assembly, with the *global* instance id
/// each sink was added as (ownership of the results follows from it).
pub type SinkSet = Vec<(InstanceId, CollectorSink)>;

/// A deterministic topology assembly: given any backend builder and a
/// parameter string, build the graph and return its sinks. Must be a pure
/// function of the parameter string — every process replays it.
pub type AssembleFn = Box<dyn Fn(&mut dyn ExecutorBuilder, &str) -> SinkSet + Send + Sync>;

/// Named topologies the distributed backend can instantiate. The parent
/// ships only a name + parameter string; both sides must hold the same
/// registry.
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<String, AssembleFn>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register `assemble` under `name` (replacing any previous entry).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        assemble: impl Fn(&mut dyn ExecutorBuilder, &str) -> SinkSet + Send + Sync + 'static,
    ) {
        self.entries.insert(name.into(), Box::new(assemble));
    }

    /// Run the assembly registered under `topology` against `builder`.
    ///
    /// # Errors
    /// [`DistError::UnknownTopology`] if nothing is registered under
    /// `topology`.
    pub fn assemble(
        &self,
        topology: &str,
        params: &str,
        builder: &mut dyn ExecutorBuilder,
    ) -> Result<SinkSet, DistError> {
        let f = self
            .entries
            .get(topology)
            .ok_or_else(|| DistError::UnknownTopology(topology.to_string()))?;
        Ok(f(builder, params))
    }
}

/// Everything a distributed run needs to know, parent side.
#[derive(Debug, Clone)]
pub struct DistSpec {
    /// Registered topology name.
    pub topology: String,
    /// Parameter string handed to the assembly function verbatim.
    pub params: String,
    /// Fault/run seed, shared by every process.
    pub seed: u64,
    /// Worker process count.
    pub processes: usize,
    /// Par-runtime worker threads per process.
    pub workers_per_process: usize,
    /// Worker process argv. The command re-enters this program (or any
    /// program holding the same registry) such that it reaches
    /// [`worker_main`]; see [`libtest_worker_command`] for test binaries.
    pub worker_command: Vec<String>,
    /// Supervision + recovery knobs (transport, heartbeats, respawn
    /// budget).
    pub tuning: DistTuning,
    /// Seeded crash schedule for chaos runs (empty = no crashes).
    pub chaos: ChaosSpec,
}

impl DistSpec {
    /// A spec with library defaults: 2 processes × 2 workers, no
    /// crashes.
    #[must_use]
    pub fn new(
        topology: impl Into<String>,
        params: impl Into<String>,
        worker_command: Vec<String>,
    ) -> Self {
        DistSpec {
            topology: topology.into(),
            params: params.into(),
            seed: 0,
            processes: 2,
            workers_per_process: 2,
            worker_command,
            tuning: DistTuning::default(),
            chaos: ChaosSpec::none(),
        }
    }
}

/// Errors of a distributed run.
#[derive(Debug)]
pub enum DistError {
    /// Socket / process I/O failed.
    Io(std::io::Error),
    /// A frame failed to decode.
    Wire(wire::WireError),
    /// The topology name is not in the registry.
    UnknownTopology(String),
    /// A worker failed and the run could not (or was not allowed to)
    /// recover it: the cause is non-recoverable, recovery is disabled, or
    /// the respawn budget ran out.
    WorkerFailed {
        /// Process index of the failing worker.
        worker: usize,
        /// Forensic verdict: how it died.
        cause: FailureCause,
    },
    /// The coordination protocol was violated or stalled.
    Protocol(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "dist i/o error: {e}"),
            DistError::Wire(e) => write!(f, "dist wire error: {e}"),
            DistError::UnknownTopology(t) => write!(f, "unknown dist topology {t:?}"),
            DistError::WorkerFailed { worker, cause } => {
                write!(f, "dist worker {worker} failed: {cause}")
            }
            DistError::Protocol(m) => write!(f, "dist protocol error: {m}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<wire::WireError> for DistError {
    fn from(e: wire::WireError) -> Self {
        DistError::Wire(e)
    }
}

/// Statistics of a distributed run: the parent's routing ledger plus the
/// sum of every worker's in-process runtime counters.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Worker process count.
    pub processes: usize,
    /// Cross-partition data frames the parent routed (duplicates
    /// included).
    pub frames_routed: u64,
    /// Retransmits drawn on cross wires by the parent's fault RNGs.
    pub wire_retransmits: u64,
    /// Duplicates drawn on cross wires by the parent's fault RNGs.
    pub wire_duplicates: u64,
    /// `Probe`/`ProbeAck` confirmation rounds the parent ran.
    pub probe_rounds: u64,
    /// Events processed, summed over every worker's runtime.
    pub events_processed: u64,
    /// Messages delivered on *local* wires, summed over workers.
    pub messages_delivered: u64,
    /// Duplicates drawn on local wires, summed over workers.
    pub duplicates: u64,
    /// Retransmits drawn on local wires, summed over workers.
    pub retransmits: u64,
    /// Heartbeat frames the coordinator received.
    pub heartbeats: u64,
    /// Worker failures the coordinator detected (recovered or not).
    pub worker_failures: u64,
    /// Worker processes respawned after a failure.
    pub respawns: u64,
    /// Frames replayed from coordinator logs into respawned workers.
    pub replayed_frames: u64,
    /// Worker→coordinator frames suppressed as recomputations, by a
    /// respawned producer, of output already delivered (matched by
    /// content).
    pub deduped_frames: u64,
}

impl DistStats {
    /// Publish this run's routing ledger into a metrics registry under
    /// `dist.*` names. Call once per completed run.
    pub fn export_metrics(&self, reg: &blazes_obs::Registry) {
        reg.gauge("dist.processes").set(self.processes as i64);
        reg.counter("dist.frames.sent").add(self.frames_routed);
        reg.counter("dist.frames.retransmits")
            .add(self.wire_retransmits);
        reg.counter("dist.frames.duplicates")
            .add(self.wire_duplicates);
        reg.counter("dist.probe_rounds").add(self.probe_rounds);
        reg.counter("dist.heartbeats").add(self.heartbeats);
        reg.counter("dist.worker_failures")
            .add(self.worker_failures);
        reg.counter("dist.respawns").add(self.respawns);
        reg.counter("dist.replayed_frames")
            .add(self.replayed_frames);
        reg.counter("dist.deduped_frames").add(self.deduped_frames);
        reg.counter("dist.events").add(self.events_processed);
        reg.counter("dist.deliveries").add(self.messages_delivered);
    }
}

/// Result of [`run_dist`]: the topology's sinks — filled with the entries
/// streamed back from their owning workers, in each sink's arrival order
/// — and the run's statistics.
#[derive(Debug)]
pub struct DistRun {
    /// The assembly's sinks, keyed by global instance id.
    pub sinks: SinkSet,
    /// Routing + aggregated worker statistics.
    pub stats: DistStats,
}

// ---------------------------------------------------------------------
// Structure probe (parent-side assembly)
// ---------------------------------------------------------------------

/// One wire recorded by a [`ProbeBuilder`], in global numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeWire {
    /// Producer instance (global id).
    pub from: usize,
    /// Producer output port.
    pub out_port: usize,
    /// Consumer instance (global id).
    pub to: usize,
    /// Consumer input port.
    pub in_port: usize,
    /// Channel handle the wire was connected over.
    pub channel: usize,
}

/// An [`ExecutorBuilder`] that executes nothing: it records the pure
/// structure of an assembly — instance count, channel configs and wires
/// in global numbering. The parent runs the SPMD assembly through it to
/// learn the routing table; it is also handy for asserting what a rewrite
/// pass did to a graph without running it.
#[derive(Debug, Default)]
pub struct ProbeBuilder {
    instances: usize,
    channels: Vec<ChannelConfig>,
    wires: Vec<ProbeWire>,
}

impl ProbeBuilder {
    /// A fresh probe.
    #[must_use]
    pub fn new() -> Self {
        ProbeBuilder::default()
    }

    /// Number of instances the assembly added.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// Registered channel configurations, by handle.
    #[must_use]
    pub fn channels(&self) -> &[ChannelConfig] {
        &self.channels
    }

    /// Recorded wires; a wire's global number is its index here.
    #[must_use]
    pub fn wires(&self) -> &[ProbeWire] {
        &self.wires
    }
}

impl ExecutorBuilder for ProbeBuilder {
    fn add_instance(&mut self, _component: Box<dyn Component>) -> InstanceId {
        self.instances += 1;
        InstanceId(self.instances - 1)
    }

    fn set_service_time(&mut self, _id: InstanceId, _service: Time) {}

    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        self.channels.push(cfg);
        ChannelId(self.channels.len() - 1)
    }

    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        self.wires.push(ProbeWire {
            from: from.0,
            out_port: out_port.0,
            to: to.0,
            in_port: in_port.0,
            channel: channel.0,
        });
    }

    fn inject(&mut self, _at: Time, _to: InstanceId, _port: PortId, _msg: Message) {}
}

#[cfg(test)]
mod tests {
    use super::coord::{Coord, Effect, Input, Life, Received, Router};
    use super::harness::Pipe;
    use super::shell::{read_hello, worker_run, Conn, TempDir, DIR_SEQ};
    use super::worker::{
        sink_result_frames, Control, DistWorkerBuilder, WorkerCore, SINK_SLICE_BYTES,
    };
    use super::*;
    use crate::channel::WireFaults;
    use crate::component::{Context, FnComponent};
    use crate::par::ParBuilder;
    use crate::value::{Tuple, Value};
    use std::io::Write;
    use std::os::unix::net::UnixListener;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use wire::{Frame, FrameDecoder};

    fn echo() -> Box<dyn Component> {
        Box::new(FnComponent::new("echo", |_, msg, ctx: &mut Context| {
            ctx.emit(0, msg)
        }))
    }

    /// The SPMD assembly used by the in-process partition tests: two
    /// echo stages into a sink, instances interleaved across owners.
    fn chain(b: &mut dyn ExecutorBuilder) -> SinkSet {
        let a = b.add_instance(echo());
        let m = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        let ch = b.add_channel(ChannelConfig::lan());
        b.connect(a, PortId(0), m, PortId(0), ch);
        b.connect(m, PortId(0), s, PortId(0), ch);
        for i in 0..50i64 {
            b.inject(0, a, PortId(0), Message::data([i]));
        }
        vec![(s, sink)]
    }

    #[test]
    fn ownership_is_round_robin() {
        assert_eq!(owner(0, 2), 0);
        assert_eq!(owner(1, 2), 1);
        assert_eq!(owner(5, 2), 1);
        assert_eq!(owner(5, 1), 0);
        assert_eq!(owner(5, 4), 1);
    }

    /// Global numbering must be identical no matter which index runs the
    /// assembly, and cross wiring must mirror: a wire leaving partition A
    /// is in B's ingress table, never in A's.
    #[test]
    fn spmd_numbering_and_cross_wiring_agree() {
        let mut pb0 = ParBuilder::new(1);
        let (mut b0, _rx0, _q0) = DistWorkerBuilder::new(&mut pb0, 0, 2);
        let sinks0 = chain(&mut b0);
        let in0 = b0.ingress;

        let mut pb1 = ParBuilder::new(1);
        let (mut b1, _rx1, _q1) = DistWorkerBuilder::new(&mut pb1, 1, 2);
        let sinks1 = chain(&mut b1);
        let in1 = b1.ingress;

        assert_eq!(sinks0[0].0, sinks1[0].0, "global sink ids agree");
        // Instances 0 (a) and 2 (s) are owned by 0; instance 1 (m) by 1.
        // Wire 0: a->m crosses 0->1; wire 1: m->s crosses 1->0.
        assert_eq!(
            in1.get(&0).copied(),
            Some((InstanceId(0), PortId(0))),
            "worker 1's local id for global instance 1 is its first par instance"
        );
        assert_eq!(in1.keys().collect::<Vec<_>>(), [&0]);
        assert_eq!(in0.keys().collect::<Vec<_>>(), [&1]);
    }

    /// Full partition semantics without processes: run the chain split
    /// across two in-process par runtimes, shuttle egress frames by hand,
    /// and compare against an unpartitioned run.
    #[test]
    fn manual_two_partition_run_matches_unpartitioned() {
        // Reference: single par backend.
        let mut reference = ParBuilder::new(9).with_workers(2);
        let ref_sinks = chain(&mut reference);
        let _ = reference.build().run();
        let expected = ref_sinks[0].1.message_set();
        assert_eq!(expected.len(), 50);

        // Partitioned: two runtimes, manual router.
        let mut pb0 = ParBuilder::new(9).with_workers(2);
        let (mut b0, rx0, q0) = DistWorkerBuilder::new(&mut pb0, 0, 2);
        let sinks0 = chain(&mut b0);
        let in0 = b0.ingress;
        let mut pb1 = ParBuilder::new(9).with_workers(2);
        let (mut b1, rx1, q1) = DistWorkerBuilder::new(&mut pb1, 1, 2);
        let _sinks1 = chain(&mut b1);
        let in1 = b1.ingress;

        let r0 = pb0.build().start();
        let r1 = pb1.build().start();
        let mut moved = (0u64, 0u64);
        // Shuttle until both partitions quiesce with drained queues.
        loop {
            let mut progress = false;
            while let Ok((wire, _seq, msg)) = rx0.try_recv() {
                let (inst, port) = in1[&wire];
                r1.inject([(inst, port, msg)]);
                moved.0 += 1;
                progress = true;
            }
            while let Ok((wire, _seq, msg)) = rx1.try_recv() {
                let (inst, port) = in0[&wire];
                r0.inject([(inst, port, msg)]);
                moved.1 += 1;
                progress = true;
            }
            if !progress
                && r0.settled()
                && r1.settled()
                && q0.load(Ordering::SeqCst) == moved.0
                && q1.load(Ordering::SeqCst) == moved.1
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = r1.finish();
        let _ = r0.finish();
        assert_eq!(moved.0, 50, "a->m crossed once per message");
        assert_eq!(moved.1, 50, "m->s crossed once per message");
        assert_eq!(sinks0[0].1.message_set(), expected);
    }

    /// The registry rejects unknown names and dispatches known ones.
    #[test]
    fn registry_dispatches_by_name() {
        let mut reg = Registry::new();
        reg.register("chain", |b, _params| chain(b));
        let mut probe = ProbeBuilder::new();
        let sinks = reg.assemble("chain", "", &mut probe).unwrap();
        assert_eq!(probe.instances(), 3);
        assert_eq!(probe.wires().len(), 2);
        assert_eq!(sinks.len(), 1);
        assert!(matches!(
            reg.assemble("nope", "", &mut ProbeBuilder::new()),
            Err(DistError::UnknownTopology(_))
        ));
    }

    /// The probe records wires in global numbering with their channels.
    #[test]
    fn probe_builder_records_structure() {
        let mut probe = ProbeBuilder::new();
        let a = probe.add_instance(echo());
        let b2 = probe.add_instance(echo());
        let ch = probe.add_channel(ChannelConfig::lan().with_loss(0.25));
        probe.connect(a, PortId(0), b2, PortId(0), ch);
        assert_eq!(probe.instances(), 2);
        assert_eq!(
            probe.wires(),
            &[ProbeWire {
                from: 0,
                out_port: 0,
                to: 1,
                in_port: 0,
                channel: 0
            }]
        );
        assert!(probe.channels()[0].loss_prob > 0.2);
    }

    /// Two instances, one fault-free wire (wire 0) from instance `from` to
    /// the other: in a 2-process run it crosses `from` → `1 - from`.
    fn one_cross_wire(from: usize) -> ProbeBuilder {
        let mut probe = ProbeBuilder::new();
        let ids = [probe.add_instance(echo()), probe.add_instance(echo())];
        let ch = probe.add_channel(ChannelConfig::instant());
        probe.connect(ids[from], PortId(0), ids[1 - from], PortId(0), ch);
        probe
    }

    fn data(wire: u64, seq: u64) -> Frame {
        Frame::Data {
            wire,
            seq,
            msg: Message::data([seq as i64]),
        }
    }

    /// The router's write path: a routed frame is logged and counted at
    /// once but reaches the connection only with a flush; what the
    /// connection then carries is the log, byte for byte; a control frame
    /// goes out behind the data pending for its worker.
    #[test]
    fn router_socket_stream_is_the_log_and_control_follows_data() {
        let (mut router, _) = Router::new(&one_cross_wire(0), 2, 0);
        let theirs = Pipe::default();
        router.outboxes[1].connect(theirs.clone()).unwrap();
        for i in 0..300i64 {
            let message = wire::message_bytes(&Message::data([i]));
            router.route(0, &message).unwrap();
        }
        assert_eq!(router.sent_to, [0, 300], "counted at log time");
        assert_eq!(router.stats.frames_routed, 300);
        assert_eq!(router.outboxes[1].log().len(), 300);
        assert!(theirs.take().is_empty(), "nothing leaves before a flush");

        router.control(1, &Frame::Probe { nonce: 9 });
        assert_eq!(router.outboxes[1].pending_bytes(), 0);
        let logged: Vec<u8> = router.outboxes[1]
            .log()
            .tail(0)
            .flatten()
            .copied()
            .collect();
        let probe = wire::encode(&Frame::Probe { nonce: 9 });
        let got = theirs.take();
        assert_eq!(
            got[..logged.len()],
            logged[..],
            "connection bytes = the log"
        );
        assert_eq!(got[logged.len()..], probe[..], "the probe came last");
        // And the log is the routed stream: delivery ordinals from zero.
        let mut decoder = FrameDecoder::new();
        decoder.push(&logged);
        for i in 0..300u64 {
            assert_eq!(decoder.next_frame().unwrap(), Some(data(0, i)));
        }

        // Flush-before-block: pending bytes leave with `flush`.
        router
            .route(0, &wire::message_bytes(&Message::Eos))
            .unwrap();
        assert!(router.outboxes[1].pending_bytes() > 0);
        router.flush();
        let eos = router.outboxes[1].log().tail(300).next().unwrap().to_vec();
        assert_eq!(theirs.take(), eos);
    }

    /// A coordinator over two workers whose first incarnations said hello
    /// on connections 1 and 2, with wire 0 crossing 1 → 0. Returns it with
    /// each worker's connection, the plans already taken off them.
    fn test_coordinator<'a>(
        spec: &'a DistSpec,
        probe: &ProbeBuilder,
    ) -> (Coord<'a, Pipe>, [Pipe; 2]) {
        let (mut coord, spawns) = Coord::new(spec, probe, Vec::new(), Duration::ZERO);
        assert_eq!(spawns.len(), 2);
        let pipes = [Pipe::default(), Pipe::default()];
        for (worker, pipe) in pipes.iter().enumerate() {
            let hello = Input::Hello {
                worker,
                epoch: 0,
                conn: worker as u64 + 1,
                writer: pipe.clone(),
            };
            assert!(coord.step(Duration::ZERO, hello).unwrap().is_empty());
            assert!(!pipe.take().is_empty(), "worker {worker} got its plan");
        }
        (coord, pipes)
    }

    /// `frames` as the coordinator receives them in one read.
    fn received(frames: &[Frame]) -> Received {
        let mut decoder = FrameDecoder::new();
        for frame in frames {
            decoder.push(&wire::encode(frame));
        }
        let (received, corrupt) = Received::decode(&mut decoder);
        assert!(corrupt.is_none());
        received
    }

    fn frames(worker: usize, frames: Vec<Frame>) -> Input<Pipe> {
        Input::Frames {
            worker,
            conn: worker as u64 + 1,
            frames: received(&frames),
        }
    }

    /// A kill that lands between "logged" and "flushed": the victim's
    /// pending bytes are discarded with its connection, the log keeps
    /// every frame for the replay, and the kill point counted at log time.
    #[test]
    fn worker_down_keeps_the_log_and_empties_the_buffer() {
        let mut spec = DistSpec::new("", "", vec![String::new()]);
        spec.chaos = ChaosSpec {
            kills: vec![Kill {
                worker: 0,
                point: KillPoint::RoutedFrames(2),
            }],
        };
        let probe = one_cross_wire(1);
        let (mut coord, [theirs, _]) = test_coordinator(&spec, &probe);

        let batch = (0..5).map(|seq| data(0, seq)).collect();
        let effects = coord.step(Duration::ZERO, frames(1, batch)).unwrap();
        assert!(matches!(effects[..], [Effect::Kill { worker: 0 }]));
        // The kill fired after the second frame; the sender lives on, so
        // the rest of its batch was still routed — into the log only.
        assert_eq!(coord.router.stats.worker_failures, 1);
        assert!(matches!(coord.slots[0].life, Life::Down { .. }) && coord.slots[0].epoch == 1);
        assert_eq!(coord.recv_from[1], 5);
        assert_eq!(coord.router.sent_to[0], 5);
        assert_eq!(coord.router.outboxes[0].log().len(), 5);
        assert_eq!(coord.router.outboxes[0].pending_bytes(), 0);
        coord.flush();
        assert!(
            theirs.take().is_empty(),
            "the dead incarnation was sent nothing"
        );
    }

    /// A batched input is fully processed — except past the point where
    /// its own connection died: those are a dead incarnation's bytes.
    #[test]
    fn batch_is_handled_whole_unless_its_connection_dies() {
        let heartbeat = Frame::Heartbeat {
            epoch: 0,
            sent: 0,
            recv: 0,
            idle: false,
        };
        let probe = one_cross_wire(1);
        let mut spec = DistSpec::new("", "", vec![String::new()]);
        let (mut coord, _) = test_coordinator(&spec, &probe);
        let batch = vec![heartbeat.clone(), data(0, 0), data(0, 1)];
        coord
            .step(Duration::ZERO, frames(1, batch.clone()))
            .unwrap();
        assert_eq!((coord.recv_from[1], coord.router.sent_to[0]), (2, 2));
        // A stale connection id drops the whole batch.
        let stale = Input::Frames {
            worker: 1,
            conn: 7,
            frames: received(&[data(0, 2)]),
        };
        coord.step(Duration::ZERO, stale).unwrap();
        assert_eq!(coord.recv_from[1], 2);

        spec.chaos = ChaosSpec {
            kills: vec![Kill {
                worker: 1,
                point: KillPoint::Heartbeats(1),
            }],
        };
        let (mut coord, _) = test_coordinator(&spec, &probe);
        coord.step(Duration::ZERO, frames(1, batch)).unwrap();
        assert!(
            matches!(coord.slots[1].life, Life::Down { .. }),
            "killed on its first heartbeat"
        );
        assert_eq!((coord.recv_from[1], coord.router.sent_to[0]), (0, 0));
    }

    /// An incarnation connects once. A same-epoch hello for a slot that is
    /// already up is dropped: the slot keeps its connection, and nothing —
    /// no plan, no replay — is written to the newcomer.
    #[test]
    fn a_second_hello_from_a_live_incarnation_is_ignored() {
        let spec = DistSpec::new("", "", vec![String::new()]);
        let probe = one_cross_wire(1);
        let (mut coord, _) = test_coordinator(&spec, &probe);
        coord
            .step(Duration::ZERO, frames(1, vec![data(0, 0), data(0, 1)]))
            .unwrap();
        assert_eq!(coord.router.outboxes[0].log().len(), 2);

        assert!(!coord.admits(0, 0));
        let theirs = Pipe::default();
        let hello = Input::Hello {
            worker: 0,
            epoch: 0,
            conn: 3,
            writer: theirs.clone(),
        };
        assert!(coord.step(Duration::ZERO, hello).unwrap().is_empty());
        assert_eq!(
            coord.slots[0].life,
            Life::Up { conn: 1 },
            "the live connection is kept"
        );
        assert_eq!(coord.router.stats.replayed_frames, 0);
        coord.flush();
        let got = theirs.take();
        assert!(got.is_empty(), "the newcomer was sent {} bytes", got.len());
    }

    /// Any local process can dial the coordinator, so a hello naming a
    /// worker index the run does not have is a stray to drop — not a
    /// protocol error that fails the run. Nothing is written to it, and no
    /// slot changes.
    #[test]
    fn an_out_of_range_hello_writes_nothing_and_changes_no_slot() {
        let spec = DistSpec::new("", "", vec![String::new()]);
        let probe = one_cross_wire(1);
        let (mut coord, _) = test_coordinator(&spec, &probe);
        let lives = |c: &Coord<'_, Pipe>| {
            c.slots
                .iter()
                .map(|s| (s.life, s.epoch))
                .collect::<Vec<_>>()
        };
        let before = lives(&coord);
        assert!(!coord.admits(2, 0));
        let stray = Pipe::default();
        let hello = Input::Hello {
            worker: 2,
            epoch: 0,
            conn: 9,
            writer: stray.clone(),
        };
        assert!(coord.step(Duration::ZERO, hello).unwrap().is_empty());
        assert!(stray.take().is_empty());
        assert_eq!(lives(&coord), before);
    }

    /// An incarnation sends each egress sequence number once: a repeat is
    /// a protocol violation, not a duplicate to filter.
    #[test]
    fn a_repeated_sequence_number_is_a_protocol_error() {
        let spec = DistSpec::new("", "", vec![String::new()]);
        let probe = one_cross_wire(1);
        let (mut coord, _) = test_coordinator(&spec, &probe);
        let batch = vec![data(0, 0), data(0, 0)];
        assert!(matches!(
            coord.step(Duration::ZERO, frames(1, batch)),
            Err(DistError::Protocol(_))
        ));
        assert_eq!(coord.router.stats.deduped_frames, 0);
    }

    /// Fail-stop on the worker side: a worker whose coordinator sends the
    /// plan and then hangs up returns an error, and never dials again.
    #[test]
    fn a_worker_that_loses_its_coordinator_exits_without_redialing() {
        let dir = std::env::temp_dir().join(format!(
            "blazes-dist-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let _dir_guard = TempDir(dir.clone());
        let sock = dir.join("coord.sock");
        let listener = UnixListener::bind(&sock).unwrap();
        let endpoint = sock.to_string_lossy().into_owned();

        let worker = std::thread::spawn(move || {
            let mut registry = Registry::new();
            registry.register("chain", |b, _| chain(b));
            worker_run(&registry, &endpoint, 0, 0)
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn: Conn = Box::new(stream);
        assert_eq!(read_hello(&mut conn).unwrap(), (0, 0));
        conn.write_all(&wire::encode(&Frame::Plan {
            topology: "chain".to_string(),
            params: String::new(),
            seed: 1,
            processes: 2,
            index: 0,
            workers: 1,
            trace: false,
            epoch: 0,
            heartbeat_ms: 25,
        }))
        .unwrap();
        drop(conn);

        listener.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !worker.is_finished() {
            assert!(
                listener.accept().is_err(),
                "the worker dialed a second connection"
            );
            assert!(Instant::now() < deadline, "the worker never gave up");
            std::thread::sleep(Duration::from_millis(5));
        }
        let result = worker.join().expect("the worker thread panicked");
        assert!(result.is_err(), "a lost coordinator must end the worker");
        assert!(
            listener.accept().is_err(),
            "the worker dialed a second connection"
        );
    }

    /// A worker stages a read's data frames and injects them as one
    /// batch, but never answers ahead of them: a `Probe` read behind three
    /// data frames counts all three and cannot report idle while its
    /// consumer has not processed them.
    #[test]
    fn a_probe_behind_data_in_one_read_counts_it_and_waits_for_it() {
        let gate = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(AtomicU64::new(0));
        let mut registry = Registry::new();
        let (g, s) = (Arc::clone(&gate), Arc::clone(&seen));
        registry.register("gated", move |b, _| {
            let (g, s) = (Arc::clone(&g), Arc::clone(&s));
            let src = b.add_instance(echo());
            let consumer = FnComponent::new("gated", move |_, _, _: &mut Context| {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                s.fetch_add(1, Ordering::SeqCst);
            });
            let dst = b.add_instance(Box::new(consumer));
            let ch = b.add_channel(ChannelConfig::instant());
            b.connect(src, PortId(0), dst, PortId(0), ch);
            Vec::new()
        });
        // Worker 1 of 2 owns the consumer; wire 0 enters it.
        let plan = Frame::Plan {
            topology: "gated".to_string(),
            params: String::new(),
            seed: 1,
            processes: 2,
            index: 1,
            workers: 1,
            trace: false,
            epoch: 0,
            heartbeat_ms: 25,
        };
        let (mut core, _egress) = WorkerCore::start(&registry, plan, 1, 0).unwrap();
        let ack = |nonce, recv, idle| Frame::ProbeAck {
            nonce,
            sent: 0,
            recv,
            idle,
        };
        let read = [
            data(0, 0),
            data(0, 1),
            data(0, 2),
            Frame::Probe { nonce: 7 },
            data(0, 3),
        ];
        let mut replies = Vec::new();
        for frame in read {
            if let Some(Control::Reply(reply)) = core.on_frame(frame, 0).unwrap() {
                replies.push(reply);
            }
        }
        assert_eq!(replies, [ack(7, 3, false)]);
        assert!(!core.idle(0), "the fourth frame is staged");
        core.inject_staged();
        assert!(!core.idle(0), "the consumer has processed nothing");

        gate.store(true, Ordering::Release);
        let deadline = Instant::now() + Duration::from_secs(30);
        while !core.idle(0) {
            assert!(Instant::now() < deadline, "the worker never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(seen.load(Ordering::SeqCst), 4);
        let Ok(Some(Control::Reply(reply))) = core.on_frame(Frame::Probe { nonce: 8 }, 0) else {
            panic!("a probe is answered");
        };
        assert_eq!(reply, ack(8, 4, true));
        assert!(core.finish().is_ok());
    }

    /// A sink's `SinkResult` frames, each checked to stay under the frame
    /// cap and to carry sink `sink`, reassembled. Returns the entries and
    /// the number of frames.
    fn reassemble(sink: u32, entries: Vec<(Time, Message)>) -> (Vec<(Time, Message)>, usize) {
        let mut reassembled = Vec::new();
        let mut frames = 0;
        for frame in sink_result_frames(sink, entries).expect("every entry fits a frame") {
            let len = wire::encode(&frame).len() - 9;
            assert!(len <= wire::MAX_FRAME, "a {len}-byte slice");
            let Frame::SinkResult { sink: s, entries } = frame else {
                panic!("not a sink slice: {frame:?}");
            };
            assert!(s == sink && !entries.is_empty());
            assert!(len <= SINK_SLICE_BYTES || entries.len() == 1, "{len} bytes");
            reassembled.extend(entries);
            frames += 1;
        }
        (reassembled, frames)
    }

    /// A sink travels as slices the receiver appends in order, and a
    /// wordcount-shaped sink (the 30 000-tweet benchmark run commits about
    /// 70 000 `(word, batch, count)` entries) stays far below the frame
    /// cap per slice where one frame would not at three times the size.
    #[test]
    fn sink_results_are_sliced_and_reassemble_in_order() {
        let entries: Vec<(Time, Message)> = (0..70_000i64)
            .map(|i| {
                let word = Value::Str(format!("a-rather-long-vocabulary-word-{i}"));
                let tuple = Tuple(vec![word, Value::Int(i / 250), Value::Int(i % 7)]);
                (i as Time, Message::Data(tuple))
            })
            .collect();
        let bytes: usize = entries
            .iter()
            .map(|(_, m)| 8 + wire::message_bytes(m).len())
            .sum();
        let (reassembled, frames) = reassemble(3, entries.clone());
        assert_eq!(reassembled, entries);
        // Every slice but the last is full, to within one entry.
        assert!(frames >= bytes.div_ceil(SINK_SLICE_BYTES));
        assert!(frames <= bytes.div_ceil(SINK_SLICE_BYTES - 100));
        assert_eq!(reassemble(0, Vec::new()).1, 0);
    }

    /// Slices are cut by size, not by entry count: 4 096 entries of 8 KiB
    /// strings are 32 MiB, twice the frame cap, and still travel — in
    /// frames the coordinator accepts.
    #[test]
    fn a_wide_sink_travels_in_frames_under_the_cap() {
        let entries: Vec<(Time, Message)> = (0..4096i64)
            .map(|i| (i as Time, Message::data([format!("{i:08}").repeat(1024)])))
            .collect();
        let (reassembled, frames) = reassemble(1, entries.clone());
        assert_eq!(reassembled, entries);
        assert!(frames >= 32, "{frames} frames");
        // One entry larger than a slice travels alone; one larger than a
        // frame is refused by name.
        let big = |len: usize| vec![(0, Message::data(["x".repeat(len)]))];
        assert_eq!(reassemble(2, big(2 * SINK_SLICE_BYTES)).1, 1);
        assert!(matches!(
            sink_result_frames(2, big(wire::MAX_FRAME)).err(),
            Some(DistError::Wire(wire::WireError::Oversized(len))) if len > wire::MAX_FRAME
        ));
    }

    /// The router's fault draws replicate the par wire schedule: same
    /// seed/wire → same retransmit/duplicate counts as a local par run of
    /// an identical single-wire topology.
    #[test]
    fn router_fault_draws_match_par_wire_schedule() {
        let seed = 77u64;
        let sends = 400i64;
        let cfg = ChannelConfig::lan().with_loss(0.2).with_duplicates(0.15);
        // Local par reference: one faulty wire, count faults.
        let mut pb = ParBuilder::new(seed).with_workers(1);
        let sink = CollectorSink::new();
        let src = pb.add_instance(echo());
        let dst = pb.add_instance(Box::new(sink.clone()));
        pb.connect_with(src, PortId(0), dst, PortId(0), cfg.clone());
        for i in 0..sends {
            pb.inject(0, src, PortId(0), Message::data([i]));
        }
        let stats = pb.build().run();

        // The router's draws over the same wire id 0, same seed, same
        // send count: the schedule must agree exactly.
        let mut faults = WireFaults::new(&cfg, seed, 0).expect("faulty wire");
        let (mut retransmits, mut duplicates) = (0u64, 0u64);
        for _ in 0..sends {
            let (lost, duplicated) = faults.draw();
            retransmits += u64::from(lost);
            duplicates += u64::from(duplicated);
        }
        assert_eq!(retransmits, stats.retransmits, "loss schedule identical");
        assert_eq!(duplicates, stats.duplicates, "dup schedule identical");
        assert_eq!(sink.len() as u64, sends as u64 + stats.duplicates);
    }
}
