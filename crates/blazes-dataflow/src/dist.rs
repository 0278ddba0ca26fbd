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
//! (through [`DistWorkerBuilder`], which translates global ids to local
//! [`crate::par::ParBuilder`] ids), while the parent assembles into a
//! [`ProbeBuilder`] that records pure structure.
//!
//! Coordination injection composes untouched: `blazes-autocoord`'s
//! rewrite pass runs *inside* the assembly function, below the
//! [`ExecutorBuilder`] surface, so the rewritten graph — gates and all —
//! is what gets numbered and partitioned, identically everywhere.
//!
//! # Routing and fault injection on the wire
//!
//! Workers connect only to the parent (a star). A wire whose producer and
//! consumer are owned by the same process stays entirely local — the par
//! runtime delivers it, fault RNG and all. A *cross* wire is split: the
//! producer is wired to an egress shim that forwards
//! `(wire, seq, message)` to the parent, the parent applies the wire's
//! fault schedule and routes the frame to the consumer's owner, and the
//! consumer's owner injects it through [`crate::par::RunningPar::inject`].
//!
//! Fault injection therefore moves to the actual byte boundary, but the
//! *schedule* is unchanged: the parent seeds one RNG per cross wire with
//! the exact formula and per-send draw order the par backend uses for
//! local wires. A wire's loss/duplication schedule is a function of its
//! global wire number and send ordinal only — identical whether the wire
//! happens to be local or cross, which is what makes digests reproducible
//! across `{1,2,4}` processes and against the single-process backends.
//! Two extra fault classes exist only at frame granularity (so they
//! perturb timing, never per-wire FIFO): probabilistic *reordering* of
//! frames on different wires, and counter-scheduled *partition windows*
//! that buffer traffic and release it in arrival order.
//!
//! The cost of moving a tuple between processes is paid per *chunk*, not
//! per tuple. A worker's egress pump blocks for one frame, then drains
//! whatever else is queued (up to [`recover::FLUSH_BYTES`]), logs every
//! frame and issues one socket write. The parent's reader threads hand
//! the main loop one event per socket read, carrying every frame decoded
//! from it. The router encodes a routed message once — the bytes hashed
//! for replay dedup are the bytes framed, logged and shipped — and logs
//! each post-fault frame into the destination's [`recover::Outbox`],
//! which coalesces them into chunk-sized writes. Everything that counts
//! frames (`sent_to`, `frames_routed`, kill points, delivery ordinals,
//! fault draws) counts at *log* time, so batching moves no schedule. The
//! rule that keeps it live is **flush before block**: the main loop takes
//! queued events without blocking and flushes every outbox before it
//! waits; a control frame (`Probe`, `Ack`, `Collect`, `Shutdown`) goes
//! out behind whatever is pending for its worker, never ahead; and an
//! outbox that reaches a chunk's worth flushes itself. Nothing waits in a
//! buffer while anyone waits on it.
//!
//! # Termination and collection
//!
//! A worker reports `Idle{sent, recv}` whenever its local runtime has
//! quiesced ([`crate::par::RunningPar::settled`]) and its egress queue
//! has drained. The parent declares stability when every worker's latest
//! report matches the parent's own per-worker frame counters and no
//! frames are held in the reorder/partition buffers — any frame still in
//! flight in either direction makes some counter pair disagree. A
//! `Probe`/`ProbeAck` confirmation round then re-validates before the
//! parent collects: `Collect` makes each worker finish its run (running
//! the end-of-run speculation rescue, if any) and stream back the
//! contents of every sink it owns — in `SinkResult` slices of a few
//! thousand entries the parent appends in order, so a sink's size is not
//! bounded by [`wire::MAX_FRAME`] — plus its run statistics.
//!
//! One documented divergence from the single-process backends: egress
//! traffic produced *by* the end-of-run rescue drain (a never-sealed
//! speculative session re-emitting blocking output after `Collect`) can
//! no longer cross the wire; such frames are dropped and counted in
//! [`DistStats::late_egress_frames`]. Coordinated topologies whose seals
//! all arrive — everything the differential suite runs — never hit this.
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
//!   into a forensic [`DistError::WorkerFailed`] verdict instead of the
//!   old global stall timeout. Heartbeats also double as idle
//!   keepalives, so a lost `Idle` frame self-heals on the next beat —
//!   which is what fixed the historical 1-core "run stalled" flake.
//! * **Recovery.** The coordinator logs the exact post-fault byte stream
//!   it ships to each worker ([`recover::ReplayLog`]) and, on death,
//!   respawns the worker (bounded exponential backoff, respawn budget)
//!   with a bumped *epoch*; the fresh incarnation re-runs the identical
//!   SPMD assembly and is rehydrated by replaying the log verbatim, in
//!   the same chunk-sized writes. The new connection's reader thread
//!   starts *before* the replay: a rehydrating worker emits while it is
//!   being fed, and a replay larger than the socket buffers deadlocks
//!   unless someone is already draining that egress. The outbox's write
//!   buffer is only a cache of the log's tail — a death, a failed flush
//!   and a (re)connect all discard it, and the replay re-ships it — so a
//!   kill between "logged" and "flushed" loses and doubles nothing.
//!   Output the dead incarnation had already delivered is suppressed on
//!   its way back: per-wire sequence numbers catch reconnect resends,
//!   and a content-multiset filter ([`recover::ReplayDedup`]) catches
//!   recomputed frames whose interleaving permuted. Workers dually keep
//!   an egress log trimmed by coordinator [`wire::Frame::Ack`]s, so
//!   replay is exactly-once at the tuple level in both directions.
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

pub mod recover;
pub mod wire;

use crate::backend::{ChannelId, ExecutorBuilder, PortId};
use crate::channel::{ChannelConfig, WireFaults};
use crate::component::{Component, Context};
use crate::message::Message;
use crate::par::{ParBuilder, ParTuning};
use crate::sim::{InstanceId, Time};
use crate::sinks::CollectorSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
pub use recover::{ChaosSpec, DistTuning, FailureCause, Kill, KillPoint, Transport};
use recover::{EgressLog, Outbox, ReplayDedup, SeqLedger, SeqVerdict, FLUSH_BYTES};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use wire::{Frame, FrameDecoder};

/// Environment variable carrying the parent's endpoint to a worker: a
/// Unix socket path, or `tcp:ADDR` for the TCP transport.
const ENV_PARENT: &str = "BLAZES_DIST_PARENT";
/// Environment variable carrying a worker's process index.
pub const ENV_INDEX: &str = "BLAZES_DIST_INDEX";
/// Environment variable carrying a worker's incarnation epoch (0 for the
/// original spawn; bumped on every respawn).
pub const ENV_EPOCH: &str = "BLAZES_DIST_EPOCH";

/// Wire numbers for the local producer→egress hops, far above any global
/// wire number. Egress hops use [`ChannelConfig::instant`] (no fault
/// RNG), so the offset only keeps diagnostics unambiguous.
const EGRESS_WIRE_BASE: u64 = 1 << 48;

/// Mixing constant for the *reorder* RNG stream of a cross wire —
/// deliberately different from the loss/duplication stream's constant so
/// enabling reordering never perturbs the at-least-once schedule.
const REORDER_MIX: u64 = 0xd1b5_4a32_d192_ed03;

/// Which process owns global instance `instance` in an
/// `processes`-process run.
#[must_use]
fn owner(instance: usize, processes: usize) -> usize {
    instance % processes
}

/// One cross-partition emission leaving a worker: `(wire, seq, message)`.
pub type EgressFrame = (u64, u64, Message);

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

    /// Registered topology names.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
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
    /// Enable time-warp speculation inside each process.
    pub speculation: bool,
    /// Per cross-wire probability that a frame is held and delivered
    /// after the next frame bound for the same process (frames of the
    /// *same* wire are never swapped — per-wire FIFO is load-bearing).
    pub reorder_prob: f64,
    /// Counter-scheduled partition: every `every` routed frames, buffer
    /// the next `len` frames and release them in arrival order.
    pub partition: Option<(u64, u64)>,
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
    /// speculation, no frame-level faults.
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
            speculation: false,
            reorder_prob: 0.0,
            partition: None,
            worker_command,
            tuning: DistTuning::default(),
            chaos: ChaosSpec::none(),
        }
    }
}

/// Worker argv for a libtest binary: re-run the current executable,
/// selecting exactly the (`#[ignore]`d) test named `entry_test`, whose
/// body calls [`worker_main`]. The test returns immediately when
/// `ENV_PARENT` is unset, so the entry is inert in normal test runs.
///
/// # Panics
/// If the current executable path cannot be determined.
#[must_use]
pub fn libtest_worker_command(entry_test: &str) -> Vec<String> {
    let exe = std::env::current_exe()
        .expect("current_exe for dist worker spawn")
        .to_string_lossy()
        .into_owned();
    vec![
        exe,
        entry_test.to_string(),
        "--exact".to_string(),
        "--include-ignored".to_string(),
    ]
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
    /// Frames delivered out of arrival order by the reorder fault.
    pub reordered_frames: u64,
    /// Partition windows opened by the counter schedule.
    pub partition_windows: u64,
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
    /// End-of-run rescue passes, summed over workers.
    pub rescue_passes: u64,
    /// Egress frames produced after `Collect` (rescue-drain output that
    /// could no longer cross the wire) — see the module docs.
    pub late_egress_frames: u64,
    /// Heartbeat frames the coordinator received.
    pub heartbeats: u64,
    /// Worker failures the coordinator detected (recovered or not).
    pub worker_failures: u64,
    /// Worker processes respawned after a failure.
    pub respawns: u64,
    /// Frames replayed from coordinator logs into (re)connected workers.
    pub replayed_frames: u64,
    /// Worker→coordinator frames suppressed as replay duplicates (by
    /// sequence or by content).
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
        reg.counter("dist.frames.reordered")
            .add(self.reordered_frames);
        reg.counter("dist.partition_windows")
            .add(self.partition_windows);
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
        reg.counter("dist.late_egress_frames")
            .add(self.late_egress_frames);
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
/// structure of an assembly — instance count and names, channel configs,
/// wires in global numbering, injection count. The parent runs the SPMD
/// assembly through it to learn the routing table; it is also handy for
/// asserting what a rewrite pass did to a graph without running it.
#[derive(Debug, Default)]
pub struct ProbeBuilder {
    names: Vec<String>,
    channels: Vec<ChannelConfig>,
    wires: Vec<ProbeWire>,
    injections: usize,
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
        self.names.len()
    }

    /// Component names in instance order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
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

    /// Number of external injections the assembly made.
    #[must_use]
    pub fn injections(&self) -> usize {
        self.injections
    }
}

impl ExecutorBuilder for ProbeBuilder {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        self.names.push(component.name().to_string());
        InstanceId(self.names.len() - 1)
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

    fn inject(&mut self, _at: Time, _to: InstanceId, _port: PortId, _msg: Message) {
        self.injections += 1;
    }
}

// ---------------------------------------------------------------------
// Worker-side builder
// ---------------------------------------------------------------------

/// The egress shim interposed on a cross wire's producer side: forwards
/// every delivery to the worker's socket pump as `(wire, seq, message)`.
///
/// Deliberately offers no snapshot: in time-warp mode the runtime then
/// *defers* speculative deliveries to the egress until their epoch
/// resolves, so only committed traffic ever crosses a process boundary —
/// speculation stays process-local by construction.
struct Egress {
    wire: u64,
    seq: u64,
    queued: Arc<AtomicU64>,
    tx: mpsc::Sender<EgressFrame>,
}

impl Component for Egress {
    fn on_message(&mut self, _port: usize, msg: Message, _ctx: &mut Context) {
        // Count before sending: the idle check compares this counter
        // against the pump's written counter, and over-counting is the
        // safe direction (a frame in the channel reads as "not drained").
        self.queued.fetch_add(1, Ordering::SeqCst);
        let seq = self.seq;
        self.seq += 1;
        let _ = self.tx.send((self.wire, seq, msg));
    }

    fn name(&self) -> &str {
        "dist-egress"
    }
}

/// The cross-partition wiring a [`DistWorkerBuilder`] accumulated.
#[derive(Debug)]
pub struct DistWiring {
    /// Cross wires terminating locally: global wire → (local instance of
    /// the consumer, its input port).
    pub ingress: BTreeMap<u64, (InstanceId, PortId)>,
    /// Global wire numbers of cross wires originating locally.
    pub cross_out: Vec<u64>,
    /// Total instances in the global numbering (local and remote).
    pub instances: usize,
}

/// An [`ExecutorBuilder`] over a [`ParBuilder`] that realizes one
/// process's partition of an SPMD assembly.
///
/// Every process runs the identical assembly through one of these; the
/// builder hands out *global* instance/channel ids (so the assembly sees
/// the same ids everywhere) while materializing only what process
/// `index` owns. Wires between two local instances are connected with
/// their global wire number ([`ParBuilder`]'s fault streams key on it);
/// wires leaving the partition get an egress shim; wires entering it
/// are recorded in the ingress table for [`RunningPar::inject`] delivery.
pub struct DistWorkerBuilder<'a> {
    inner: &'a mut ParBuilder,
    index: usize,
    processes: usize,
    /// Global instance id → local par id (`None` = owned elsewhere).
    local_of: Vec<Option<InstanceId>>,
    /// Global channel id → local par channel id.
    local_channel: Vec<ChannelId>,
    next_wire: u64,
    egress_channel: Option<ChannelId>,
    egress_queued: Arc<AtomicU64>,
    egress_tx: mpsc::Sender<EgressFrame>,
    ingress: BTreeMap<u64, (InstanceId, PortId)>,
    cross_out: Vec<u64>,
}

impl<'a> DistWorkerBuilder<'a> {
    /// Wrap `inner` as process `index` of `processes`. Returns the
    /// builder, the receiving end of its egress queue, and the shared
    /// egress-enqueue counter (compare against frames actually written to
    /// decide the queue has drained).
    ///
    /// # Panics
    /// If `processes` is zero or `index` is out of range.
    #[must_use]
    pub fn new(
        inner: &'a mut ParBuilder,
        index: usize,
        processes: usize,
    ) -> (Self, mpsc::Receiver<EgressFrame>, Arc<AtomicU64>) {
        assert!(processes >= 1, "at least one process");
        assert!(index < processes, "index within process count");
        let (tx, rx) = mpsc::channel();
        let queued = Arc::new(AtomicU64::new(0));
        (
            DistWorkerBuilder {
                inner,
                index,
                processes,
                local_of: Vec::new(),
                local_channel: Vec::new(),
                next_wire: 0,
                egress_channel: None,
                egress_queued: Arc::clone(&queued),
                egress_tx: tx,
                ingress: BTreeMap::new(),
                cross_out: Vec::new(),
            },
            rx,
            queued,
        )
    }

    /// Consume the builder, returning the accumulated cross wiring.
    #[must_use]
    pub fn finish(self) -> DistWiring {
        DistWiring {
            ingress: self.ingress,
            cross_out: self.cross_out,
            instances: self.local_of.len(),
        }
    }
}

impl ExecutorBuilder for DistWorkerBuilder<'_> {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        let global = self.local_of.len();
        let local = (owner(global, self.processes) == self.index)
            .then(|| self.inner.add_instance(component));
        self.local_of.push(local);
        InstanceId(global)
    }

    fn set_service_time(&mut self, id: InstanceId, service: Time) {
        if let Some(local) = self.local_of[id.0] {
            self.inner.set_service_time(local, service);
        }
    }

    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        let local = self.inner.add_channel(cfg);
        self.local_channel.push(local);
        ChannelId(self.local_channel.len() - 1)
    }

    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        let wire = self.next_wire;
        self.next_wire += 1;
        match (self.local_of[from.0], self.local_of[to.0]) {
            (Some(f), Some(t)) => {
                self.inner.connect_numbered(
                    f,
                    out_port,
                    t,
                    in_port,
                    self.local_channel[channel.0],
                    wire,
                );
            }
            (Some(f), None) => {
                let shim = self.inner.add_instance(Box::new(Egress {
                    wire,
                    seq: 0,
                    queued: Arc::clone(&self.egress_queued),
                    tx: self.egress_tx.clone(),
                }));
                let inner = &mut *self.inner;
                let ch = *self
                    .egress_channel
                    .get_or_insert_with(|| inner.add_channel(ChannelConfig::instant()));
                self.inner.connect_numbered(
                    f,
                    out_port,
                    shim,
                    PortId(0),
                    ch,
                    EGRESS_WIRE_BASE + wire,
                );
                self.cross_out.push(wire);
            }
            (None, Some(t)) => {
                self.ingress.insert(wire, (t, in_port));
            }
            (None, None) => {}
        }
    }

    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        if let Some(local) = self.local_of[to.0] {
            self.inner.inject(at, local, port, msg);
        }
    }
}

// ---------------------------------------------------------------------
// Parent: routing with wire faults
// ---------------------------------------------------------------------

/// Parent-side state of one cross wire.
struct WireRoute {
    /// Owner of the consumer — where frames of this wire go.
    dest: usize,
    /// Loss/duplication schedule — the one a local [`ParBuilder`] wire
    /// would draw.
    faults: Option<WireFaults>,
    /// Independent stream for the reorder fault.
    reorder_rng: Option<StdRng>,
}

/// The parent's serial router: applies per-wire faults and the
/// frame-level reorder/partition perturbations, then logs each frame into
/// the destination worker's [`Outbox`], which coalesces them into
/// chunk-sized socket writes. Serial on purpose — one thread owns every
/// draw, so fault schedules cannot race.
///
/// Sequence numbers on routed frames are the router's own *delivery
/// ordinals* (per wire, from 0), not the producer's egress numbers: a
/// respawned producer restarts its egress sequences and may permute its
/// re-emissions, but consumers must still see a contiguous per-wire
/// stream. Replay-suppressed frames consume neither an ordinal nor a
/// fault draw, so crash-free and crashed runs route byte-identically.
struct Router {
    routes: HashMap<u64, WireRoute>,
    /// Per worker: the log of everything ever routed toward it, in route
    /// order — the exact post-fault stream, re-shipped verbatim on
    /// (re)connect — and the write buffer in front of its socket. A
    /// failed socket write is flagged there; the coordinator turns the
    /// flag into a failure verdict (the frames themselves are safe in
    /// the log).
    outboxes: Vec<Outbox<Conn>>,
    /// Data frames logged toward each worker. Counts at log time, like
    /// everything that keys on it (stability, chaos kill points): a frame
    /// waiting in an outbox buffer is already "sent".
    sent_to: Vec<u64>,
    /// Delivery ordinal per wire.
    route_seq: HashMap<u64, u64>,
    /// Reorder hold slot per destination process.
    held: Vec<Option<(u64, Vec<u8>)>>,
    reorder_prob: f64,
    partition: Option<(u64, u64)>,
    /// Frames emitted outside partition windows (drives the schedule).
    emitted: u64,
    /// Frames still to buffer in the currently open window.
    window_left: u64,
    window_buf: Vec<(usize, Vec<u8>)>,
    stats: DistStats,
}

impl Router {
    fn new(
        routes: HashMap<u64, WireRoute>,
        processes: usize,
        reorder_prob: f64,
        partition: Option<(u64, u64)>,
    ) -> Self {
        Router {
            routes,
            outboxes: (0..processes).map(|_| Outbox::new()).collect(),
            sent_to: vec![0; processes],
            route_seq: HashMap::new(),
            held: (0..processes).map(|_| None).collect(),
            reorder_prob,
            partition,
            emitted: 0,
            window_left: 0,
            window_buf: Vec::new(),
            stats: DistStats {
                processes,
                ..DistStats::default()
            },
        }
    }

    /// Route one data message arriving from a worker, given as its
    /// canonical encoding ([`wire::message_bytes`]) — the bytes the
    /// caller hashed for dedup are the bytes that get framed and logged.
    fn route(&mut self, wire: u64, message: &[u8]) -> Result<(), DistError> {
        let route = self
            .routes
            .get_mut(&wire)
            .ok_or_else(|| DistError::Protocol(format!("data frame for unknown wire {wire}")))?;
        let dest = route.dest;
        let seq = {
            let s = self.route_seq.entry(wire).or_insert(0);
            let seq = *s;
            *s += 1;
            seq
        };
        let (retransmitted, duplicate) = route
            .faults
            .as_mut()
            .map_or((false, false), WireFaults::draw);
        if retransmitted {
            self.stats.wire_retransmits += 1;
        }
        let reorder = self.reorder_prob > 0.0
            && route
                .reorder_rng
                .as_mut()
                .is_some_and(|r| r.random::<f64>() < self.reorder_prob);
        let bytes = wire::data_frame(wire, seq, message);
        if duplicate {
            self.stats.wire_duplicates += 1;
            // Only the first copy may be held: a held duplicate would sit
            // *behind* its twin and re-swap back on flush.
            self.deliver(dest, wire, bytes.clone(), reorder);
            self.deliver(dest, wire, bytes, false);
        } else {
            self.deliver(dest, wire, bytes, reorder);
        }
        Ok(())
    }

    /// Reorder layer: swap a held frame with the next frame for the same
    /// destination, unless both are on the same wire (per-wire FIFO).
    fn deliver(&mut self, dest: usize, wire_id: u64, bytes: Vec<u8>, hold: bool) {
        if let Some((held_wire, held_bytes)) = self.held[dest].take() {
            if held_wire == wire_id {
                // Same wire follows: release in order, no swap.
                self.emit(dest, held_bytes);
                self.emit(dest, bytes);
            } else {
                self.stats.reordered_frames += 1;
                self.emit(dest, bytes);
                self.emit(dest, held_bytes);
            }
        } else if hold {
            self.held[dest] = Some((wire_id, bytes));
        } else {
            self.emit(dest, bytes);
        }
    }

    /// Partition layer, then the log.
    fn emit(&mut self, dest: usize, bytes: Vec<u8>) {
        if self.window_left > 0 {
            self.window_buf.push((dest, bytes));
            self.window_left -= 1;
            if self.window_left == 0 {
                // Heal: release the buffered window in arrival order.
                for (d, b) in std::mem::take(&mut self.window_buf) {
                    self.write(d, b);
                }
            }
            return;
        }
        self.write(dest, bytes);
        if let Some((every, len)) = self.partition {
            self.emitted += 1;
            if every > 0 && len > 0 && self.emitted.is_multiple_of(every) {
                self.window_left = len;
                self.stats.partition_windows += 1;
            }
        }
    }

    /// Log one post-fault frame for `dest` and queue it for the socket;
    /// the bytes leave with the next [`Self::flush_sockets`] (or sooner,
    /// once a chunk's worth is pending). A failed (or absent) socket never
    /// loses the frame: it is in the log, and the (re)connect path
    /// replays the log tail. The failure is flagged for the supervisor
    /// instead of erroring, because a dead worker mid-run is recoverable.
    fn write(&mut self, dest: usize, bytes: Vec<u8>) {
        self.sent_to[dest] += 1;
        self.stats.frames_routed += 1;
        blazes_obs::record(
            blazes_obs::EventKind::FrameSend,
            dest as u64,
            self.sent_to[dest],
        );
        self.outboxes[dest].push(bytes);
    }

    /// Hand every worker's pending bytes to its socket. The coordinator
    /// calls this before it blocks, so nothing waits in a buffer while
    /// anyone waits on it.
    fn flush_sockets(&mut self) {
        for outbox in &mut self.outboxes {
            outbox.flush();
        }
    }

    /// Release everything the fault layers are sitting on (traffic has
    /// paused; holding further would stall termination), all the way to
    /// the sockets.
    fn flush(&mut self) {
        for dest in 0..self.held.len() {
            if let Some((_, bytes)) = self.held[dest].take() {
                self.emit(dest, bytes);
            }
        }
        if !self.window_buf.is_empty() {
            self.window_left = 0;
            for (d, b) in std::mem::take(&mut self.window_buf) {
                self.write(d, b);
            }
        }
        self.flush_sockets();
    }

    /// Nothing buffered in any fault layer?
    fn drained(&self) -> bool {
        self.window_buf.is_empty() && self.held.iter().all(Option::is_none)
    }

    /// Send a control frame to one worker (bypasses the fault layers and
    /// the replay log — faults and recovery model the data plane, not
    /// the coordinator's own protocol). It leaves at once, behind any
    /// data still pending for that worker, so a `Probe` or `Collect`
    /// never overtakes the frames it vouches for. A down worker is
    /// skipped; a failed write is flagged for the supervisor.
    fn control(&mut self, dest: usize, frame: &Frame) {
        self.outboxes[dest].send_unlogged(&wire::encode(frame));
    }
}

/// Removes the socket directory on drop (best effort).
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

/// The coordinator's listening socket, over either transport.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Unix(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
        }
    }
}

/// One coordinator↔worker byte stream, over either transport.
enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(t),
            Conn::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Sockets accepted from a non-blocking listener may inherit the
    /// flag on some platforms; force blocking mode explicitly.
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_nonblocking(nb),
            Conn::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Dial a coordinator endpoint as formatted for `ENV_PARENT`: a Unix
/// socket path, or `tcp:ADDR`.
fn connect_parent(endpoint: &str) -> std::io::Result<Conn> {
    if let Some(addr) = endpoint.strip_prefix("tcp:") {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Conn::Tcp(s))
    } else {
        Ok(Conn::Unix(UnixStream::connect(endpoint)?))
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Coordinator-side state of one worker process. Kills the child on drop
/// so no code path can leak a worker.
struct WorkerSlot {
    child: Option<std::process::Child>,
    /// Incarnation number: 0 originally, bumped on every respawn.
    epoch: u32,
    /// Connection id of the live socket (0 = none) — the filter that
    /// keeps a dead incarnation's buffered frames from being attributed
    /// to its successor.
    conn: u64,
    /// Hello'd, planned and connected?
    up: bool,
    /// Spawned and awaiting its hello.
    awaiting_hello: bool,
    spawned_at: Instant,
    /// Last frame of any kind on the live connection (liveness clock).
    last_heard: Instant,
    /// Heartbeats received across all incarnations (chaos triggers key
    /// on this).
    heartbeats: u64,
    /// Respawns consumed against the budget.
    respawns: u32,
    /// When the scheduled respawn may fire (exponential backoff).
    backoff_until: Option<Instant>,
    /// Latest idle report of the live incarnation.
    idle: Option<(u64, u64)>,
    /// Name of the last frame received (stall forensics).
    last_frame: &'static str,
}

impl WorkerSlot {
    fn new() -> Self {
        WorkerSlot {
            child: None,
            epoch: 0,
            conn: 0,
            up: false,
            awaiting_hello: false,
            spawned_at: Instant::now(),
            last_heard: Instant::now(),
            heartbeats: 0,
            respawns: 0,
            backoff_until: None,
            idle: None,
            last_frame: "<none>",
        }
    }
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            if child.try_wait().ok().flatten().is_none() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Events fed to the coordinator's main loop by the accept thread and
/// the per-connection reader threads. Every event is tagged with the
/// connection id it arose on; the main loop drops events whose id does
/// not match the worker's live connection. A reader hands over every
/// frame it decoded from one socket read as one event, so the channel and
/// the main loop's wake-ups are paid per chunk, not per tuple.
enum Event {
    /// A fresh connection completed its `Hello` handshake.
    Hello {
        index: usize,
        epoch: u32,
        resume_recv: u64,
        conn_id: u64,
        conn: Conn,
        /// Bytes the hello reader slurped past the handshake frame.
        leftover: Vec<u8>,
    },
    Frames(usize, u64, Vec<Frame>),
    Decode(usize, u64, wire::WireError),
    Eof(usize, u64),
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// How long the coordinator tolerates zero protocol *progress* (fresh
/// data, idle reports, probe acks) before declaring the run stalled.
/// Heartbeats deliberately do not feed this clock — they answer "is the
/// worker alive?", not "is the run advancing?" — so a livelock among
/// healthy workers still trips it, now with a per-worker verdict.
const STALL_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a (re)spawned worker may take to complete its hello.
const HELLO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the coordinator tolerates silence from a worker before
/// declaring it dead ([`FailureCause::HeartbeatTimeout`]). Generous: on a
/// loaded 1-core box heartbeat threads can starve for whole seconds, and
/// crash detection is near-instant anyway via reader EOF + child reaping.
const WORKER_DEADLINE: Duration = Duration::from_secs(30);

/// Minimum interval between supervision liveness sweeps (child reaping,
/// deadlines, pending respawns). Chaos triggers are checked every loop
/// iteration regardless.
const SUPERVISE_EVERY: Duration = Duration::from_millis(5);

/// Sets the shared stop flag on drop, so the accept thread winds down on
/// every exit path from [`run_dist`], including errors.
struct StopFlag(Arc<AtomicBool>);

impl Drop for StopFlag {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Accept-side thread: poll the listener and, for each connection, read
/// its `Hello` on a helper thread (so one wedged dialer cannot block
/// later connections) before handing it to the main loop.
fn accept_loop(
    listener: &Listener,
    stop: &AtomicBool,
    conn_seq: &AtomicU64,
    tx: &mpsc::Sender<Event>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                let conn_id = conn_seq.fetch_add(1, Ordering::SeqCst) + 1;
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut conn = conn;
                    if conn.set_nonblocking(false).is_err()
                        || conn.set_read_timeout(Some(HELLO_TIMEOUT)).is_err()
                    {
                        return;
                    }
                    if let Ok((index, epoch, resume_recv, leftover)) = read_hello(&mut conn) {
                        let _ = conn.set_read_timeout(None);
                        let _ = tx.send(Event::Hello {
                            index: index as usize,
                            epoch,
                            resume_recv,
                            conn_id,
                            conn,
                            leftover,
                        });
                    }
                });
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The coordinator: owns the router, the per-worker slots, and the
/// ingest-side dedup state, and drives supervision + recovery.
struct Coordinator<'a> {
    spec: &'a DistSpec,
    processes: usize,
    endpoint: String,
    trace: bool,
    router: Router,
    slots: Vec<WorkerSlot>,
    /// Cross-process wires originating at each worker — the wires whose
    /// egress that worker produces, and whose ingest filters must reset
    /// when it respawns.
    origin_wires: Vec<Vec<u64>>,
    /// Ingest dedup, layer 1: per-wire producer egress sequencing.
    /// Catches byte-identical reconnect resends.
    seq: SeqLedger,
    /// Ingest dedup, layer 2: content multisets armed at respawn.
    /// Catches recomputed frames whose emission order permuted.
    dedup: ReplayDedup,
    /// Content hashes admitted per wire, in admission order — the data
    /// that arms `dedup` when the wire's producer respawns.
    routed_hashes: HashMap<u64, Vec<u64>>,
    /// Seq-fresh frames received per worker: the coordinator-side mirror
    /// of each worker's `sent` counter.
    recv_from: Vec<u64>,
    tx: mpsc::Sender<Event>,
    readers: Vec<std::thread::JoinHandle<()>>,
    chaos_fired: Vec<bool>,
    probe_nonce: u64,
    acks: Vec<Option<bool>>,
    awaiting_probe: bool,
    /// Protocol-progress clock: fresh data, idle reports, probe acks and
    /// hellos feed it. Heartbeats deliberately do not — they answer "is
    /// the worker alive?", not "is the run advancing?".
    last_progress: Instant,
    last_sweep: Instant,
    phase_start: Instant,
}

impl<'a> Coordinator<'a> {
    fn new(
        spec: &'a DistSpec,
        endpoint: String,
        router: Router,
        origin_wires: Vec<Vec<u64>>,
        tx: mpsc::Sender<Event>,
    ) -> Self {
        let processes = spec.processes;
        Coordinator {
            spec,
            processes,
            endpoint,
            trace: blazes_obs::enabled(),
            router,
            slots: (0..processes).map(|_| WorkerSlot::new()).collect(),
            origin_wires,
            seq: SeqLedger::new(),
            dedup: ReplayDedup::new(),
            routed_hashes: HashMap::new(),
            recv_from: vec![0; processes],
            tx,
            readers: Vec::new(),
            chaos_fired: vec![false; spec.chaos.kills.len()],
            probe_nonce: 0,
            acks: vec![None; processes],
            awaiting_probe: false,
            last_progress: Instant::now(),
            last_sweep: Instant::now(),
            phase_start: Instant::now(),
        }
    }

    /// Spawn (or respawn) worker `i` at its slot's current epoch.
    fn spawn_worker(&mut self, i: usize) -> Result<(), DistError> {
        let epoch = self.slots[i].epoch;
        let child = std::process::Command::new(&self.spec.worker_command[0])
            .args(&self.spec.worker_command[1..])
            .env(ENV_PARENT, &self.endpoint)
            .env(ENV_INDEX, i.to_string())
            .env(ENV_EPOCH, epoch.to_string())
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| DistError::WorkerFailed {
                worker: i,
                cause: FailureCause::SpawnFailed(e.to_string()),
            })?;
        let slot = &mut self.slots[i];
        slot.child = Some(child);
        slot.awaiting_hello = true;
        slot.spawned_at = Instant::now();
        slot.backoff_until = None;
        if epoch > 0 {
            self.router.stats.respawns += 1;
            blazes_obs::record(blazes_obs::EventKind::Respawn, i as u64, u64::from(epoch));
        }
        Ok(())
    }

    /// Fire any chaos kills whose trigger condition now holds. SIGKILL,
    /// so the victim gets no chance to flush or clean up. The death is
    /// declared via [`Self::worker_down`] in the same call: if the kill
    /// only signalled and left discovery to the liveness sweep, the
    /// stability protocol could converge on the victim's stale idle
    /// report and phase 2 could begin while it dies — and phase-2
    /// deaths are fatal by design.
    fn fire_chaos(&mut self) -> Result<(), DistError> {
        for k in 0..self.spec.chaos.kills.len() {
            if self.chaos_fired[k] {
                continue;
            }
            let kill = self.spec.chaos.kills[k];
            if kill.worker >= self.processes {
                self.chaos_fired[k] = true;
                continue;
            }
            let due = match kill.point {
                KillPoint::RoutedFrames(n) => self.router.sent_to[kill.worker] >= n,
                KillPoint::Heartbeats(n) => self.slots[kill.worker].heartbeats >= n,
                KillPoint::AfterMillis(ms) => {
                    self.phase_start.elapsed() >= Duration::from_millis(ms)
                }
            };
            if !due {
                continue;
            }
            self.chaos_fired[k] = true;
            self.worker_down(kill.worker, FailureCause::Exited(None))?;
        }
        Ok(())
    }

    /// One supervision pass: chaos triggers every call; liveness sweeps
    /// (child reaping, hello/heartbeat deadlines, pending respawns)
    /// throttled to [`SUPERVISE_EVERY`].
    fn supervise(&mut self) -> Result<(), DistError> {
        self.fire_chaos()?;
        if self.last_sweep.elapsed() < SUPERVISE_EVERY {
            return Ok(());
        }
        self.last_sweep = Instant::now();
        self.sweep_write_failures()?;
        for i in 0..self.processes {
            // Reap exits first — the cheapest and most decisive signal.
            let exited = self.slots[i]
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                self.worker_down(i, FailureCause::Exited(status.code()))?;
                continue;
            }
            if self.slots[i].awaiting_hello && self.slots[i].spawned_at.elapsed() > HELLO_TIMEOUT {
                self.worker_down(i, FailureCause::HelloTimeout)?;
                continue;
            }
            if self.slots[i].up && self.slots[i].last_heard.elapsed() > WORKER_DEADLINE {
                let ms = self.slots[i].last_heard.elapsed().as_millis() as u64;
                self.worker_down(i, FailureCause::HeartbeatTimeout(ms))?;
                continue;
            }
            if let Some(due) = self.slots[i].backoff_until {
                if Instant::now() >= due {
                    self.spawn_worker(i)?;
                }
            }
        }
        Ok(())
    }

    /// True when every worker incarnation is live: no pending respawn,
    /// no handshake in flight. Phase 1 may only end in this state.
    fn all_up(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.up && !s.awaiting_hello && s.backoff_until.is_none())
    }

    /// Convert flagged socket-write failures into failure verdicts.
    fn sweep_write_failures(&mut self) -> Result<(), DistError> {
        for i in 0..self.processes {
            if self.router.outboxes[i].take_failed() {
                self.worker_down(i, FailureCause::Eof)?;
            }
        }
        Ok(())
    }

    /// Declare worker `i` dead with `cause`: reap it, quarantine its
    /// connection, and either schedule a respawn or convert the cause
    /// into the run's failure verdict.
    fn worker_down(&mut self, i: usize, cause: FailureCause) -> Result<(), DistError> {
        {
            let slot = &mut self.slots[i];
            if slot.child.is_none() && !slot.up && !slot.awaiting_hello {
                return Ok(()); // already down, respawn scheduled
            }
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.up = false;
            slot.awaiting_hello = false;
            slot.conn = 0;
            slot.idle = None;
        }
        self.router.outboxes[i].disconnect();
        self.awaiting_probe = false;
        self.last_progress = Instant::now();
        self.router.stats.worker_failures += 1;
        let recoverable = !matches!(cause, FailureCause::Reported(_) | FailureCause::Corrupt(_));
        if !recoverable {
            return Err(DistError::WorkerFailed { worker: i, cause });
        }
        let budget = self.spec.tuning.respawn_budget;
        let slot = &mut self.slots[i];
        if slot.respawns >= budget {
            return Err(DistError::WorkerFailed {
                worker: i,
                cause: FailureCause::BudgetExhausted {
                    respawns: slot.respawns,
                    last: Box::new(cause),
                },
            });
        }
        slot.backoff_until = Some(Instant::now() + recover::backoff_for(slot.respawns));
        slot.respawns += 1;
        slot.epoch += 1;
        Ok(())
    }

    /// Admit a completed hello: start a conn-tagged reader, ship the plan
    /// (fresh incarnations only), replay the log tail, and re-arm the
    /// ingest filters.
    ///
    /// The reader starts *before* the replay. A rehydrating worker emits
    /// while it is still being fed; with nobody draining its socket its
    /// egress pump would block holding the writer mutex, its control loop
    /// would block on that mutex at the next heartbeat and stop reading,
    /// and the replay write below would never return. The reader's
    /// events simply queue behind this hello on the same channel.
    fn on_hello(
        &mut self,
        index: usize,
        epoch: u32,
        resume_recv: u64,
        conn_id: u64,
        conn: Conn,
        leftover: Vec<u8>,
    ) -> Result<(), DistError> {
        if index >= self.processes {
            return Err(DistError::Protocol(format!("bad hello index {index}")));
        }
        let (slot_epoch, awaiting, up) = {
            let s = &self.slots[index];
            (s.epoch, s.awaiting_hello, s.up)
        };
        if epoch != slot_epoch || (!awaiting && !up) {
            // A stale incarnation (or an unsolicited dialer): drop it.
            return Ok(());
        }
        let reconnect = up;
        let Ok(mut writer) = conn.try_clone() else {
            return Ok(());
        };
        let tx = self.tx.clone();
        self.readers.push(std::thread::spawn(move || {
            reader_loop(index, conn_id, conn, leftover, &tx);
        }));
        // The incarnation may die during its own handshake (a write below
        // fails); the supervisor then reaps the corpse and schedules the
        // next try, and the reader above ends on the dead socket's EOF,
        // its events ignored: the slot never adopted this connection id.
        if !reconnect
            && writer
                .write_all(&wire::encode(&Frame::Plan {
                    topology: self.spec.topology.clone(),
                    params: self.spec.params.clone(),
                    seed: self.spec.seed,
                    processes: self.processes as u32,
                    index: index as u32,
                    workers: self.spec.workers_per_process as u32,
                    speculation: self.spec.speculation,
                    trace: self.trace,
                    epoch,
                    heartbeat_ms: u32::try_from(self.spec.tuning.heartbeat_every.as_millis())
                        .unwrap_or(u32::MAX),
                }))
                .is_err()
        {
            return Ok(());
        }
        let Ok(replayed) = self.router.outboxes[index].connect(writer, resume_recv) else {
            return Ok(());
        };
        if !reconnect {
            // A fresh incarnation restarts its egress from zero and will
            // re-emit everything it computes. Reset the sequence ledger
            // for its wires and arm the content filter with what those
            // wires already delivered, so re-emissions are swallowed.
            self.recv_from[index] = 0;
            for &w in &self.origin_wires[index] {
                self.dedup
                    .arm(w, self.routed_hashes.get(&w).map_or(&[][..], Vec::as_slice));
            }
            self.seq.reset_wires(&self.origin_wires[index]);
        }
        if replayed > 0 {
            self.router.stats.replayed_frames += replayed;
            blazes_obs::record(blazes_obs::EventKind::Replay, index as u64, replayed);
        }
        let slot = &mut self.slots[index];
        slot.up = true;
        slot.awaiting_hello = false;
        slot.conn = conn_id;
        slot.last_heard = Instant::now();
        slot.idle = None;
        self.last_progress = Instant::now();
        Ok(())
    }

    /// Handle one phase-1 event. Returns `Ok(true)` once the stability
    /// protocol confirms global quiescence.
    fn handle_event(&mut self, event: Event) -> Result<bool, DistError> {
        match event {
            Event::Hello {
                index,
                epoch,
                resume_recv,
                conn_id,
                conn,
                leftover,
            } => {
                self.on_hello(index, epoch, resume_recv, conn_id, conn, leftover)?;
                Ok(false)
            }
            Event::Frames(i, conn_id, frames) => {
                // Every frame of the batch is handled, also past the one
                // that confirms stability: nothing a reader decoded is
                // left behind when phase 1 ends.
                let now = Instant::now();
                let mut stable = false;
                for frame in frames {
                    // Checked per frame, not per batch: a chaos kill due
                    // mid-batch (kill points count at log time) makes the
                    // rest of the batch a dead incarnation's bytes.
                    if self.slots[i].conn != conn_id {
                        break;
                    }
                    self.slots[i].last_frame = frame_name(&frame);
                    self.slots[i].last_heard = now;
                    stable |= self.on_frame(i, frame)?;
                    self.fire_chaos()?;
                }
                Ok(stable)
            }
            Event::Decode(i, conn_id, e) => {
                if self.slots[i].conn == conn_id {
                    self.worker_down(i, FailureCause::Corrupt(e.to_string()))?;
                }
                Ok(false)
            }
            Event::Eof(i, conn_id) => {
                if self.slots[i].conn == conn_id {
                    self.worker_down(i, FailureCause::Eof)?;
                }
                Ok(false)
            }
        }
    }

    /// Handle one phase-1 frame from live worker `i`.
    fn on_frame(&mut self, i: usize, frame: Frame) -> Result<bool, DistError> {
        match frame {
            Frame::Data { wire, seq, msg } => {
                blazes_obs::record(blazes_obs::EventKind::FrameRecv, wire, seq);
                match self.seq.accept(wire, seq) {
                    SeqVerdict::Duplicate => {
                        self.router.stats.deduped_frames += 1;
                    }
                    SeqVerdict::Gap { expected } => {
                        return Err(DistError::Protocol(format!(
                            "wire {wire} skipped from seq {expected} to {seq} at the coordinator"
                        )));
                    }
                    SeqVerdict::Fresh => {
                        self.recv_from[i] += 1;
                        self.slots[i].idle = None;
                        self.awaiting_probe = false;
                        self.last_progress = Instant::now();
                        // Encoded once: these bytes are hashed here, then
                        // framed and logged by the router as they are.
                        let message = wire::message_bytes(&msg);
                        let hash = recover::fnv1a(&message);
                        if self.dedup.admit(wire, hash) {
                            self.routed_hashes.entry(wire).or_default().push(hash);
                            self.router.route(wire, &message)?;
                        } else {
                            self.router.stats.deduped_frames += 1;
                        }
                    }
                }
                Ok(false)
            }
            Frame::Idle { sent, recv } => self.on_idle(i, sent, recv),
            Frame::Heartbeat {
                epoch,
                sent,
                recv,
                idle,
            } => {
                if epoch != self.slots[i].epoch {
                    return Ok(false);
                }
                self.slots[i].heartbeats += 1;
                self.router.stats.heartbeats += 1;
                let acks = self.acks_for(i);
                if !acks.is_empty() {
                    self.router.control(i, &Frame::Ack { acks });
                }
                if idle {
                    // Idle keepalive: a re-announcement of quiescence,
                    // healing a lost or raced `Idle` frame.
                    return self.on_idle(i, sent, recv);
                }
                self.slots[i].idle = None;
                Ok(false)
            }
            Frame::ProbeAck {
                nonce,
                sent,
                recv,
                idle,
            } => {
                // Deliberately not a `last_progress` refresh: failed probe
                // rounds repeat on every idle keepalive, and their acks
                // must not keep a livelocked run alive.
                if self.awaiting_probe && nonce == self.probe_nonce {
                    self.acks[i] =
                        Some(idle && sent == self.recv_from[i] && recv == self.router.sent_to[i]);
                    if self.acks.iter().all(|a| *a == Some(true)) {
                        return Ok(true); // confirmed stable
                    }
                    if self.acks.iter().all(Option::is_some) {
                        self.awaiting_probe = false; // retry on the next idle
                    }
                }
                Ok(false)
            }
            Frame::Error { message } => {
                self.worker_down(i, FailureCause::Reported(message))?;
                Ok(false)
            }
            _ => Ok(false),
        }
    }

    /// Traffic paused at worker `i`: release anything the fault layers
    /// hold, then see whether the whole fleet has gone quiet.
    fn on_idle(&mut self, i: usize, sent: u64, recv: u64) -> Result<bool, DistError> {
        self.router.flush();
        // Only a *changed* idle report counts as progress: idle keepalive
        // heartbeats re-announce the same counters every interval, and
        // letting them refresh the stall clock would mask a stability
        // livelock forever.
        if self.slots[i].idle != Some((sent, recv)) {
            self.last_progress = Instant::now();
        }
        self.slots[i].idle = Some((sent, recv));
        let stable = self.slots.iter().all(|s| s.up)
            && self.router.drained()
            && (0..self.processes)
                .all(|w| self.slots[w].idle == Some((self.recv_from[w], self.router.sent_to[w])));
        if stable && !self.awaiting_probe {
            self.probe_nonce += 1;
            self.acks = vec![None; self.processes];
            self.awaiting_probe = true;
            self.router.stats.probe_rounds += 1;
            for w in 0..self.processes {
                self.router.control(
                    w,
                    &Frame::Probe {
                        nonce: self.probe_nonce,
                    },
                );
            }
        }
        Ok(false)
    }

    /// Cumulative ack vector for worker `i`'s origin wires: the highest
    /// egress sequence number the coordinator has accepted per wire.
    fn acks_for(&self, i: usize) -> Vec<(u64, u64)> {
        let mut acks: Vec<(u64, u64)> = self.origin_wires[i]
            .iter()
            .filter_map(|&w| self.seq.high(w).map(|h| (w, h)))
            .collect();
        acks.sort_unstable();
        acks
    }

    /// One-line diagnosis of a stalled run: dead/silent workers are a
    /// liveness bug; a fleet of heartbeating workers that never converges
    /// is a scheduling stall or protocol livelock.
    fn stall_verdict(&self) -> String {
        let silent: Vec<usize> = (0..self.processes)
            .filter(|&i| {
                !self.slots[i].up
                    || self.slots[i].last_heard.elapsed() > self.spec.tuning.heartbeat_every * 4
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
    fn dump_stall_forensics(&self) {
        eprintln!(
            "dist coordinator stalled after {}s without protocol progress; \
             awaiting_probe={} router_drained={}",
            STALL_TIMEOUT.as_secs(),
            self.awaiting_probe,
            self.router.drained()
        );
        for i in 0..self.processes {
            let s = &self.slots[i];
            let idle = s
                .idle
                .map_or("<none>".to_string(), |(a, b)| format!("sent={a} recv={b}"));
            let ack = match self.acks.get(i).copied().flatten() {
                None => "<pending>",
                Some(true) => "stable",
                Some(false) => "unstable",
            };
            eprintln!(
                "  worker {i}: epoch={} up={} respawns={} heartbeats={} heard={}ms-ago \
                 routed_to={} recv_from={} last_frame={} idle_report={idle} probe_ack={ack}",
                s.epoch,
                s.up,
                s.respawns,
                s.heartbeats,
                s.last_heard.elapsed().as_millis(),
                self.router.sent_to[i],
                self.recv_from[i],
                s.last_frame
            );
        }
    }
}

/// Execute `spec` across real worker processes and collect the sinks.
///
/// The parent probes the assembly for structure, binds a listening
/// socket (Unix by default, loopback TCP via
/// [`DistTuning::with_transport`]), spawns `spec.processes` workers with
/// `ENV_PARENT`/[`ENV_INDEX`]/[`ENV_EPOCH`] set, ships each its plan,
/// routes every cross-partition frame (applying the wire fault
/// schedule), and — once the stability protocol holds — collects sink
/// contents and statistics. Workers that die during routing are
/// respawned and rehydrated by deterministic replay (see the
/// module-level *Fault tolerance* notes); workers that die during
/// collection fail the run.
///
/// # Errors
/// Any I/O, decode, protocol or worker failure; see [`DistError`].
///
/// # Panics
/// If `spec.processes` or `spec.workers_per_process` is zero, or the
/// worker command is empty.
pub fn run_dist(spec: &DistSpec, registry: &Registry) -> Result<DistRun, DistError> {
    assert!(spec.processes >= 1, "at least one worker process");
    assert!(spec.workers_per_process >= 1, "at least one worker thread");
    assert!(!spec.worker_command.is_empty(), "empty worker command");
    let processes = spec.processes;

    // Learn the structure by running the SPMD assembly against a probe.
    let mut probe = ProbeBuilder::new();
    let sinks = registry.assemble(&spec.topology, &spec.params, &mut probe)?;

    let mut routes = HashMap::new();
    let mut origin_wires: Vec<Vec<u64>> = vec![Vec::new(); processes];
    for (wire_id, w) in probe.wires().iter().enumerate() {
        if owner(w.from, processes) == owner(w.to, processes) {
            continue;
        }
        let cfg = &probe.channels()[w.channel];
        let wire_id = wire_id as u64;
        origin_wires[owner(w.from, processes)].push(wire_id);
        routes.insert(
            wire_id,
            WireRoute {
                dest: owner(w.to, processes),
                faults: WireFaults::new(cfg, spec.seed, wire_id),
                reorder_rng: (spec.reorder_prob > 0.0).then(|| {
                    StdRng::seed_from_u64(spec.seed ^ (wire_id + 1).wrapping_mul(REORDER_MIX))
                }),
            },
        );
    }

    // Bind the endpoint. Unix sockets live in a private temp dir that is
    // cleaned up whatever happens; TCP binds an ephemeral loopback port.
    let mut _dir_guard = None;
    let (listener, endpoint) = match spec.tuning.transport {
        Transport::Unix => {
            let dir = std::env::temp_dir().join(format!(
                "blazes-dist-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::SeqCst)
            ));
            std::fs::create_dir_all(&dir)?;
            _dir_guard = Some(TempDir(dir.clone()));
            let sock = dir.join("coord.sock");
            let listener = UnixListener::bind(&sock)?;
            (
                Listener::Unix(listener),
                sock.to_string_lossy().into_owned(),
            )
        }
        Transport::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            (Listener::Tcp(listener), format!("tcp:{addr}"))
        }
    };
    listener.set_nonblocking(true)?;

    // Accept thread: hands completed hellos to the main loop. The stop
    // flag is set on every exit path by the drop guard.
    let (tx, rx) = mpsc::channel::<Event>();
    let stop = Arc::new(AtomicBool::new(false));
    let _stop_guard = StopFlag(Arc::clone(&stop));
    let conn_seq = Arc::new(AtomicU64::new(0));
    let accept_handle = {
        let stop = Arc::clone(&stop);
        let conn_seq = Arc::clone(&conn_seq);
        let tx = tx.clone();
        std::thread::spawn(move || accept_loop(&listener, &stop, &conn_seq, &tx))
    };

    let router = Router::new(routes, processes, spec.reorder_prob, spec.partition);
    let mut coord = Coordinator::new(spec, endpoint, router, origin_wires, tx);
    for i in 0..processes {
        coord.spawn_worker(i)?;
    }

    // Phase 1: route until the stability protocol confirms quiescence,
    // supervising liveness and firing chaos kills along the way.
    loop {
        coord.supervise()?;
        if coord.last_progress.elapsed() > STALL_TIMEOUT {
            coord.dump_stall_forensics();
            return Err(DistError::Protocol(coord.stall_verdict()));
        }
        // Take what is already queued without blocking; only when the
        // queue runs dry, flush every outbox and then wait. Routed frames
        // thus leave in chunk-sized writes while traffic flows, and never
        // sit in a buffer while the coordinator sleeps.
        let event = match rx.try_recv() {
            Ok(event) => event,
            Err(mpsc::TryRecvError::Empty) => {
                coord.router.flush_sockets();
                match rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(event) => event,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(DistError::Protocol("all readers gone".to_string()));
                    }
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => {
                return Err(DistError::Protocol("all readers gone".to_string()));
            }
        };
        if coord.handle_event(event)? {
            // A chaos kill can become due on the very frame that
            // completed stability. Give supervision one final pass
            // and only leave phase 1 with every worker alive —
            // phase-2 deaths are fatal by design.
            coord.supervise()?;
            if coord.all_up() {
                break;
            }
        }
    }

    // Phase 2: collect sinks and stats. No chaos, no respawns — sink
    // contents live only in their owning worker, so a crash here is
    // fatal by design.
    for w in 0..processes {
        coord.router.control(w, &Frame::Collect);
    }
    let mut done = vec![false; processes];
    let collect_start = Instant::now();
    while !done.iter().all(|d| *d) {
        if collect_start.elapsed() > STALL_TIMEOUT {
            return Err(DistError::Protocol("stalled during collection".to_string()));
        }
        let event = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(event) => event,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(DistError::Protocol("all readers gone".to_string()));
            }
        };
        match event {
            // A straggler connection (e.g. a worker-side reconnect that
            // lost its race): nothing to collect from it.
            Event::Hello { .. } => {}
            Event::Frames(i, conn_id, frames) => {
                if coord.slots[i].conn != conn_id {
                    continue;
                }
                for frame in frames {
                    match frame {
                        // A sink arrives as one frame per slice of its
                        // entries, in order.
                        Frame::SinkResult { sink, entries } => {
                            let (_, handle) = sinks.get(sink as usize).ok_or_else(|| {
                                DistError::Protocol(format!("unknown sink {sink}"))
                            })?;
                            handle.extend(entries);
                        }
                        Frame::Done {
                            events,
                            delivered,
                            duplicates,
                            retransmits,
                            rescue_passes,
                            late,
                        } => {
                            coord.router.stats.events_processed += events;
                            coord.router.stats.messages_delivered += delivered;
                            coord.router.stats.duplicates += duplicates;
                            coord.router.stats.retransmits += retransmits;
                            coord.router.stats.rescue_passes += rescue_passes;
                            coord.router.stats.late_egress_frames += late;
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
            }
            Event::Decode(i, conn_id, e) => {
                if coord.slots[i].conn == conn_id {
                    return Err(DistError::WorkerFailed {
                        worker: i,
                        cause: FailureCause::Corrupt(e.to_string()),
                    });
                }
            }
            Event::Eof(i, conn_id) => {
                if coord.slots[i].conn == conn_id && !done[i] {
                    return Err(DistError::WorkerFailed {
                        worker: i,
                        cause: FailureCause::Eof,
                    });
                }
            }
        }
    }

    // Shut the fleet down and reap everything.
    for w in 0..processes {
        coord.router.control(w, &Frame::Shutdown);
    }
    for outbox in &mut coord.router.outboxes {
        outbox.disconnect();
    }
    stop.store(true, Ordering::SeqCst);
    let _ = accept_handle.join();
    for reader in coord.readers.drain(..) {
        let _ = reader.join();
    }
    for slot in &mut coord.slots {
        if let Some(mut child) = slot.child.take() {
            let _ = child.wait();
        }
    }

    if blazes_obs::enabled() {
        coord
            .router
            .stats
            .export_metrics(blazes_obs::global().registry());
    }
    Ok(DistRun {
        sinks,
        stats: coord.router.stats,
    })
}

/// Short display name of a frame, for the stall forensic dump.
fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "hello",
        Frame::Plan { .. } => "plan",
        Frame::Data { .. } => "data",
        Frame::Idle { .. } => "idle",
        Frame::Probe { .. } => "probe",
        Frame::ProbeAck { .. } => "probe-ack",
        Frame::Collect => "collect",
        Frame::SinkResult { .. } => "sink-result",
        Frame::Done { .. } => "done",
        Frame::Shutdown => "shutdown",
        Frame::Error { .. } => "error",
        Frame::Trace { .. } => "trace",
        Frame::Heartbeat { .. } => "heartbeat",
        Frame::Ack { .. } => "ack",
    }
}

/// Read the `Hello` frame a freshly connected worker must send first.
fn read_hello(conn: &mut Conn) -> Result<(u32, u32, u64, Vec<u8>), DistError> {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 256];
    loop {
        if let Some(frame) = decoder.next_frame()? {
            return match frame {
                // The residue matters: a reattaching worker sends its
                // hello and unacked resends back-to-back, so the chunked
                // read can slurp frames past the handshake. They belong
                // to the reader that takes over this connection.
                Frame::Hello {
                    index,
                    epoch,
                    resume_recv,
                } => Ok((index, epoch, resume_recv, decoder.take_buffered())),
                other => Err(DistError::Protocol(format!(
                    "expected hello, got {other:?}"
                ))),
            };
        }
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(DistError::Protocol("eof before hello".to_string()));
        }
        decoder.push(&buf[..n]);
    }
}

/// Coordinator-side reader thread: decode one connection's stream into
/// conn-tagged events, one per socket read.
fn reader_loop(
    index: usize,
    conn_id: u64,
    mut conn: Conn,
    leftover: Vec<u8>,
    tx: &mpsc::Sender<Event>,
) {
    let mut decoder = FrameDecoder::new();
    decoder.push(&leftover);
    let mut buf = [0u8; 64 * 1024];
    loop {
        // Drain before reading: the hello residue may already hold
        // complete frames that no further bytes will ever flush out.
        let mut frames = Vec::new();
        let corrupt = loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        if !frames.is_empty() && tx.send(Event::Frames(index, conn_id, frames)).is_err() {
            return;
        }
        if let Some(e) = corrupt {
            let _ = tx.send(Event::Decode(index, conn_id, e));
            return;
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => {
                let _ = tx.send(Event::Eof(index, conn_id));
                return;
            }
            Ok(n) => decoder.push(&buf[..n]),
        }
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Worker entry point. Returns `false` immediately when `ENV_PARENT`
/// is not set (the process is not a dist worker — e.g. the `#[ignore]`d
/// libtest entry ran in a normal test sweep); otherwise connects to the
/// parent, executes its partition to completion and returns `true`.
///
/// # Panics
/// On any I/O or protocol failure — a worker dies loudly so the parent's
/// supervisor sees the exit instead of a hang.
pub fn worker_main(registry: &Registry) -> bool {
    let Some(endpoint) = std::env::var_os(ENV_PARENT) else {
        return false;
    };
    let endpoint = endpoint.to_string_lossy().into_owned();
    let index: usize = std::env::var(ENV_INDEX)
        .expect("dist worker index")
        .parse()
        .expect("numeric dist worker index");
    let epoch: u32 = std::env::var(ENV_EPOCH)
        .ok()
        .and_then(|e| e.parse().ok())
        .unwrap_or(0);
    match worker_run(registry, &endpoint, index, epoch) {
        Ok(()) => true,
        Err(e) => panic!("dist worker {index} failed: {e}"),
    }
}

/// One frame read tick on the worker's control loop.
const WORKER_POLL: Duration = Duration::from_millis(2);

/// Entries per [`Frame::SinkResult`]: a sink travels as a run of slices
/// the coordinator appends in order, so its size is not capped by
/// [`wire::MAX_FRAME`].
const SINK_SLICE: usize = 4096;

/// One sink's contents as the `SinkResult` frames that carry it.
fn sink_result_frames(sink: u32, entries: Vec<(Time, Message)>) -> impl Iterator<Item = Frame> {
    let mut rest = entries.into_iter().peekable();
    std::iter::from_fn(move || {
        rest.peek()?;
        Some(Frame::SinkResult {
            sink,
            entries: rest.by_ref().take(SINK_SLICE).collect(),
        })
    })
}

/// Dial the parent, retrying briefly: the listener is bound before any
/// spawn, but a TCP accept queue can refuse transiently under load.
fn dial_parent(endpoint: &str) -> Result<Conn, DistError> {
    let mut attempt = 0;
    loop {
        match connect_parent(endpoint) {
            Ok(conn) => return Ok(conn),
            Err(_) if attempt < 20 => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(DistError::Io(e)),
        }
    }
}

/// Re-dial the parent after losing the control socket mid-run: send a
/// resume hello, resend every unacked egress frame, and swap the shared
/// writer onto the fresh socket. Gives up after a few attempts — by then
/// the parent has almost certainly declared this incarnation dead and a
/// replacement is coming.
fn reattach(
    endpoint: &str,
    index: usize,
    epoch: u32,
    recv: u64,
    writer: &Arc<Mutex<Conn>>,
    elog: &Arc<Mutex<EgressLog>>,
) -> Result<Conn, DistError> {
    for attempt in 1..=3u32 {
        std::thread::sleep(Duration::from_millis(25 * u64::from(attempt)));
        let Ok(mut fresh) = connect_parent(endpoint) else {
            continue;
        };
        if fresh
            .write_all(&wire::encode(&Frame::Hello {
                index: index as u32,
                epoch,
                resume_recv: recv,
            }))
            .is_err()
        {
            continue;
        }
        let Ok(reader) = fresh.try_clone() else {
            continue;
        };
        if reader.set_read_timeout(Some(WORKER_POLL)).is_err() {
            continue;
        }
        // Lock order: writer, then log — same as the pump. Holding the
        // writer lock freezes the pump, so no frame can be appended (or
        // sent) while the unacked backlog is resent.
        let mut w = writer
            .lock()
            .map_err(|_| DistError::Protocol("writer poisoned".to_string()))?;
        let log = elog
            .lock()
            .map_err(|_| DistError::Protocol("egress log poisoned".to_string()))?;
        let unacked = log.unacked().map(|f| f.bytes.as_slice());
        if recover::write_coalesced(&mut fresh, unacked).is_err() {
            continue;
        }
        *w = fresh;
        return Ok(reader);
    }
    Err(DistError::Protocol(
        "lost the coordinator and could not reconnect".to_string(),
    ))
}

fn worker_run(
    registry: &Registry,
    endpoint: &str,
    index: usize,
    epoch: u32,
) -> Result<(), DistError> {
    let mut stream = dial_parent(endpoint)?;
    stream.write_all(&wire::encode(&Frame::Hello {
        index: index as u32,
        epoch,
        resume_recv: 0,
    }))?;

    // Wait for the plan.
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let plan = loop {
        if let Some(frame) = decoder.next_frame()? {
            match frame {
                Frame::Plan { .. } => break frame,
                Frame::Shutdown => return Ok(()),
                other => return Err(DistError::Protocol(format!("expected plan, got {other:?}"))),
            }
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(DistError::Protocol("eof before plan".to_string()));
        }
        decoder.push(&buf[..n]);
    };
    let Frame::Plan {
        topology,
        params,
        seed,
        processes,
        index: plan_index,
        workers,
        speculation,
        trace,
        epoch: plan_epoch,
        heartbeat_ms,
    } = plan
    else {
        unreachable!("matched above");
    };
    if plan_index as usize != index {
        return Err(DistError::Protocol(format!(
            "plan for worker {plan_index}, I am {index}"
        )));
    }
    if plan_epoch != epoch {
        return Err(DistError::Protocol(format!(
            "plan for epoch {plan_epoch}, I am epoch {epoch}"
        )));
    }
    if trace {
        // Record under a per-incarnation pid lane: index+1 (0 is the
        // coordinator), shifted by 1000 per epoch so a respawned worker
        // shows up as its own lane in the merged export.
        let obs = blazes_obs::global();
        obs.set_pid(index as u32 + 1 + 1000 * epoch);
        obs.set_enabled(true);
    }
    let heartbeat_every = Duration::from_millis(u64::from(heartbeat_ms.max(1)));

    // SPMD assembly of this partition.
    let mut pb = ParBuilder::new(seed)
        .with_workers(workers as usize)
        .with_tuning(ParTuning::default().with_speculation(speculation))
        .map_err(|e| DistError::Protocol(format!("plan carries an invalid par config: {e}")))?;
    let (mut builder, egress_rx, egress_queued) =
        DistWorkerBuilder::new(&mut pb, index, processes as usize);
    let sinks = registry.assemble(&topology, &params, &mut builder)?;
    let wiring = builder.finish();

    let running = pb.build().start();

    // Egress pump: encode, log and write cross-partition frames, a
    // queue's worth per socket write. Shares the socket with the control
    // loop's replies through a mutex; the pump is the only high-volume
    // writer.
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let elog = Arc::new(Mutex::new(EgressLog::new()));
    let written = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let writer = Arc::clone(&writer);
        let elog = Arc::clone(&elog);
        let written = Arc::clone(&written);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<(), DistError> {
            let mut batch: Vec<(u64, u64, Vec<u8>)> = Vec::new();
            let mut chunk: Vec<u8> = Vec::new();
            loop {
                match egress_rx.recv_timeout(WORKER_POLL) {
                    Ok(first) => {
                        // Block for one frame, then take what else is
                        // already queued, up to a chunk's worth.
                        let mut next = Some(first);
                        while let Some((wire, seq, msg)) = next {
                            let bytes = wire::encode(&Frame::Data { wire, seq, msg });
                            chunk.extend_from_slice(&bytes);
                            batch.push((wire, seq, bytes));
                            next = (chunk.len() < FLUSH_BYTES)
                                .then(|| egress_rx.try_recv().ok())
                                .flatten();
                        }
                        let frames = batch.len() as u64;
                        {
                            // Lock order everywhere: writer, then log.
                            // Every frame is logged before the write is
                            // attempted, and a failed write is
                            // survivable — the frames sit in the log for
                            // the reconnect resend, and the parent's
                            // dedup swallows any torn duplicate.
                            let mut w = writer
                                .lock()
                                .map_err(|_| DistError::Protocol("pump writer poisoned".into()))?;
                            {
                                let mut log = elog.lock().map_err(|_| {
                                    DistError::Protocol("egress log poisoned".into())
                                })?;
                                for (wire, seq, bytes) in batch.drain(..) {
                                    blazes_obs::record(blazes_obs::EventKind::FrameSend, wire, seq);
                                    log.append(wire, seq, bytes);
                                }
                            }
                            let _ = w.write_all(&chunk);
                        }
                        chunk.clear();
                        written.fetch_add(frames, Ordering::SeqCst);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if stop.load(Ordering::SeqCst) {
                            return Ok(());
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                }
            }
        })
    };

    // Control loop: deliver ingress frames, answer probes, report
    // idleness, heartbeat. Phase-1 control sends are best-effort: a dead
    // socket is detected by the read path and reattached.
    stream.set_read_timeout(Some(WORKER_POLL))?;
    let mut recv = 0u64;
    let mut last_seq: HashMap<u64, u64> = HashMap::new();
    let mut last_idle: Option<(u64, u64)> = None;
    let mut last_hb: Option<Instant> = None;
    let collect = 'control: loop {
        if last_hb.is_none_or(|t| t.elapsed() >= heartbeat_every) {
            let sent = written.load(Ordering::SeqCst);
            let idle = running.settled() && egress_queued.load(Ordering::SeqCst) == sent;
            let _ = send_control(
                &writer,
                &Frame::Heartbeat {
                    epoch,
                    sent,
                    recv,
                    idle,
                },
            );
            last_hb = Some(Instant::now());
        }
        // Drain frames already buffered *before* blocking on the socket:
        // the plan read slurps whole chunks, so replayed frames can sit
        // fully decoded in the buffer with no further bytes ever arriving
        // to trigger a read-path drain.
        while let Some(frame) = decoder.next_frame()? {
            match frame {
                Frame::Data { wire, seq, msg } => {
                    // Per-wire FIFO assertion: sequence numbers
                    // are contiguous, duplicates repeat one.
                    let expected = last_seq.get(&wire).map_or(0, |s| s + 1);
                    if seq != expected && Some(seq) != expected.checked_sub(1) {
                        let m = format!("wire {wire} broke FIFO: seq {seq}, expected {expected}");
                        let _ = send_control(&writer, &Frame::Error { message: m.clone() });
                        return Err(DistError::Protocol(m));
                    }
                    last_seq.insert(wire, seq.max(expected.saturating_sub(1)));
                    blazes_obs::record(blazes_obs::EventKind::FrameRecv, wire, seq);
                    let (inst, port) = *wiring.ingress.get(&wire).ok_or_else(|| {
                        DistError::Protocol(format!("no ingress for wire {wire}"))
                    })?;
                    running.inject(inst, port, msg);
                    recv += 1;
                    last_idle = None;
                }
                Frame::Probe { nonce } => {
                    let sent = written.load(Ordering::SeqCst);
                    let idle = running.settled() && egress_queued.load(Ordering::SeqCst) == sent;
                    let _ = send_control(
                        &writer,
                        &Frame::ProbeAck {
                            nonce,
                            sent,
                            recv,
                            idle,
                        },
                    );
                }
                Frame::Ack { acks } => {
                    let mut log = elog
                        .lock()
                        .map_err(|_| DistError::Protocol("egress log poisoned".into()))?;
                    for (wire, upto) in acks {
                        log.ack(wire, upto);
                    }
                }
                Frame::Collect => break 'control true,
                Frame::Shutdown => break 'control false,
                other => {
                    return Err(DistError::Protocol(format!(
                        "unexpected frame in run phase: {other:?}"
                    )))
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                stream = reattach(endpoint, index, epoch, recv, &writer, &elog)?;
                decoder = FrameDecoder::new();
            }
            Ok(n) => decoder.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Quiet tick: report idleness when the local runtime has
                // settled and every egress frame has hit the socket.
                let sent = written.load(Ordering::SeqCst);
                if running.settled()
                    && egress_queued.load(Ordering::SeqCst) == sent
                    && last_idle != Some((sent, recv))
                {
                    let _ = send_control(&writer, &Frame::Idle { sent, recv });
                    last_idle = Some((sent, recv));
                }
            }
            Err(_) => {
                stream = reattach(endpoint, index, epoch, recv, &writer, &elog)?;
                decoder = FrameDecoder::new();
            }
        }
    };

    // Finish the local run (end-of-run rescue happens inside), then stop
    // the pump and account anything the rescue tried to send after the
    // wire closed for data.
    let stats = running.finish();
    stop.store(true, Ordering::SeqCst);
    pump.join()
        .map_err(|_| DistError::Protocol("egress pump panicked".to_string()))??;
    let late = egress_queued.load(Ordering::SeqCst) - written.load(Ordering::SeqCst);

    if collect {
        for (pos, (id, sink)) in sinks.iter().enumerate() {
            if owner(id.0, processes as usize) == index {
                for frame in sink_result_frames(pos as u32, sink.entries()) {
                    send_control(&writer, &frame)?;
                }
            }
        }
        if trace {
            for lane in blazes_obs::global().drain_lanes() {
                send_control(
                    &writer,
                    &Frame::Trace {
                        pid: lane.pid,
                        tid: lane.tid,
                        events: lane
                            .events
                            .into_iter()
                            .map(blazes_obs::Event::to_words)
                            .collect(),
                    },
                )?;
            }
        }
        send_control(
            &writer,
            &Frame::Done {
                events: stats.events_processed,
                delivered: stats.messages_delivered,
                duplicates: stats.duplicates,
                retransmits: stats.retransmits,
                rescue_passes: stats.rescue_passes,
                late,
            },
        )?;
        // Wait for the shutdown order (keeps the socket open until the
        // parent has drained our results).
        stream.set_read_timeout(None)?;
        loop {
            if let Some(frame) = decoder.next_frame()? {
                if matches!(frame, Frame::Shutdown) {
                    break;
                }
                continue;
            }
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => decoder.push(&buf[..n]),
                Err(_) => break,
            }
        }
    }
    Ok(())
}

/// Serialize one control frame onto the shared worker socket.
fn send_control(writer: &Arc<Mutex<Conn>>, frame: &Frame) -> Result<(), DistError> {
    writer
        .lock()
        .map_err(|_| DistError::Protocol("writer poisoned".to_string()))?
        .write_all(&wire::encode(frame))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnComponent;
    use crate::value::{Tuple, Value};

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
    /// appears in A's `cross_out` and in B's `ingress`.
    #[test]
    fn spmd_numbering_and_cross_wiring_agree() {
        let mut pb0 = ParBuilder::new(1);
        let (mut b0, _rx0, _q0) = DistWorkerBuilder::new(&mut pb0, 0, 2);
        let sinks0 = chain(&mut b0);
        let w0 = b0.finish();

        let mut pb1 = ParBuilder::new(1);
        let (mut b1, _rx1, _q1) = DistWorkerBuilder::new(&mut pb1, 1, 2);
        let sinks1 = chain(&mut b1);
        let w1 = b1.finish();

        assert_eq!(sinks0[0].0, sinks1[0].0, "global sink ids agree");
        assert_eq!(w0.instances, 3);
        assert_eq!(w1.instances, 3);
        // Instances 0 (a) and 2 (s) are owned by 0; instance 1 (m) by 1.
        // Wire 0: a->m crosses 0->1; wire 1: m->s crosses 1->0.
        assert_eq!(w0.cross_out, vec![0]);
        assert_eq!(
            w1.ingress.get(&0).copied(),
            Some((InstanceId(0), PortId(0))),
            "worker 1's local id for global instance 1 is its first par instance"
        );
        assert_eq!(w1.cross_out, vec![1]);
        assert!(w0.ingress.contains_key(&1));
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
        let w0 = b0.finish();
        let mut pb1 = ParBuilder::new(9).with_workers(2);
        let (mut b1, rx1, q1) = DistWorkerBuilder::new(&mut pb1, 1, 2);
        let _sinks1 = chain(&mut b1);
        let w1 = b1.finish();

        let r0 = pb0.build().start();
        let r1 = pb1.build().start();
        let mut moved = (0u64, 0u64);
        // Shuttle until both partitions quiesce with drained queues.
        loop {
            let mut progress = false;
            while let Ok((wire, _seq, msg)) = rx0.try_recv() {
                let (inst, port) = w1.ingress[&wire];
                r1.inject(inst, port, msg);
                moved.0 += 1;
                progress = true;
            }
            while let Ok((wire, _seq, msg)) = rx1.try_recv() {
                let (inst, port) = w0.ingress[&wire];
                r0.inject(inst, port, msg);
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
        assert_eq!(reg.names(), vec!["chain"]);
        let mut probe = ProbeBuilder::new();
        let sinks = reg.assemble("chain", "", &mut probe).unwrap();
        assert_eq!(probe.instances(), 3);
        assert_eq!(probe.wires().len(), 2);
        assert_eq!(probe.injections(), 50);
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
        assert_eq!(probe.names(), &["echo".to_string(), "echo".to_string()]);
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

    fn plain_route(dest: usize) -> WireRoute {
        WireRoute {
            dest,
            faults: None,
            reorder_rng: None,
        }
    }

    fn data(wire: u64, seq: u64) -> Frame {
        Frame::Data {
            wire,
            seq,
            msg: Message::data([seq as i64]),
        }
    }

    /// The router's write path: a routed frame is logged and counted at
    /// once but reaches the socket only with a flush; what the socket
    /// then carries is the log, byte for byte; a control frame goes out
    /// behind the data pending for its worker.
    #[test]
    fn router_socket_stream_is_the_log_and_control_follows_data() {
        let (ours, mut theirs) = UnixStream::pair().unwrap();
        let mut router = Router::new(HashMap::from([(4, plain_route(0))]), 1, 0.0, None);
        router.outboxes[0].connect(Conn::Unix(ours), 0).unwrap();
        for i in 0..300i64 {
            let message = wire::message_bytes(&Message::data([i]));
            router.route(4, &message).unwrap();
        }
        assert_eq!(router.sent_to[0], 300, "counted at log time");
        assert_eq!(router.stats.frames_routed, 300);
        assert_eq!(router.outboxes[0].log().len(), 300);
        theirs.set_nonblocking(true).unwrap();
        assert_eq!(
            theirs.read(&mut [0u8; 16]).unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock,
            "nothing leaves before a flush"
        );

        router.control(0, &Frame::Probe { nonce: 9 });
        assert_eq!(router.outboxes[0].pending_bytes(), 0);
        let logged: Vec<u8> = router.outboxes[0]
            .log()
            .tail(0)
            .flatten()
            .copied()
            .collect();
        let probe = wire::encode(&Frame::Probe { nonce: 9 });
        let mut got = vec![0u8; logged.len() + probe.len()];
        theirs.set_nonblocking(false).unwrap();
        theirs.read_exact(&mut got).unwrap();
        assert_eq!(got[..logged.len()], logged[..], "socket bytes = the log");
        assert_eq!(got[logged.len()..], probe[..], "the probe came last");
        // And the log is the routed stream: delivery ordinals from zero.
        let mut decoder = FrameDecoder::new();
        decoder.push(&logged);
        for i in 0..300u64 {
            assert_eq!(decoder.next_frame().unwrap(), Some(data(4, i)));
        }

        // Flush-before-block: pending bytes leave with `flush_sockets`.
        router
            .route(4, &wire::message_bytes(&Message::Eos))
            .unwrap();
        assert!(router.outboxes[0].pending_bytes() > 0);
        router.flush_sockets();
        let eos = router.outboxes[0].log().tail(300).next().unwrap().to_vec();
        let mut got = vec![0u8; eos.len()];
        theirs.read_exact(&mut got).unwrap();
        assert_eq!(got, eos);
    }

    /// A coordinator over two never-spawned workers, both marked up on
    /// connection id 1, with wire 0 crossing 1 → 0.
    fn test_coordinator(spec: &DistSpec) -> Coordinator<'_> {
        let router = Router::new(HashMap::from([(0, plain_route(0))]), 2, 0.0, None);
        let (tx, _rx) = mpsc::channel();
        let mut coord = Coordinator::new(spec, String::new(), router, vec![vec![], vec![0]], tx);
        for slot in &mut coord.slots {
            slot.up = true;
            slot.conn = 1;
        }
        coord
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
        let mut coord = test_coordinator(&spec);
        let (ours, mut theirs) = UnixStream::pair().unwrap();
        coord.router.outboxes[0]
            .connect(Conn::Unix(ours), 0)
            .unwrap();

        let batch = (0..5).map(|seq| data(0, seq)).collect();
        assert!(!coord.handle_event(Event::Frames(1, 1, batch)).unwrap());
        // The kill fired after the second frame; the sender lives on, so
        // the rest of its batch was still routed — into the log only.
        assert_eq!(coord.router.stats.worker_failures, 1);
        assert!(!coord.slots[0].up && coord.slots[0].epoch == 1);
        assert_eq!(coord.recv_from[1], 5);
        assert_eq!(coord.router.sent_to[0], 5);
        assert_eq!(coord.router.outboxes[0].log().len(), 5);
        assert_eq!(coord.router.outboxes[0].pending_bytes(), 0);
        let mut got = Vec::new();
        theirs.read_to_end(&mut got).unwrap();
        assert!(got.is_empty(), "the dead incarnation was sent nothing");
    }

    /// A batched event is fully processed — except past the point where
    /// its own connection died: those are a dead incarnation's bytes.
    #[test]
    fn batch_is_handled_whole_unless_its_connection_dies() {
        let heartbeat = Frame::Heartbeat {
            epoch: 0,
            sent: 0,
            recv: 0,
            idle: false,
        };
        let mut spec = DistSpec::new("", "", vec![String::new()]);
        let mut coord = test_coordinator(&spec);
        let batch = vec![heartbeat.clone(), data(0, 0), data(0, 1)];
        coord
            .handle_event(Event::Frames(1, 1, batch.clone()))
            .unwrap();
        assert_eq!((coord.recv_from[1], coord.router.sent_to[0]), (2, 2));
        // A stale connection id drops the whole batch.
        let stale = vec![data(0, 2)];
        coord.handle_event(Event::Frames(1, 7, stale)).unwrap();
        assert_eq!(coord.recv_from[1], 2);

        spec.chaos = ChaosSpec {
            kills: vec![Kill {
                worker: 1,
                point: KillPoint::Heartbeats(1),
            }],
        };
        let mut coord = test_coordinator(&spec);
        coord.handle_event(Event::Frames(1, 1, batch)).unwrap();
        assert!(!coord.slots[1].up, "killed on its first heartbeat");
        assert_eq!((coord.recv_from[1], coord.router.sent_to[0]), (0, 0));
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
        let mut reassembled = Vec::new();
        let mut frames = 0;
        for frame in sink_result_frames(3, entries.clone()) {
            assert!(wire::encode(&frame).len() <= 1 << 20, "slice over 1 MiB");
            let Frame::SinkResult { sink: 3, entries } = frame else {
                panic!("not a slice of sink 3: {frame:?}");
            };
            assert!(!entries.is_empty() && entries.len() <= SINK_SLICE);
            reassembled.extend(entries);
            frames += 1;
        }
        assert_eq!(frames, 70_000usize.div_ceil(SINK_SLICE));
        assert_eq!(reassembled, entries);
        assert_eq!(sink_result_frames(0, Vec::new()).count(), 0);
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
