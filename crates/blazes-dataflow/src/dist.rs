//! The distributed multi-process backend: a topology partitioned across
//! OS processes over a real byte boundary.
//!
//! Where [`crate::par`] runs a topology on threads inside one address
//! space, this backend forks *worker processes* and ships each one its
//! partition of the graph. Inside every worker the parallel
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
//! points, the respawn budget and backoff, stability, collection; `worker`
//! is a worker without a socket — plan checks, the per-wire FIFO check,
//! ingress injection, idle reports, the `Collect` check, sink and `Done`
//! frames; `shell` holds the sockets, threads and processes
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
//! records the *identical* assembly into a [`Topology`]. What the
//! parameter string says is the assembly's business: the case studies
//! (`blazes_apps::dist`) write a scenario as `key=value` lines from one
//! field list per plan type, parse it back from the same list, and reject
//! a string that list would not have written. Because assembly
//! is deterministic, all recordings agree on the global numbering of
//! instances, channels and wires without ever serializing a component.
//! Instance `i` is *owned* by process `i % processes`. The parent reads
//! the routing table off its recording — which wires cross, with which
//! channel — and drops the recording, components and injections with it,
//! before any worker spawns. Each worker partitions its own recording:
//! the local [`Topology`] keeps the instances it owns, the wires between
//! them under their global numbers, and the injections addressed to them;
//! the wires it produces onto other processes become egress wires.
//!
//! The price is that every process runs the whole assembly, input
//! generation included, before it can route or run anything: the parent
//! before it spawns a worker, each worker before it starts its runtime.
//! Shipping the parent's recording instead needs components that
//! serialize.
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
//! runtime delivers it, fault RNG and all. A *cross* wire is split. On the
//! producer's side it is an *egress wire* of the par runtime: an emission
//! on it becomes the wire's next `(wire, seq, message)` frame, with no
//! mailbox, no fault draw and no activation of its own, and each
//! activation hands its frames to the worker's egress queue as one batch
//! before the producer can run again. The parent applies the wire's fault
//! schedule and routes the frame to the consumer's owner, and the
//! consumer's owner injects it through [`crate::par::RunningPar::inject`]
//! — each socket read's data frames as one batch, flushed before the
//! worker answers any control frame read behind them. A process boundary
//! therefore adds no par events: the workers of a run together process
//! exactly the component deliveries one par runtime would.
//!
//! The parent is a byte switch. Its reader threads check every frame
//! exactly as [`wire::FrameDecoder::next_frame`] would — tags, UTF-8,
//! element counts, trailing bytes — but through
//! [`wire::FrameDecoder::next_routed`], which leaves a data frame's
//! message as the bytes it arrived as. The coordinator hashes those bytes
//! for the replay filter and frames them straight into the destination's
//! replay log; it never builds a [`Message`](crate::message::Message).
//! This is sound because the codec is canonical: for any message bytes
//! the decoder accepts,
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
//! per tuple: a worker's egress pump takes the batches queued so far and
//! writes them (up to [`recover::FLUSH_BYTES`]) in one socket write, the
//! parent's readers
//! hand over every frame decoded from one read as one input, and each
//! worker's [`recover::Outbox`] coalesces routed frames into chunk-sized
//! writes. Everything that counts frames (`sent_to`, `frames_routed`,
//! kill points, delivery ordinals, fault draws) counts at *log* time, so
//! batching moves no schedule. The rule that keeps it live is **flush
//! before block**: the event loop takes queued inputs without blocking
//! and flushes every outbox before it waits; a control frame (`Collect`,
//! `Shutdown`) goes out behind whatever is pending for its worker, never
//! ahead; and an outbox that reaches a chunk's worth flushes itself.
//!
//! # Termination and collection
//!
//! Termination is one wave of counter reports. A worker reports
//! `Idle{sent, recv}` once its local runtime has quiesced
//! ([`crate::par::RunningPar::settled`]) and every frame its egress queue
//! held has been written, and again whenever those counters move. The
//! parent collects as soon as every worker is up and its latest report
//! equals the parent's own counters for it: `(recv_from[w], sent_to[w])`,
//! the data frames it received from and routed to that worker.
//!
//! One wave is exact because every connection is FIFO and the parent
//! routes and counts every data frame:
//!
//! * A settled worker becomes active again only by receiving a frame, and
//!   every such frame first bumps `sent_to[w]` at the parent. A report
//!   whose `recv` equals `sent_to[w]` therefore leaves nothing in flight
//!   toward the worker, and its runtime has nothing left to do.
//! * `Idle` leaves a worker only once its egress is fully written, and it
//!   travels behind those frames on the same socket. When it arrives,
//!   `recv_from[w]` has already counted all of them: nothing is in flight
//!   from the worker.
//!
//! So matching counters on every worker mean nothing is in flight and
//! nobody is busy, and nobody can become busy again (Mattern's counting
//! argument for termination detection, with the parent as the one place
//! every message passes). `Collect` carries the counters the decision
//! was made on, and a worker that is not idle at them fails the run with
//! a protocol error rather than hand back partial sinks.
//!
//! `Collect` makes each worker finish its run and stream back the
//! contents of every sink it owns — moved out of the sink, not copied, in
//! `SinkResult` slices of at most 1 MiB of payload the parent appends in
//! order, so a sink's size is not bounded by [`wire::MAX_FRAME`]; only an
//! entry too large for a frame of its own fails the run, with
//! [`wire::WireError::Oversized`] — plus its run statistics. Workers run
//! their par runtime without time-warp speculation, so a stable run has
//! nothing left to do after `Collect`: no frame is produced once the wire
//! has closed for data.
//!
//! One window stays open: a worker that dies after sending the report
//! that completes stability is still sent `Collect`, and its death then
//! fails the run, as every phase-2 crash does (see below). A confirmation
//! round would only narrow that window by a round trip; checkpointed
//! recovery would close it.
//!
//! # Fault tolerance
//!
//! The crash model is *fail-stop during routing*: a worker process may be
//! SIGKILL'd (or die any other way) at any point of phase 1, and the run
//! still completes with the same sinks. Three mechanisms compose:
//!
//! * **Liveness.** Workers send a bare [`wire::Frame::Heartbeat`] every
//!   [`DistTuning::heartbeat_every`], busy or not; the coordinator keeps
//!   per-worker deadlines, reaps child exits promptly, and converts every
//!   failure into a forensic [`DistError::WorkerFailed`] verdict instead
//!   of a global stall timeout. Heartbeats carry no counters: an `Idle`
//!   report cannot be lost without its connection, and a lost connection
//!   ends the incarnation.
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

use crate::backend::{ExecutorBuilder, Topology};
use crate::sim::InstanceId;
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
    /// Always 0: termination takes one wave of idle reports and no
    /// confirmation round. Kept for the benchmark that reads it.
    pub probe_rounds: u64,
    /// Events processed, summed over every worker's runtime: component
    /// deliveries only, since an emission onto a cross wire leaves its
    /// producer's runtime directly. Equals a par run's count for the same
    /// topology and seed wherever that count does not depend on delivery
    /// order.
    pub events_processed: u64,
    /// Messages delivered, summed over workers: a frame routed across a
    /// cross wire counts where its consumer's runtime delivers it, so this
    /// equals a par run's count for the same topology and seed.
    pub messages_delivered: u64,
    /// Duplicates drawn on every wire: on local wires by the workers'
    /// runtimes, on cross wires by the parent's fault RNGs. Equals a par
    /// run's count for the same topology and seed.
    pub duplicates: u64,
    /// Retransmits drawn on every wire, counted as
    /// [`DistStats::duplicates`] is.
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

/// The name the benchmark package builds assembly recordings under; a
/// [`Topology`] is the one recording type.
pub type ProbeBuilder = Topology;

#[cfg(test)]
mod tests {
    use super::coord::{Coord, Effect, Input, Life, Received, Router};
    use super::harness::Pipe;
    use super::shell::{env_number, read_hello, worker_run, Conn, TempDir, DIR_SEQ};
    use super::worker::{
        partition, sink_result_frames, Control, Ingress, Partition, WorkerCore, SINK_SLICE_BYTES,
    };
    use super::*;
    use crate::backend::{ChannelId, PortId, Wire};
    use crate::channel::{ChannelConfig, WireFaults};
    use crate::component::{Component, Context, FnComponent};
    use crate::message::Message;
    use crate::par::{EgressFrame, EgressQueue, ParBuilder, RunningPar};
    use crate::sim::Time;
    use crate::value::{Tuple, Value};
    use std::io::Write;
    use std::os::unix::net::UnixListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
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

    /// A fan-out/fan-in toy: a source feeds three stages, each of which
    /// feeds both sinks on a port of its own, so at every process count
    /// wires stay local, cross and enter in every direction. Every wire
    /// loses and duplicates.
    fn fan(b: &mut dyn ExecutorBuilder) -> SinkSet {
        let src = b.add_instance(echo());
        let ch = b.add_channel(ChannelConfig::lan().with_loss(0.2).with_duplicates(0.1));
        let stages: Vec<InstanceId> = (0..3).map(|_| b.add_instance(echo())).collect();
        let sinks: SinkSet = (0..2)
            .map(|_| {
                let sink = CollectorSink::new();
                (b.add_instance(Box::new(sink.clone())), sink)
            })
            .collect();
        for (port, &stage) in stages.iter().enumerate() {
            b.connect(src, PortId(0), stage, PortId(0), ch);
            for (sink, _) in &sinks {
                b.connect(stage, PortId(0), *sink, PortId(port), ch);
            }
        }
        for i in 0..5i64 {
            b.inject(i as Time, src, PortId(0), Message::data([i]));
        }
        sinks
    }

    /// Record `assembly` and cut process `index` of `processes` out of
    /// the recording, as a worker does.
    fn part(
        assembly: fn(&mut dyn ExecutorBuilder) -> SinkSet,
        index: usize,
        processes: usize,
    ) -> (SinkSet, Partition) {
        let mut recording = Topology::new();
        let sinks = assembly(&mut recording);
        (sinks, partition(recording, index, processes))
    }

    /// Global numbering must be identical no matter which index runs the
    /// assembly, and cross wiring must mirror: a wire leaving partition A
    /// is in B's ingress table, never in A's.
    #[test]
    fn spmd_numbering_and_cross_wiring_agree() {
        let (sinks0, Partition { ingress: in0, .. }) = part(chain, 0, 2);
        let (sinks1, Partition { ingress: in1, .. }) = part(chain, 1, 2);

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
        type Started = (
            RunningPar,
            Ingress,
            mpsc::Receiver<Vec<EgressFrame>>,
            Arc<AtomicU64>,
        );
        let start = |p: Partition| -> Started {
            let (tx, rx) = mpsc::channel();
            let queued = Arc::new(AtomicU64::new(0));
            let queue = EgressQueue {
                tx,
                queued: Arc::clone(&queued),
            };
            let running = ParBuilder::new(9)
                .with_workers(2)
                .with_topology(p.topology)
                .with_egress(p.egress, queue)
                .build()
                .start();
            (running, p.ingress, rx, queued)
        };
        let (sinks0, p0) = part(chain, 0, 2);
        let (_, p1) = part(chain, 1, 2);
        let (r0, in0, rx0, q0) = start(p0);
        let (r1, in1, rx1, q1) = start(p1);
        let mut moved = (0u64, 0u64);
        // Shuttle until both partitions quiesce with drained queues.
        loop {
            let mut progress = false;
            for (wire, _seq, msg) in rx0.try_iter().flatten() {
                let (inst, port) = in1[&wire];
                r1.inject([(inst, port, msg)]);
                moved.0 += 1;
                progress = true;
            }
            for (wire, _seq, msg) in rx1.try_iter().flatten() {
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
        let stats = [r1.finish(), r0.finish()];
        assert_eq!(moved.0, 50, "a->m crossed once per message");
        assert_eq!(moved.1, 50, "m->s crossed once per message");
        assert_eq!(sinks0[0].1.message_set(), expected);
        let events: u64 = stats.iter().map(|s| s.events_processed).sum();
        assert_eq!(
            events, 150,
            "one event per component delivery, none for egress"
        );
    }

    /// The registry rejects unknown names and dispatches known ones.
    #[test]
    fn registry_dispatches_by_name() {
        let mut reg = Registry::new();
        reg.register("chain", |b, _params| chain(b));
        let mut recording = Topology::new();
        let sinks = reg.assemble("chain", "", &mut recording).unwrap();
        assert_eq!(recording.instance_names().len(), 3);
        assert_eq!(recording.wires().len(), 2);
        assert_eq!(sinks.len(), 1);
        assert!(matches!(
            reg.assemble("nope", "", &mut Topology::new()),
            Err(DistError::UnknownTopology(_))
        ));
    }

    /// Partitioning loses and doubles nothing, at every process count:
    /// each instance is owned by exactly one process, and a partition
    /// holds nothing else; each wire is either a local wire under its own
    /// number or, when it crosses, an egress wire on the producer's owner
    /// plus an ingress entry on the consumer's owner; each injection
    /// reaches its instance's owner; and each process's egress wires are
    /// the cross wires the router expects it to produce. No partition
    /// runs.
    #[test]
    fn partitions_own_each_instance_once_and_carry_each_wire_once() {
        for assembly in [chain as fn(&mut dyn ExecutorBuilder) -> SinkSet, fan] {
            let mut global = Topology::new();
            assembly(&mut global);
            let names: Vec<&str> = global.instance_names().collect();
            for processes in 1..=4 {
                let (_, origin_wires) = Router::<Pipe>::new(&global, processes, 0);
                let local_id = |g: InstanceId| InstanceId(g.0 / processes);
                let mut owned = vec![0; names.len()];
                // Per global wire: local copies, egress entries, ingress entries.
                let mut seen = vec![(0, 0, 0); global.wires().len()];
                let mut injections = 0;
                for (index, origin) in origin_wires.iter().enumerate() {
                    let Partition {
                        topology,
                        egress,
                        ingress,
                    } = part(assembly, index, processes).1;
                    let local: Vec<&str> = topology.instance_names().collect();
                    let mine: Vec<usize> = (index..names.len()).step_by(processes).collect();
                    assert_eq!(local.len(), mine.len(), "owned instances only");
                    for (k, &g) in mine.iter().enumerate() {
                        assert_eq!(local[k], names[g], "owned instances, in order");
                        owned[g] += 1;
                    }
                    for w in topology.wires() {
                        let g = global.wires()[w.number as usize];
                        let expected = Wire {
                            from: local_id(g.from),
                            to: local_id(g.to),
                            ..g
                        };
                        assert_eq!(*w, expected);
                        seen[w.number as usize].0 += 1;
                    }
                    for e in &egress {
                        let g = global.wires()[e.number as usize];
                        assert_eq!(owner(g.from.0, processes), index);
                        assert_ne!(owner(g.to.0, processes), index);
                        assert_eq!((e.from, e.out_port), (local_id(g.from), g.out_port));
                        seen[e.number as usize].1 += 1;
                    }
                    for (&n, &entry) in &ingress {
                        let g = global.wires()[n as usize];
                        assert_eq!(owner(g.to.0, processes), index);
                        assert_ne!(owner(g.from.0, processes), index);
                        assert_eq!(entry, (local_id(g.to), g.in_port));
                        seen[n as usize].2 += 1;
                    }
                    let produced: Vec<u64> = egress.iter().map(|e| e.number).collect();
                    assert_eq!(&produced, origin, "P={processes} process {index}");
                    for (_, to, _, _) in &topology.injections {
                        assert!(to.0 < mine.len(), "injected into an owned instance");
                    }
                    injections += topology.injections.len();
                }
                assert!(owned.iter().all(|&n| n == 1), "P={processes}: {owned:?}");
                assert!(
                    seen.iter().all(|&s| s == (1, 0, 0) || s == (0, 1, 1)),
                    "P={processes}: {seen:?}"
                );
                assert_eq!(injections, global.injections.len());
            }
        }
    }

    /// A recording refuses a handle it does not know at the call that
    /// names it, on every backend alike: here, a service time for a
    /// missing instance.
    #[test]
    #[should_panic(expected = "set_service_time: unknown instance InstanceId(1)")]
    fn a_service_time_for_an_unknown_instance_is_refused_at_the_call() {
        let mut probe = ProbeBuilder::new();
        probe.add_instance(echo());
        probe.set_service_time(InstanceId(1), 5);
    }

    /// A wire to a missing instance is refused when it is connected, not
    /// when a message first travels it.
    #[test]
    #[should_panic(expected = "connect: unknown instance InstanceId(1)")]
    fn a_wire_to_an_unknown_instance_is_refused_at_the_call() {
        let mut probe = ProbeBuilder::new();
        let a = probe.add_instance(echo());
        let ch = probe.add_channel(ChannelConfig::instant());
        probe.connect(a, PortId(0), InstanceId(1), PortId(0), ch);
    }

    /// A wire over a channel nobody registered is refused.
    #[test]
    #[should_panic(expected = "connect: unknown channel ch0")]
    fn a_wire_over_an_unknown_channel_is_refused_at_the_call() {
        let mut probe = ProbeBuilder::new();
        let a = probe.add_instance(echo());
        let b = probe.add_instance(echo());
        probe.connect(a, PortId(0), b, PortId(0), ChannelId(0));
    }

    /// An injection into a missing instance is refused when it is
    /// recorded, not when the run starts.
    #[test]
    #[should_panic(expected = "inject: unknown instance InstanceId(0)")]
    fn an_injection_to_an_unknown_instance_is_refused_at_the_call() {
        ProbeBuilder::new().inject(0, InstanceId(0), PortId(0), Message::Eos);
    }

    /// Two instances, one fault-free wire (wire 0) from instance `from` to
    /// the other: in a 2-process run it crosses `from` → `1 - from`.
    fn one_cross_wire(from: usize) -> Topology {
        let mut topology = Topology::new();
        let ids = [topology.add_instance(echo()), topology.add_instance(echo())];
        let ch = topology.add_channel(ChannelConfig::instant());
        topology.connect(ids[from], PortId(0), ids[1 - from], PortId(0), ch);
        topology
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

        let collect = Frame::Collect { sent: 0, recv: 300 };
        router.control(1, &collect);
        assert_eq!(router.outboxes[1].pending_bytes(), 0);
        let logged: Vec<u8> = router.outboxes[1]
            .log()
            .tail(0)
            .flatten()
            .copied()
            .collect();
        let got = theirs.take();
        assert_eq!(
            got[..logged.len()],
            logged[..],
            "connection bytes = the log"
        );
        assert_eq!(
            got[logged.len()..],
            wire::encode(&collect)[..],
            "the collect came last"
        );
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
    fn test_coordinator(spec: &DistSpec, topology: Topology) -> (Coord<'_, Pipe>, [Pipe; 2]) {
        let (mut coord, spawns) = Coord::new(spec, topology, Vec::new(), Duration::ZERO);
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
        let (mut coord, [theirs, _]) = test_coordinator(&spec, one_cross_wire(1));

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
        let mut spec = DistSpec::new("", "", vec![String::new()]);
        let (mut coord, _) = test_coordinator(&spec, one_cross_wire(1));
        let batch = vec![Frame::Heartbeat, data(0, 0), data(0, 1)];
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
        let (mut coord, _) = test_coordinator(&spec, one_cross_wire(1));
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
        let (mut coord, _) = test_coordinator(&spec, one_cross_wire(1));
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
        let (mut coord, _) = test_coordinator(&spec, one_cross_wire(1));
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
        let (mut coord, _) = test_coordinator(&spec, one_cross_wire(1));
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

    /// Worker 1 of 2 over a topology whose wire 0 enters a consumer that
    /// counts into `seen` each message it processes, and waits to start
    /// on one until `seen < allowed`.
    fn gated_worker(allowed: &Arc<AtomicU64>, seen: &Arc<AtomicU64>) -> WorkerCore {
        let mut registry = Registry::new();
        let (a, s) = (Arc::clone(allowed), Arc::clone(seen));
        registry.register("gated", move |b, _| {
            let (a, s) = (Arc::clone(&a), Arc::clone(&s));
            let src = b.add_instance(echo());
            let consumer = FnComponent::new("gated", move |_, _, _: &mut Context| {
                while s.load(Ordering::SeqCst) >= a.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                s.fetch_add(1, Ordering::SeqCst);
            });
            let dst = b.add_instance(Box::new(consumer));
            let ch = b.add_channel(ChannelConfig::instant());
            b.connect(src, PortId(0), dst, PortId(0), ch);
            Vec::new()
        });
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
        WorkerCore::start(&registry, plan, 1, 0).unwrap().0
    }

    fn settle(core: &WorkerCore) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !core.idle(0) {
            assert!(Instant::now() < deadline, "the worker never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A worker stages a read's data frames and injects them as one
    /// batch, and its idle report never outruns them: three staged frames
    /// are counted, and a fourth holds every report back until the
    /// consumer has processed it.
    #[test]
    fn an_idle_report_counts_staged_data_and_waits_until_it_is_processed() {
        let (allowed, seen) = (Arc::new(AtomicU64::new(3)), Arc::new(AtomicU64::new(0)));
        let mut core = gated_worker(&allowed, &seen);
        for seq in 0..3 {
            assert!(core.on_frame(data(0, seq), 0).unwrap().is_none());
            assert_eq!(core.idle_report(0), None, "{} frames staged", seq + 1);
        }
        core.inject_staged();
        settle(&core);
        assert_eq!(core.idle_report(0), Some(Frame::Idle { sent: 0, recv: 3 }));

        assert!(core.on_frame(data(0, 3), 0).unwrap().is_none());
        assert_eq!(core.idle_report(0), None, "the fourth frame is staged");
        core.inject_staged();
        assert_eq!(core.idle_report(0), None, "the consumer has not run it");
        allowed.store(4, Ordering::SeqCst);
        settle(&core);
        assert_eq!(seen.load(Ordering::SeqCst), 4);
        assert_eq!(core.idle_report(0), Some(Frame::Idle { sent: 0, recv: 4 }));
        assert_eq!(core.idle_report(0), None, "a report is not repeated");
        assert!(core.finish().is_ok());
    }

    /// `Collect` carries the counters stability was decided on: a worker
    /// that is still busy, or whose own counters differ, refuses it as a
    /// protocol violation instead of finishing with partial sinks.
    #[test]
    fn a_collect_whose_counters_disagree_is_a_protocol_error() {
        let (allowed, seen) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let mut core = gated_worker(&allowed, &seen);
        for seq in 0..3 {
            core.on_frame(data(0, seq), 0).unwrap();
        }
        let collect =
            |core: &mut WorkerCore, sent, recv| core.on_frame(Frame::Collect { sent, recv }, 0);
        assert!(
            matches!(collect(&mut core, 0, 3), Err(DistError::Protocol(_))),
            "busy"
        );
        allowed.store(u64::MAX, Ordering::SeqCst);
        settle(&core);
        for (sent, recv) in [(0, 2), (0, 4), (1, 3)] {
            assert!(matches!(
                collect(&mut core, sent, recv),
                Err(DistError::Protocol(_))
            ));
        }
        assert!(matches!(
            collect(&mut core, 0, 3),
            Ok(Some(Control::Collect))
        ));
        assert!(core.finish().is_ok());
    }

    /// The spawner always sets a worker's index and epoch; a value that is
    /// missing or not a decimal number is an error that names the
    /// variable, never a default (an epoch read as 0 would say hello as a
    /// stale incarnation and be dropped).
    #[test]
    fn a_malformed_worker_index_or_epoch_is_an_error_naming_it() {
        let os = |s: &str| Some(std::ffi::OsString::from(s));
        assert_eq!(env_number::<usize>(ENV_INDEX, os("2")), Ok(2));
        assert_eq!(env_number::<u32>(ENV_EPOCH, os("7")), Ok(7));
        for value in [None, os(""), os("one"), os("-1"), os(" 1"), os("1.0")] {
            let index = env_number::<usize>(ENV_INDEX, value.clone()).unwrap_err();
            let epoch = env_number::<u32>(ENV_EPOCH, value.clone()).unwrap_err();
            assert!(index.contains(ENV_INDEX), "{value:?}: {index}");
            assert!(epoch.contains(ENV_EPOCH), "{value:?}: {epoch}");
        }
        let too_big = env_number::<u32>(ENV_EPOCH, os("4294967296")).unwrap_err();
        assert!(too_big.contains(ENV_EPOCH), "{too_big}");
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

    /// Wire counters mean the same on dist as on par: `duplicates` and
    /// `retransmits` count the draws on every wire, the parent's draws on
    /// cross wires included, and `messages_delivered` every delivery, so
    /// all three equal a par run's.
    #[test]
    fn wire_counters_count_every_wire_as_par_does() {
        let seed = 5;
        let mut par = ParBuilder::new(seed).with_workers(1);
        fan(&mut par);
        let par = par.build().run();
        let mut registry = Registry::new();
        registry.register("fan", |b, _| fan(b));
        let spec = DistSpec {
            processes: 2,
            workers_per_process: 1,
            seed,
            ..DistSpec::new("fan", "", Vec::new())
        };
        let dist = harness::run(&spec, &registry).stats;
        assert!(par.duplicates > 0 && par.retransmits > 0, "{par:?}");
        assert!(dist.frames_routed > 0, "some wires cross");
        assert_eq!(
            (dist.duplicates, dist.retransmits, dist.messages_delivered),
            (par.duplicates, par.retransmits, par.messages_delivered)
        );
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
