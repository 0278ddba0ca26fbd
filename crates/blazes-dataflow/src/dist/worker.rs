//! The worker side of the protocol, without a socket: the partition
//! builder, and [`WorkerCore`] — a worker once its plan has arrived. The
//! shell's control loop and the in-memory harness drive it alike, feeding
//! it frames and the count of egress frames written so far.

use super::wire::{self, Frame, WireError, MAX_FRAME};
use super::{owner, DistError, Registry, SinkSet};
use crate::backend::{ChannelId, ExecutorBuilder, PortId};
use crate::channel::ChannelConfig;
use crate::component::{Component, Context};
use crate::message::Message;
use crate::par::{ParBuilder, ParTuning, RunningPar};
use crate::sim::{InstanceId, Time};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Wire numbers for the local producer→egress hops, far above any global
/// wire number. Egress hops use [`ChannelConfig::instant`] (no fault
/// RNG), so the offset only keeps diagnostics unambiguous.
const EGRESS_WIRE_BASE: u64 = 1 << 48;

/// Payload bytes a [`Frame::SinkResult`] slice stays within: a sink
/// travels as a run of slices the coordinator appends in order, so its
/// size is not capped by [`MAX_FRAME`] — only a single entry's is.
pub(super) const SINK_SLICE_BYTES: usize = 1 << 20;

/// One cross-partition emission leaving a worker: `(wire, seq, message)`.
pub(crate) type EgressFrame = (u64, u64, Message);

/// Cross wires terminating locally: global wire → (local instance of the
/// consumer, its input port).
pub(super) type Ingress = BTreeMap<u64, (InstanceId, PortId)>;

/// The egress shim interposed on a cross wire's producer side: forwards
/// every delivery to the worker's egress queue as `(wire, seq, message)`.
/// Workers never speculate, so every frame it forwards is committed.
struct Egress {
    wire: u64,
    seq: u64,
    queued: Arc<AtomicU64>,
    tx: mpsc::Sender<EgressFrame>,
}

impl Component for Egress {
    fn on_message(&mut self, _port: usize, msg: Message, _ctx: &mut Context) {
        // Count before sending: the idle check compares this counter
        // against the frames written, and over-counting is the safe
        // direction (a frame in the channel reads as "not drained").
        self.queued.fetch_add(1, Ordering::SeqCst);
        let seq = self.seq;
        self.seq += 1;
        let _ = self.tx.send((self.wire, seq, msg));
    }

    fn name(&self) -> &str {
        "dist-egress"
    }
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
pub(crate) struct DistWorkerBuilder<'a> {
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
    /// Filled in as the assembly connects wires.
    pub(super) ingress: Ingress,
}

impl<'a> DistWorkerBuilder<'a> {
    /// Wrap `inner` as process `index` of `processes`. Returns the
    /// builder, the receiving end of its egress queue, and the shared
    /// egress-enqueue counter (compare against frames actually written to
    /// decide the queue has drained).
    ///
    /// # Panics
    /// If `processes` is zero or `index` is out of range.
    pub(super) fn new(
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
            },
            rx,
            queued,
        )
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

/// What a run-phase frame asks of the code running the worker.
pub(super) enum Control {
    /// Send [`WorkerCore::finish`]'s frames.
    Collect,
    /// Exit without reporting.
    Shutdown,
}

/// One worker incarnation after its plan: the partition's par runtime
/// plus the frame-level protocol state around it.
pub(super) struct WorkerCore {
    index: usize,
    processes: usize,
    trace: bool,
    /// Heartbeat interval the plan asked for.
    pub(super) heartbeat_every: Duration,
    running: RunningPar,
    ingress: Ingress,
    sinks: SinkSet,
    /// Egress frames enqueued by the shims (compare with frames written).
    queued: Arc<AtomicU64>,
    /// Data frames received.
    recv: u64,
    /// Data frames received but not yet injected: a read's worth goes
    /// into the runtime as one batch ([`Self::inject_staged`]).
    staged: Vec<(InstanceId, PortId, Message)>,
    /// Last sequence number seen per ingress wire (FIFO check).
    last_seq: HashMap<u64, u64>,
    /// Counters of the last `Idle` report, so a quiet tick repeats none.
    last_idle: Option<(u64, u64)>,
}

impl WorkerCore {
    /// Check `plan` against this incarnation's identity, assemble the
    /// partition and start its runtime. Returns the core and the egress
    /// queue its caller must write out (counting what it writes).
    ///
    /// # Errors
    /// [`DistError::Protocol`] for a plan addressed elsewhere or with an
    /// invalid par config; [`DistError::UnknownTopology`] from assembly.
    pub(super) fn start(
        registry: &Registry,
        plan: Frame,
        index: usize,
        epoch: u32,
    ) -> Result<(WorkerCore, mpsc::Receiver<EgressFrame>), DistError> {
        let Frame::Plan {
            topology,
            params,
            seed,
            processes,
            index: plan_index,
            workers,
            trace,
            epoch: plan_epoch,
            heartbeat_ms,
        } = plan
        else {
            return Err(DistError::Protocol(format!("expected plan, got {plan:?}")));
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
        let processes = processes as usize;
        let mut pb = ParBuilder::new(seed)
            .with_workers(workers as usize)
            .with_tuning(ParTuning::default())
            .map_err(|e| DistError::Protocol(format!("plan carries an invalid par config: {e}")))?;
        let (mut builder, egress, queued) = DistWorkerBuilder::new(&mut pb, index, processes);
        let sinks = registry.assemble(&topology, &params, &mut builder)?;
        let core = WorkerCore {
            ingress: builder.ingress,
            index,
            processes,
            trace,
            heartbeat_every: Duration::from_millis(u64::from(heartbeat_ms.max(1))),
            running: pb.build().start(),
            sinks,
            queued,
            recv: 0,
            staged: Vec::new(),
            last_seq: HashMap::new(),
            last_idle: None,
        };
        Ok((core, egress))
    }

    /// Nothing staged, the runtime settled, and every enqueued egress
    /// frame among the `sent` written?
    pub(super) fn idle(&self, sent: u64) -> bool {
        self.staged.is_empty()
            && self.running.settled()
            && self.queued.load(Ordering::SeqCst) == sent
    }

    /// Inject every staged data frame into the runtime as one batch. The
    /// caller calls this once it has handed over a read's frames; any
    /// other frame injects what is staged before it is handled, so no
    /// answer outruns the data that arrived ahead of it.
    pub(super) fn inject_staged(&mut self) {
        if !self.staged.is_empty() {
            self.running.inject(self.staged.drain(..));
        }
    }

    /// A quiet tick: an `Idle` report when the local runtime has settled,
    /// every egress frame has been written, and the counters moved since
    /// the last report.
    pub(super) fn idle_report(&mut self, sent: u64) -> Option<Frame> {
        let counters = (sent, self.recv);
        if !self.idle(sent) || self.last_idle == Some(counters) {
            return None;
        }
        self.last_idle = Some(counters);
        Some(Frame::Idle {
            sent,
            recv: self.recv,
        })
    }

    /// Handle one run-phase frame from the coordinator, `sent` egress
    /// frames having been written so far. A data frame is checked,
    /// counted and staged; see [`Self::inject_staged`].
    ///
    /// # Errors
    /// [`DistError::Protocol`] when a wire breaks FIFO, a frame names a
    /// wire with no local consumer, a `Collect` finds this worker busy or
    /// its counters other than the coordinator's, or the frame has no
    /// place in the run phase. The caller reports it to the coordinator as a
    /// [`Frame::Error`] before exiting.
    pub(super) fn on_frame(
        &mut self,
        frame: Frame,
        sent: u64,
    ) -> Result<Option<Control>, DistError> {
        if !matches!(frame, Frame::Data { .. }) {
            self.inject_staged();
        }
        match frame {
            Frame::Data { wire, seq, msg } => {
                // Per-wire FIFO assertion: sequence numbers are
                // contiguous, duplicates repeat one.
                let expected = self.last_seq.get(&wire).map_or(0, |s| s + 1);
                if seq != expected && Some(seq) != expected.checked_sub(1) {
                    return Err(DistError::Protocol(format!(
                        "wire {wire} broke FIFO: seq {seq}, expected {expected}"
                    )));
                }
                self.last_seq
                    .insert(wire, seq.max(expected.saturating_sub(1)));
                blazes_obs::record(blazes_obs::EventKind::FrameRecv, wire, seq);
                let (inst, port) = *self
                    .ingress
                    .get(&wire)
                    .ok_or_else(|| DistError::Protocol(format!("no ingress for wire {wire}")))?;
                self.staged.push((inst, port, msg));
                self.recv += 1;
                self.last_idle = None;
                Ok(None)
            }
            // Stability was decided on these counters; a worker that is
            // busy or disagrees would hand back partial sinks.
            Frame::Collect { sent: s, recv: r } => {
                let idle = self.idle(sent);
                if !idle || (sent, self.recv) != (s, r) {
                    return Err(DistError::Protocol(format!(
                        "collect at sent={s} recv={r}, but this worker is at sent={sent} \
                         recv={}, idle={idle}",
                        self.recv
                    )));
                }
                Ok(Some(Control::Collect))
            }
            Frame::Shutdown => Ok(Some(Control::Shutdown)),
            other => Err(DistError::Protocol(format!(
                "unexpected frame in run phase: {other:?}"
            ))),
        }
    }

    /// Finish the local run and return the frames that report it: each
    /// owned sink in slices, the trace lanes when tracing, then `Done`.
    /// Call once the egress queue has nothing left to write. The sinks'
    /// entries are moved out, not copied, and each slice is built as the
    /// caller takes it.
    ///
    /// # Errors
    /// [`WireError::Oversized`] when a sink entry alone is too large for
    /// a frame.
    pub(super) fn finish(self) -> Result<impl Iterator<Item = Frame>, DistError> {
        let stats = self.running.finish();
        let (index, processes) = (self.index, self.processes);
        let lanes = if self.trace {
            blazes_obs::global().drain_lanes()
        } else {
            Vec::new()
        };
        let mut sinks = Vec::new();
        for (pos, (id, sink)) in self.sinks.into_iter().enumerate() {
            if owner(id.0, processes) == index {
                sinks.push(sink_result_frames(pos as u32, sink.take_entries())?);
            }
        }
        let traces = lanes.into_iter().map(|lane| Frame::Trace {
            pid: lane.pid,
            tid: lane.tid,
            events: lane
                .events
                .into_iter()
                .map(blazes_obs::Event::to_words)
                .collect(),
        });
        let done = Frame::Done {
            events: stats.events_processed,
            delivered: stats.messages_delivered,
            duplicates: stats.duplicates,
            retransmits: stats.retransmits,
        };
        Ok(sinks
            .into_iter()
            .flatten()
            .chain(traces)
            .chain(std::iter::once(done)))
    }
}

/// One sink's contents as the `SinkResult` frames that carry it, cut so
/// that each payload stays within [`SINK_SLICE_BYTES`] unless a single
/// entry is larger.
///
/// # Errors
/// [`WireError::Oversized`] for an entry whose slice alone would exceed
/// [`MAX_FRAME`]; the coordinator would reject that frame.
pub(super) fn sink_result_frames(
    sink: u32,
    entries: Vec<(Time, Message)>,
) -> Result<impl Iterator<Item = Frame>, DistError> {
    const HEADER: usize = 4 + 4; // sink index, entry count
    let mut slices = Vec::new();
    let (mut len, mut bytes) = (0, HEADER);
    for (_, msg) in &entries {
        let size = 8 + wire::message_len(msg);
        if HEADER + size > MAX_FRAME {
            return Err(WireError::Oversized(HEADER + size).into());
        }
        if len > 0 && bytes + size > SINK_SLICE_BYTES {
            slices.push(len);
            (len, bytes) = (0, HEADER);
        }
        len += 1;
        bytes += size;
    }
    if len > 0 {
        slices.push(len);
    }
    let mut rest = entries.into_iter();
    Ok(slices.into_iter().map(move |len| Frame::SinkResult {
        sink,
        entries: rest.by_ref().take(len).collect(),
    }))
}
