//! The worker side of the protocol, without a socket: [`partition`], and
//! [`WorkerCore`] — a worker once its plan has arrived. The
//! shell's control loop and the in-memory harness drive it alike, feeding
//! it frames and the count of egress frames written so far. Egress does
//! not pass through the core: the par runtime sends each activation's
//! cross-wire frames to the queue [`WorkerCore::start`] returns, and the
//! caller writes them out.

use super::wire::{self, Frame, WireError, MAX_FRAME};
use super::{owner, DistError, Registry, SinkSet};
use crate::backend::{PortId, Topology, Wire};
use crate::message::Message;
use crate::par::{EgressFrame, EgressQueue, EgressWire, ParBuilder, ParTuning, RunningPar};
use crate::sim::{InstanceId, Time};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Payload bytes a [`Frame::SinkResult`] slice stays within: a sink
/// travels as a run of slices the coordinator appends in order, so its
/// size is not capped by [`MAX_FRAME`] — only a single entry's is.
pub(super) const SINK_SLICE_BYTES: usize = 1 << 20;

/// Cross wires terminating locally: global wire → (local instance of the
/// consumer, its input port).
pub(super) type Ingress = BTreeMap<u64, (InstanceId, PortId)>;

/// Process `index`'s share of a recorded topology, ready to run.
pub(super) struct Partition {
    /// The instances it owns, in global order; the wires between them
    /// under their global numbers; every channel; the injections
    /// addressed to owned instances.
    pub(super) topology: Topology,
    /// Cross wires this process produces, from its local instances, in
    /// registration order.
    pub(super) egress: Vec<EgressWire>,
    /// Cross wires this process consumes.
    pub(super) ingress: Ingress,
}

/// Cut process `index`'s partition out of `topology`, every process's
/// identical recording of the SPMD assembly. A wire between two owned
/// instances keeps its global number (the par runtime's fault streams key
/// on it); a wire leaving the partition becomes an egress wire, whose
/// emissions the par runtime hands straight to the egress queue; a wire
/// entering it goes into the ingress table, for [`RunningPar::inject`]
/// delivery. Everything owned elsewhere is dropped.
///
/// # Panics
/// If `processes` is zero or `index` is out of range.
pub(super) fn partition(topology: Topology, index: usize, processes: usize) -> Partition {
    assert!(processes >= 1, "at least one process");
    assert!(index < processes, "index within process count");
    let Topology {
        instances,
        channels,
        wires,
        injections,
    } = topology;
    let mut local = Topology {
        channels,
        ..Topology::default()
    };
    // Global instance id → local id (`None` = owned elsewhere).
    let local_of: Vec<Option<InstanceId>> = instances
        .into_iter()
        .enumerate()
        .map(|(global, instance)| {
            (owner(global, processes) == index).then(|| {
                local.instances.push(instance);
                InstanceId(local.instances.len() - 1)
            })
        })
        .collect();
    let mut egress = Vec::new();
    let mut ingress = Ingress::new();
    for wire in wires {
        match (local_of[wire.from.0], local_of[wire.to.0]) {
            (Some(from), Some(to)) => local.wires.push(Wire { from, to, ..wire }),
            (Some(from), None) => egress.push(EgressWire {
                from,
                out_port: wire.out_port,
                number: wire.number,
            }),
            (None, Some(to)) => {
                ingress.insert(wire.number, (to, wire.in_port));
            }
            (None, None) => {}
        }
    }
    local.injections = injections
        .into_iter()
        .filter_map(|(at, to, port, msg)| Some((at, local_of[to.0]?, port, msg)))
        .collect();
    Partition {
        topology: local,
        egress,
        ingress,
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
    /// Egress frames the runtime has enqueued (compare with frames
    /// written).
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
    /// queue its caller must write out, batch by batch (counting the
    /// frames it writes).
    ///
    /// # Errors
    /// [`DistError::Protocol`] for a plan addressed elsewhere or with an
    /// invalid par config; [`DistError::UnknownTopology`] from assembly.
    pub(super) fn start(
        registry: &Registry,
        plan: Frame,
        index: usize,
        epoch: u32,
    ) -> Result<(WorkerCore, mpsc::Receiver<Vec<EgressFrame>>), DistError> {
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
        let config = ParBuilder::new(seed)
            .with_workers(workers as usize)
            .with_tuning(ParTuning::default())
            .map_err(|e| DistError::Protocol(format!("plan carries an invalid par config: {e}")))?;
        let mut recording = Topology::new();
        let sinks = registry.assemble(&topology, &params, &mut recording)?;
        let Partition {
            topology,
            egress,
            ingress,
        } = partition(recording, index, processes);
        let (tx, batches) = mpsc::channel();
        let queued = Arc::new(AtomicU64::new(0));
        let queue = EgressQueue {
            tx,
            queued: Arc::clone(&queued),
        };
        let config = config.with_topology(topology).with_egress(egress, queue);
        let core = WorkerCore {
            ingress,
            index,
            processes,
            trace,
            heartbeat_every: Duration::from_millis(u64::from(heartbeat_ms.max(1))),
            running: config.build().start(),
            sinks,
            queued,
            recv: 0,
            staged: Vec::new(),
            last_seq: HashMap::new(),
            last_idle: None,
        };
        Ok((core, batches))
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
