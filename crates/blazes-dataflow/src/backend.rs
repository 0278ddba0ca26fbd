//! The backend abstraction shared by the execution substrates.
//!
//! # One recorder
//!
//! Higher layers (the mini Storm engine, the case studies) assemble a
//! topology by calling the same five operations whatever the backend:
//! adding instances, registering channels, wiring ports, setting service
//! times and injecting external inputs. [`ExecutorBuilder`] is that
//! surface, and [`Topology`] is the one type that records it: the
//! instances (each a boxed component and its service time), the channel
//! configs, the wires in registration order with their wire numbers, and
//! the injections. Every backend is built from that value — the
//! simulator by [`crate::sim::Simulator::new`], the parallel executor by
//! [`crate::par::ParBuilder`] (its configuration over a recorded
//! `Topology`), and the distributed backend by reading routing off the
//! parent's recording and partitioning each worker's own. A handle the
//! recording does not know is rejected at the call that names it, so an
//! assembly fails the same way on every backend.
//!
//! # One dispatcher
//!
//! How a [`BackendSpec`] becomes a runnable executor is decided in exactly
//! one place: [`build_local`]. Every runner above this crate — the Storm
//! topology builder, the case studies, the benches — hands it an assembly
//! closure instead of matching on the spec itself, so all backends run the
//! same program through the same path.
//!
//! # The graph-rewrite pass
//!
//! [`RewritingBuilder`] wraps any [`ExecutorBuilder`]: it records the
//! assembly into a [`Topology`] of its own, and its `finish` runs a
//! [`RewritePass`] once over that whole recording and then hands the
//! result to the wrapped builder ([`ExecutorBuilder::take_recording`]).
//! The pass may interpose *gate* operators on wires and redirect external
//! injections — without the assembling code knowing the topology was
//! transformed. This is the mechanism `blazes-autocoord` uses to inject
//! the coordination a [`blazes-core`](../../blazes_core/index.html)
//! analysis proved necessary: because the pass sits below the shared
//! [`ExecutorBuilder`] surface, the *same* rewritten [`Topology`] is what
//! every backend runs, and a rewrite can be checked on the value without
//! running anything. [`RewriteStats`] records what the pass added, so
//! callers can verify the minimality claim (a confluent topology must come
//! through with zero injected operators).

use crate::channel::ChannelConfig;
use crate::component::Component;
use crate::message::Message;
use crate::par::{ParBuilder, ParConfigError, ParExecutor};
use crate::sim::{InstanceId, Simulator, Time};
use std::fmt;

/// Typed handle to a channel configuration registered with a backend
/// builder. Distinct from [`PortId`] so a channel handle can no longer be
/// passed where a port index is expected (or vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub usize);

/// Typed index of an input or output port on a component instance, as
/// used by the assembly surface. The runtime dispatch side
/// ([`Component::on_message`]) still sees the raw index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// A builder for an execution backend: the assembly surface shared by the
/// simulator, the parallel executor and the distributed executor.
pub trait ExecutorBuilder {
    /// Add a component instance; returns its id.
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId;

    /// Set the per-message service time of an instance. Virtual-time
    /// backends model queueing with this; wall-clock backends may ignore
    /// it (real processing costs are paid for real).
    fn set_service_time(&mut self, id: InstanceId, service: Time);

    /// Register a channel configuration, returning a reusable handle.
    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId;

    /// Wire output `out_port` of `from` to input `in_port` of `to` over
    /// the channel registered as `channel`.
    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    );

    /// Inject an external message. `at` is a virtual timestamp for the
    /// simulator; wall-clock backends use it only as an ordering key.
    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message);

    /// Convenience: wire with a fresh channel config.
    fn connect_with(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        cfg: ChannelConfig,
    ) {
        let ch = self.add_channel(cfg);
        self.connect(from, out_port, to, in_port, ch);
    }

    /// Take over a whole recording, as if its assembly had been made here
    /// call by call: how a [`RewritingBuilder`] hands its rewritten
    /// [`Topology`] on. The default replays the recording through the
    /// five calls above (instances with their service times, channels,
    /// wires, injections) and panics unless every instance and channel id
    /// comes back as recorded, so the ids the assembly handed out stay
    /// valid. [`Topology`] and [`ParBuilder`] move the recording in
    /// instead, and must be empty.
    fn take_recording(&mut self, topology: Topology) {
        let Topology {
            instances,
            channels,
            wires,
            injections,
        } = topology;
        for (at, instance) in instances.into_iter().enumerate() {
            let id = self.add_instance(instance.component);
            assert_eq!(id, InstanceId(at), "take_recording: instance renumbered");
            self.set_service_time(id, instance.service);
        }
        for (at, cfg) in channels.into_iter().enumerate() {
            let ch = self.add_channel(cfg);
            assert_eq!(ch, ChannelId(at), "take_recording: channel renumbered");
        }
        for w in wires {
            self.connect(w.from, w.out_port, w.to, w.in_port, w.channel);
        }
        for (at, to, port, msg) in injections {
            self.inject(at, to, port, msg);
        }
    }
}

/// Forward through mutable references so assembly functions generic over
/// `B: ExecutorBuilder` also accept `&mut dyn ExecutorBuilder`.
impl<B: ExecutorBuilder + ?Sized> ExecutorBuilder for &mut B {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        (**self).add_instance(component)
    }

    fn set_service_time(&mut self, id: InstanceId, service: Time) {
        (**self).set_service_time(id, service);
    }

    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        (**self).add_channel(cfg)
    }

    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        (**self).connect(from, out_port, to, in_port, channel);
    }

    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        (**self).inject(at, to, port, msg);
    }

    fn take_recording(&mut self, topology: Topology) {
        (**self).take_recording(topology);
    }
}

/// One recorded component instance.
pub(crate) struct Instance {
    pub(crate) component: Box<dyn Component>,
    /// Modeled per-message service time.
    pub(crate) service: Time,
}

/// Instances compare by component name and service time: a component's
/// code and state are opaque.
impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.component.name() == other.component.name() && self.service == other.service
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.component.name(), self.service)
    }
}

/// One recorded wire: output `out_port` of `from` to input `in_port` of
/// `to` over channel `channel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire {
    /// Producer instance.
    pub from: InstanceId,
    /// Producer output port.
    pub out_port: PortId,
    /// Consumer instance.
    pub to: InstanceId,
    /// Consumer input port.
    pub in_port: PortId,
    /// Channel the wire was connected over.
    pub channel: ChannelId,
    /// The wire's number, which seeds its fault RNG stream: its
    /// registration index in an assembly's recording, kept unchanged when
    /// the distributed backend partitions the recording, so a wire draws
    /// the same faults whichever process runs it.
    pub number: u64,
}

/// An external message recorded for delivery at `at`, to `(instance,
/// port)`.
pub type Injection = (Time, InstanceId, PortId, Message);

/// An assembled topology as a value: what an [`ExecutorBuilder`]
/// assembly records, and what every backend is built from.
///
/// Recording checks every handle at the call: `set_service_time`,
/// `connect` and `inject` panic, naming the handle, on an instance or
/// channel the topology does not have.
///
/// Two recordings are equal when they hold the same instances (by
/// component name and service time), channels, wires and injections, in
/// the same order — so a rewrite can be checked without running anything.
#[derive(Debug, Default, PartialEq)]
pub struct Topology {
    pub(crate) instances: Vec<Instance>,
    pub(crate) channels: Vec<ChannelConfig>,
    pub(crate) wires: Vec<Wire>,
    pub(crate) injections: Vec<Injection>,
}

impl Topology {
    /// An empty recording.
    #[must_use]
    pub fn new() -> Self {
        Topology::default()
    }

    /// Component names of the recorded instances, by id.
    pub fn instance_names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.instances.iter().map(|i| i.component.name())
    }

    /// Registered channel configurations, by handle.
    #[must_use]
    pub fn channels(&self) -> &[ChannelConfig] {
        &self.channels
    }

    /// Recorded wires, in registration order.
    #[must_use]
    pub fn wires(&self) -> &[Wire] {
        &self.wires
    }

    /// Move the recorded wires out, leaving none: a [`RewritePass`]
    /// connects them again, rewritten, so each wire's number is its
    /// position in the rewritten list.
    pub fn take_wires(&mut self) -> Vec<Wire> {
        std::mem::take(&mut self.wires)
    }

    /// Walk the recorded injections in order, in place: `f` sees the
    /// topology (to add gates and wires) and one injection, may redirect
    /// it, and returns whether to keep it. Kept injections are checked
    /// like a fresh `inject`.
    pub fn rewrite_injections(&mut self, mut f: impl FnMut(&mut Topology, &mut Injection) -> bool) {
        let mut injections = std::mem::take(&mut self.injections);
        injections.retain_mut(|injection| f(self, injection));
        assert!(
            self.injections.is_empty(),
            "rewrite_injections: redirect injections, do not record new ones"
        );
        for &(_, to, ..) in &injections {
            self.check("inject", to);
        }
        self.injections = injections;
    }

    /// Panic unless `id` names a recorded instance.
    fn check(&self, call: &str, id: InstanceId) {
        assert!(
            id.0 < self.instances.len(),
            "{call}: unknown instance {id:?} (the topology has {})",
            self.instances.len()
        );
    }
}

impl ExecutorBuilder for Topology {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        self.instances.push(Instance {
            component,
            service: 0,
        });
        InstanceId(self.instances.len() - 1)
    }

    fn set_service_time(&mut self, id: InstanceId, service: Time) {
        self.check("set_service_time", id);
        self.instances[id.0].service = service;
    }

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
        self.check("connect", from);
        self.check("connect", to);
        assert!(
            channel.0 < self.channels.len(),
            "connect: unknown channel {channel} (the topology has {})",
            self.channels.len()
        );
        self.wires.push(Wire {
            from,
            out_port,
            to,
            in_port,
            channel,
            number: self.wires.len() as u64,
        });
    }

    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        self.check("inject", to);
        self.injections.push((at, to, port, msg));
    }

    /// Moves `topology` in.
    ///
    /// # Panics
    /// Unless this recording is empty: appending would shift the ids the
    /// handed-over assembly returned.
    fn take_recording(&mut self, topology: Topology) {
        assert!(
            self.instances.is_empty()
                && self.channels.is_empty()
                && self.wires.is_empty()
                && self.injections.is_empty(),
            "take_recording: the topology already holds a recording"
        );
        *self = topology;
    }
}

/// A topology transformation [`RewritingBuilder`] applies once, to the
/// whole recording, before the wrapped builder sees it.
pub trait RewritePass {
    /// Rewrite `topology` in place and account for what was added. Gates
    /// are new instances appended to the recording, so every id the
    /// assembly handed out keeps naming what it named.
    fn rewrite(&mut self, topology: &mut Topology) -> RewriteStats;
}

/// The identity pass: rewrites nothing. Lets callers run the rewrite
/// plumbing unconditionally and read zeroed [`RewriteStats`] as the
/// *proof* that a topology needed no coordination.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopPass;

impl RewritePass for NoopPass {
    fn rewrite(&mut self, _topology: &mut Topology) -> RewriteStats {
        RewriteStats::default()
    }
}

/// Accounting of what a rewrite pass did to a topology — the overhead
/// ledger of the "minimal coordination" claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Gate operator instances the pass added.
    pub injected_operators: usize,
    /// Producer wires that end at a gate instead of their consumer.
    pub rewritten_wires: usize,
}

impl RewriteStats {
    /// Did the pass leave the topology untouched?
    #[must_use]
    pub fn is_untouched(&self) -> bool {
        *self == RewriteStats::default()
    }
}

/// An [`ExecutorBuilder`] that records an assembly, rewrites it with a
/// [`RewritePass`] and hands the result to the wrapped builder — a
/// [`Topology`] or a [`crate::par::ParBuilder`] over one — so every
/// backend runs the same rewritten graph. Nothing reaches the wrapped
/// builder before [`RewritingBuilder::finish`].
#[must_use = "nothing reaches the wrapped builder until `finish`"]
pub struct RewritingBuilder<'a, B: ExecutorBuilder + ?Sized, P: RewritePass> {
    inner: &'a mut B,
    pass: P,
    recording: Topology,
}

impl<'a, B: ExecutorBuilder + ?Sized, P: RewritePass> RewritingBuilder<'a, B, P> {
    /// Wrap `inner`; `pass` runs at [`RewritingBuilder::finish`].
    pub fn new(inner: &'a mut B, pass: P) -> Self {
        RewritingBuilder {
            inner,
            pass,
            recording: Topology::new(),
        }
    }

    /// Finish assembly: run the pass over the recording, hand the result
    /// to the wrapped builder, and return the pass and its accounting.
    #[must_use]
    pub fn finish(mut self) -> (P, RewriteStats) {
        let stats = self.pass.rewrite(&mut self.recording);
        self.inner.take_recording(self.recording);
        (self.pass, stats)
    }
}

impl<B: ExecutorBuilder + ?Sized, P: RewritePass> ExecutorBuilder for RewritingBuilder<'_, B, P> {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        self.recording.add_instance(component)
    }

    fn set_service_time(&mut self, id: InstanceId, service: Time) {
        self.recording.set_service_time(id, service);
    }

    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        self.recording.add_channel(cfg)
    }

    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        self.recording.connect(from, out_port, to, in_port, channel);
    }

    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        self.recording.inject(at, to, port, msg);
    }
}

/// Selects the execution substrate a topology should run on, with the
/// per-backend knobs.
///
/// One value of this enum is the single argument that picks between the
/// deterministic simulator, the in-process parallel executor and the
/// multi-process distributed executor; every runner accepts a
/// `&BackendSpec` and resolves it through [`build_local`] (or, for `Dist`,
/// [`crate::dist::run_dist`]).
#[derive(Debug, Clone)]
pub enum BackendSpec {
    /// The deterministic discrete-event simulator ([`crate::sim::Simulator`]).
    Sim,
    /// The in-process multi-worker parallel executor
    /// ([`crate::par::ParBuilder`]).
    Par {
        /// Number of OS worker threads.
        workers: usize,
        /// Batch-size/speculation/service-time knobs for the run.
        tuning: crate::par::ParTuning,
    },
    /// The distributed multi-process executor ([`crate::dist::run_dist`]).
    /// The topology itself is named by [`crate::dist::DistSpec::topology`]
    /// and resolved through a [`crate::dist::Registry`] so every process
    /// can re-assemble it locally.
    Dist(crate::dist::DistSpec),
}

impl BackendSpec {
    /// Parallel backend with `workers` threads and default tuning.
    #[must_use]
    pub fn par(workers: usize) -> Self {
        BackendSpec::Par {
            workers,
            tuning: crate::par::ParTuning::default(),
        }
    }

    /// Does the backend run time-warp speculation? Assemblies that inject
    /// seal gates pick the speculative variant from this. Only par can.
    #[must_use]
    pub fn speculation(&self) -> bool {
        match self {
            BackendSpec::Par { tuning, .. } => tuning.speculation,
            BackendSpec::Sim | BackendSpec::Dist(_) => false,
        }
    }

    /// Short human-readable backend name (`sim` / `par` / `dist`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Sim => "sim",
            BackendSpec::Par { .. } => "par",
            BackendSpec::Dist(_) => "dist",
        }
    }
}

/// Why [`build_local`] could not turn a [`BackendSpec`] into an in-process
/// executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendError {
    /// The `Par` spec is invalid (zero workers or batch size).
    Par(ParConfigError),
    /// A `Dist` spec has no in-process executor: assembly closures cannot
    /// cross a process boundary, so distributed runs name a deterministic
    /// assembly function in a [`crate::dist::Registry`] and go through
    /// [`crate::dist::run_dist`].
    Dist,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Par(e) => write!(f, "invalid parallel configuration: {e}"),
            BackendError::Dist => f.write_str(
                "a dist backend cannot run an in-process assembly; register it in \
                 blazes_dataflow::dist::Registry and run it with blazes_dataflow::dist::run_dist",
            ),
        }
    }
}

impl std::error::Error for BackendError {}

/// An in-process executor built by [`build_local`], ready to run once.
pub enum LocalExecutor {
    /// The discrete-event simulator.
    Sim(Simulator),
    /// The multi-worker parallel executor.
    Par(ParExecutor),
}

impl LocalExecutor {
    /// Execute to quiescence and return the backend-tagged statistics.
    ///
    /// # Panics
    /// Re-raises component panics.
    #[must_use]
    pub fn run(self) -> BackendRunStats {
        match self {
            LocalExecutor::Sim(mut sim) => BackendRunStats::Sim(sim.run()),
            LocalExecutor::Par(par) => BackendRunStats::Par(par.run()),
        }
    }
}

/// Build the in-process executor `backend` selects, seeded with `seed`,
/// from the [`Topology`] `assemble` records. This is the one place a
/// [`BackendSpec`] is turned into a [`Simulator`] or a [`ParExecutor`];
/// returns the executor plus whatever the assembly produced (sinks,
/// instance ids, rewrite accounting).
///
/// # Errors
/// [`BackendError::Par`] for an invalid parallel configuration,
/// [`BackendError::Dist`] for a distributed spec.
pub fn build_local<T>(
    backend: &BackendSpec,
    seed: u64,
    assemble: impl FnOnce(&mut dyn ExecutorBuilder) -> T,
) -> Result<(LocalExecutor, T), BackendError> {
    match backend {
        BackendSpec::Sim => {
            let mut topology = Topology::new();
            let out = assemble(&mut topology);
            Ok((LocalExecutor::Sim(Simulator::new(topology, seed)), out))
        }
        BackendSpec::Par { workers, tuning } => {
            let mut b = ParBuilder::new(seed)
                .with_workers(*workers)
                .with_tuning(*tuning)
                .map_err(BackendError::Par)?;
            let out = assemble(&mut b);
            Ok((LocalExecutor::Par(b.build()), out))
        }
        BackendSpec::Dist(_) => Err(BackendError::Dist),
    }
}

/// Run statistics tagged by the backend that produced them. The variants
/// wrap the per-backend stats structs unchanged so no fidelity is lost;
/// the accessors cover callers that only care about one substrate.
#[derive(Debug, Clone)]
pub enum BackendRunStats {
    /// Simulator statistics.
    Sim(crate::metrics::RunStats),
    /// Parallel-executor statistics.
    Par(crate::par::ParStats),
    /// Distributed-executor statistics.
    Dist(crate::dist::DistStats),
}

impl BackendRunStats {
    /// Simulator stats, if this run used the simulator.
    #[must_use]
    pub fn as_sim(&self) -> Option<&crate::metrics::RunStats> {
        match self {
            BackendRunStats::Sim(s) => Some(s),
            _ => None,
        }
    }

    /// Parallel-executor stats, if this run used the parallel backend.
    #[must_use]
    pub fn as_par(&self) -> Option<&crate::par::ParStats> {
        match self {
            BackendRunStats::Par(s) => Some(s),
            _ => None,
        }
    }

    /// Distributed-executor stats, if this run used the distributed backend.
    #[must_use]
    pub fn as_dist(&self) -> Option<&crate::dist::DistStats> {
        match self {
            BackendRunStats::Dist(s) => Some(s),
            _ => None,
        }
    }

    /// Total data messages delivered to component inputs, whatever the
    /// backend counted them as.
    #[must_use]
    pub fn messages_delivered(&self) -> u64 {
        match self {
            BackendRunStats::Sim(s) => s.messages_delivered,
            BackendRunStats::Par(s) => s.messages_delivered,
            BackendRunStats::Dist(s) => s.messages_delivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Context, FnComponent};
    use crate::sinks::CollectorSink;
    use crate::value::Value;

    fn tagger(tag: i64) -> Box<dyn Component> {
        Box::new(FnComponent::new(
            format!("tagger[{tag}]"),
            move |_, msg: Message, ctx: &mut Context| {
                if let Some(t) = msg.as_data() {
                    let v = t.get(0).and_then(Value::as_int).unwrap_or(0);
                    ctx.emit(0, Message::data([v + tag]));
                } else {
                    ctx.emit(0, msg);
                }
            },
        ))
    }

    /// A pass that interposes one `+1000` tagger in front of the instance
    /// named `"target"`: every wire into it and every injection addressed
    /// to it go through the tagger instead.
    struct TagTarget;

    impl RewritePass for TagTarget {
        fn rewrite(&mut self, t: &mut Topology) -> RewriteStats {
            let Some(target) = t.instance_names().position(|n| n == "target") else {
                return RewriteStats::default();
            };
            let target = InstanceId(target);
            let gate = t.add_instance(tagger(1_000));
            let mut stats = RewriteStats {
                injected_operators: 1,
                rewritten_wires: 0,
            };
            for w in t.take_wires() {
                if w.to == target {
                    t.connect(w.from, w.out_port, gate, PortId(0), w.channel);
                    stats.rewritten_wires += 1;
                } else {
                    t.connect(w.from, w.out_port, w.to, w.in_port, w.channel);
                }
            }
            t.connect_with(gate, PortId(0), target, PortId(0), ChannelConfig::instant());
            t.rewrite_injections(|_, (_, to, port, _)| {
                if *to == target {
                    (*to, *port) = (gate, PortId(0));
                }
                true
            });
            stats
        }
    }

    fn assemble<B: ExecutorBuilder + ?Sized>(b: &mut B, sink: CollectorSink) {
        let src = b.add_instance(Box::new(FnComponent::new(
            "src",
            |_, msg, ctx: &mut Context| ctx.emit(0, msg),
        )));
        let target = b.add_instance(Box::new(FnComponent::new(
            "target",
            |_, msg, ctx: &mut Context| ctx.emit(0, msg),
        )));
        let s = b.add_instance(Box::new(sink));
        b.connect_with(src, PortId(0), target, PortId(0), ChannelConfig::lan());
        b.connect_with(target, PortId(0), s, PortId(0), ChannelConfig::instant());
        b.inject(0, src, PortId(0), Message::data([1i64]));
        b.inject(0, target, PortId(0), Message::data([2i64]));
    }

    #[test]
    fn rewriting_builder_splices_gates_on_wires_and_injections() {
        let sink = CollectorSink::new();
        let mut topology = Topology::new();
        let mut rb = RewritingBuilder::new(&mut topology, TagTarget);
        assemble(&mut rb, sink.clone());
        assert!(topology_is_empty_until_finish(&rb));
        let (_, stats) = rb.finish();
        assert_eq!(stats.injected_operators, 1, "one shared gate");
        assert_eq!(stats.rewritten_wires, 1, "src->target rerouted");
        // The gate is appended, so the assembly's ids still hold; the
        // rerouted wire keeps its number and the delivery wire follows.
        let names: Vec<&str> = topology.instance_names().collect();
        assert_eq!(names, ["src", "target", "collector-sink", "tagger[1000]"]);
        let ends: Vec<_> = topology
            .wires()
            .iter()
            .map(|w| (w.from.0, w.to.0, w.number))
            .collect();
        assert_eq!(ends, [(0, 3, 0), (1, 2, 1), (3, 1, 2)]);
        Simulator::new(topology, 0).run();
        // Both paths into `target` went through the +1000 tagger.
        let vals: std::collections::BTreeSet<i64> = sink
            .messages()
            .iter()
            .filter_map(|m| m.as_data().and_then(|t| t.get(0)).and_then(Value::as_int))
            .collect();
        assert_eq!(vals, [1_001i64, 1_002].into_iter().collect());
    }

    /// Nothing reaches the wrapped builder before `finish`.
    fn topology_is_empty_until_finish<P: RewritePass>(
        rb: &RewritingBuilder<'_, Topology, P>,
    ) -> bool {
        rb.inner.instance_names().len() == 0 && rb.inner.wires().is_empty()
    }

    #[test]
    fn build_local_runs_one_assembly_on_either_backend_and_types_its_errors() {
        let run = |backend: &BackendSpec| {
            let sink = CollectorSink::new();
            let (exec, ()) =
                build_local(backend, 3, |b| assemble(b, sink.clone())).expect("local backend");
            let stats = exec.run();
            (stats.messages_delivered(), sink.message_set())
        };
        assert_eq!(run(&BackendSpec::Sim), run(&BackendSpec::par(2)));
        let err = |backend: &BackendSpec| build_local(backend, 0, |_| ()).err();
        assert_eq!(
            err(&BackendSpec::par(0)),
            Some(BackendError::Par(ParConfigError::ZeroWorkers))
        );
        let dist = crate::dist::DistSpec::new("none", "", Vec::new());
        assert_eq!(err(&BackendSpec::Dist(dist)), Some(BackendError::Dist));
    }

    /// The identity pass hands over the same topology, wire for wire, as
    /// the assembly records on its own — checked on the values before
    /// either runs — and the runs deliver the same messages, whether the
    /// recording moves into a `Topology` or into a `ParBuilder`.
    #[test]
    fn noop_pass_is_invisible() {
        let direct = CollectorSink::new();
        let mut plain = Topology::new();
        assemble(&mut plain, direct.clone());

        let wrapped = CollectorSink::new();
        let mut rewritten = Topology::new();
        let mut rb = RewritingBuilder::new(&mut rewritten, NoopPass);
        assemble(&mut rb, wrapped.clone());
        let (_, stats) = rb.finish();
        assert!(stats.is_untouched());
        assert_eq!(rewritten.wires().len(), 2);
        assert_eq!(plain, rewritten);

        Simulator::new(plain, 3).run();
        Simulator::new(rewritten, 3).run();
        assert_eq!(direct.messages(), wrapped.messages());

        let par_run = |through_pass: bool| {
            let sink = CollectorSink::new();
            let mut par = ParBuilder::new(3).with_workers(1);
            if through_pass {
                let mut rb = RewritingBuilder::new(&mut par, NoopPass);
                assemble(&mut rb, sink.clone());
                assert!(rb.finish().1.is_untouched());
            } else {
                assemble(&mut par, sink.clone());
            }
            let stats = par.build().run();
            (stats.messages_delivered, sink.message_set())
        };
        let (delivered, messages) = par_run(true);
        assert_eq!((delivered, messages.clone()), par_run(false));
        assert_eq!(messages, direct.message_set());
    }

    #[test]
    #[should_panic(expected = "already holds a recording")]
    fn a_recording_is_handed_only_to_an_empty_topology() {
        let mut topology = Topology::new();
        assemble(&mut topology, CollectorSink::new());
        let mut rb = RewritingBuilder::new(&mut topology, NoopPass);
        assemble(&mut rb, CollectorSink::new());
        let _ = rb.finish();
    }

    /// Equality sees every part of a recording: one more injection, a
    /// different service time or a rewired port tells two topologies
    /// apart.
    #[test]
    fn recordings_differ_where_their_assemblies_do() {
        let record = |tweak: &dyn Fn(&mut Topology)| {
            let mut t = Topology::new();
            assemble(&mut t, CollectorSink::new());
            tweak(&mut t);
            t
        };
        let base = record(&|_| {});
        assert_eq!(base, record(&|_| {}));
        let tweaks: [&dyn Fn(&mut Topology); 3] = [
            &|t| t.inject(0, InstanceId(0), PortId(0), Message::Eos),
            &|t| t.set_service_time(InstanceId(1), 5),
            &|t| {
                t.connect(
                    InstanceId(0),
                    PortId(1),
                    InstanceId(2),
                    PortId(0),
                    ChannelId(0),
                )
            },
        ];
        for tweak in tweaks {
            assert_ne!(base, record(tweak));
        }
    }
}
