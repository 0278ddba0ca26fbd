//! The backend abstraction shared by the execution substrates.
//!
//! Higher layers (the mini Storm engine, the case studies) assemble a
//! topology by calling the same five operations whatever the backend:
//! adding instances, registering channels, wiring ports, setting service
//! times and injecting external inputs. [`ExecutorBuilder`] captures that
//! surface so a topology can be compiled once and executed either on the
//! deterministic discrete-event simulator ([`crate::sim::SimBuilder`]) or
//! on the multi-worker parallel executor ([`crate::par::ParBuilder`]).
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
//! [`RewritingBuilder`] wraps any backend builder and threads every
//! assembly call through a [`RewritePass`]. The pass may interpose
//! *gate* operators on wires and redirect external injections — without
//! the assembling code knowing the topology was transformed. This is the
//! mechanism `blazes-autocoord` uses to inject the coordination a
//! [`blazes-core`](../../blazes_core/index.html) analysis proved
//! necessary: because the pass sits below the shared [`ExecutorBuilder`]
//! surface, the *same* rewritten graph is what the simulator and the
//! parallel executor both run. [`RewriteStats`] records exactly what the
//! pass touched, so callers can verify the minimality claim (a confluent
//! topology must come through with zero injected operators).

use crate::channel::ChannelConfig;
use crate::component::Component;
use crate::message::Message;
use crate::par::{ParBuilder, ParConfigError, ParExecutor};
use crate::sim::{InstanceId, SimBuilder, Simulator, Time};
use std::collections::BTreeSet;
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
}

/// What a [`RewritePass`] decides for one wire about to be connected.
#[derive(Debug, Clone)]
pub enum WireAction {
    /// Wire producer → consumer as requested.
    Keep,
    /// Route the wire through `gate`: the producer connects to
    /// `gate`'s input `gate_in_port` over the originally requested
    /// channel, and `gate` output 0 is wired to the original destination
    /// over `delivery` (once per distinct `(gate, destination, port)`).
    Via {
        /// The interposed operator instance.
        gate: InstanceId,
        /// Input port of the gate receiving the redirected traffic.
        gate_in_port: PortId,
        /// Channel used from the gate to the original destination.
        delivery: ChannelConfig,
    },
    /// Do not wire the producer again — an earlier wire from the same
    /// producer port already feeds `gate`, whose broadcast covers this
    /// destination (the fan-out collapse an ordering service performs).
    /// The gate → destination wiring is still ensured.
    Absorb {
        /// The gate already fed by this producer port.
        gate: InstanceId,
        /// Channel used from the gate to the original destination.
        delivery: ChannelConfig,
    },
}

/// What a [`RewritePass`] decides for one external injection.
#[derive(Debug, Clone)]
pub enum InjectAction {
    /// Inject as requested.
    Keep,
    /// Redirect the message into `gate` instead, ensuring `gate` output 0
    /// is wired to the original destination over `delivery`.
    Via {
        /// The interposed operator instance.
        gate: InstanceId,
        /// Input port of the gate receiving the redirected message.
        gate_in_port: PortId,
        /// Channel used from the gate to the original destination.
        delivery: ChannelConfig,
    },
    /// Drop the message — an identical copy was already routed through
    /// `gate` (an ordering gate broadcasts, so per-destination copies of
    /// one logical message collapse to a single send). The gate →
    /// destination wiring is still ensured so the broadcast reaches this
    /// destination.
    Absorb {
        /// The gate that already carries the message.
        gate: InstanceId,
        /// Channel used from the gate to the original destination.
        delivery: ChannelConfig,
    },
}

/// Allocator handed to a [`RewritePass`] for creating gate instances on
/// the underlying backend: `(component, service_time) -> id`.
pub type GateAlloc<'a> = dyn FnMut(Box<dyn Component>, Time) -> InstanceId + 'a;

/// A topology transformation applied during assembly by
/// [`RewritingBuilder`]. Implementations decide, per wire and per
/// injection, whether traffic should flow through an interposed operator.
pub trait RewritePass {
    /// Observe an instance being added (after the backend assigned `id`).
    /// Passes typically match `name` against the components a
    /// coordination spec flags.
    fn observe_instance(&mut self, _id: InstanceId, _name: &str) {}

    /// Decide the fate of one wire. `alloc` creates gate instances on the
    /// wrapped backend.
    fn rewrite_wire(
        &mut self,
        _from: InstanceId,
        _out_port: PortId,
        _to: InstanceId,
        _in_port: PortId,
        _alloc: &mut GateAlloc<'_>,
    ) -> WireAction {
        WireAction::Keep
    }

    /// Decide the fate of one external injection.
    fn rewrite_injection(
        &mut self,
        _at: Time,
        _to: InstanceId,
        _port: PortId,
        _msg: &Message,
        _alloc: &mut GateAlloc<'_>,
    ) -> InjectAction {
        InjectAction::Keep
    }
}

/// The identity pass: rewrites nothing. Lets callers run the rewrite
/// plumbing unconditionally and read zeroed [`RewriteStats`] as the
/// *proof* that a topology needed no coordination.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopPass;

impl RewritePass for NoopPass {}

/// Accounting of what a rewrite pass did to a topology — the overhead
/// ledger of the "minimal coordination" claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Gate operator instances the pass allocated.
    pub injected_operators: usize,
    /// Wires re-routed through a gate.
    pub rewritten_wires: usize,
    /// Wires absorbed into a gate's broadcast (fan-out collapse).
    pub absorbed_wires: usize,
    /// External injections redirected into a gate.
    pub redirected_injections: usize,
    /// External injections absorbed as broadcast duplicates.
    pub absorbed_injections: usize,
}

impl RewriteStats {
    /// Did the pass leave the topology untouched?
    #[must_use]
    pub fn is_untouched(&self) -> bool {
        *self == RewriteStats::default()
    }
}

/// An [`ExecutorBuilder`] that applies a [`RewritePass`] to every wire and
/// injection before forwarding to the wrapped backend builder. Works
/// identically over [`SimBuilder`] and [`crate::par::ParBuilder`] — the
/// point of doing the rewrite at this layer.
pub struct RewritingBuilder<'a, B: ExecutorBuilder + ?Sized, P: RewritePass> {
    inner: &'a mut B,
    pass: P,
    stats: RewriteStats,
    /// `(gate, dst, dst_port)` triples already wired gate→destination.
    gate_wires: BTreeSet<(InstanceId, InstanceId, PortId)>,
}

impl<'a, B: ExecutorBuilder + ?Sized, P: RewritePass> RewritingBuilder<'a, B, P> {
    /// Wrap `inner`, threading assembly through `pass`.
    pub fn new(inner: &'a mut B, pass: P) -> Self {
        RewritingBuilder {
            inner,
            pass,
            stats: RewriteStats::default(),
            gate_wires: BTreeSet::new(),
        }
    }

    /// Finish assembly: recover the pass and the accounting.
    #[must_use]
    pub fn finish(self) -> (P, RewriteStats) {
        (self.pass, self.stats)
    }

    /// Accounting so far.
    #[must_use]
    pub fn stats(&self) -> RewriteStats {
        self.stats
    }

    /// Wire `gate` output 0 to `(to, in_port)` over `delivery`, once.
    fn ensure_gate_wire(
        &mut self,
        gate: InstanceId,
        to: InstanceId,
        in_port: PortId,
        delivery: &ChannelConfig,
    ) {
        if self.gate_wires.insert((gate, to, in_port)) {
            self.inner
                .connect_with(gate, PortId(0), to, in_port, delivery.clone());
        }
    }
}

impl<B: ExecutorBuilder + ?Sized, P: RewritePass> ExecutorBuilder for RewritingBuilder<'_, B, P> {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        let name = component.name().to_string();
        let id = self.inner.add_instance(component);
        self.pass.observe_instance(id, &name);
        id
    }

    fn set_service_time(&mut self, id: InstanceId, service: Time) {
        self.inner.set_service_time(id, service);
    }

    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        self.inner.add_channel(cfg)
    }

    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        let inner = &mut *self.inner;
        let mut allocated = 0usize;
        let mut alloc = |c: Box<dyn Component>, st: Time| {
            let id = inner.add_instance(c);
            inner.set_service_time(id, st);
            allocated += 1;
            id
        };
        let action = self
            .pass
            .rewrite_wire(from, out_port, to, in_port, &mut alloc);
        self.stats.injected_operators += allocated;
        match action {
            WireAction::Keep => self.inner.connect(from, out_port, to, in_port, channel),
            WireAction::Via {
                gate,
                gate_in_port,
                delivery,
            } => {
                self.stats.rewritten_wires += 1;
                self.inner
                    .connect(from, out_port, gate, gate_in_port, channel);
                self.ensure_gate_wire(gate, to, in_port, &delivery);
            }
            WireAction::Absorb { gate, delivery } => {
                self.stats.absorbed_wires += 1;
                self.ensure_gate_wire(gate, to, in_port, &delivery);
            }
        }
    }

    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        let inner = &mut *self.inner;
        let mut allocated = 0usize;
        let mut alloc = |c: Box<dyn Component>, st: Time| {
            let id = inner.add_instance(c);
            inner.set_service_time(id, st);
            allocated += 1;
            id
        };
        let action = self.pass.rewrite_injection(at, to, port, &msg, &mut alloc);
        self.stats.injected_operators += allocated;
        match action {
            InjectAction::Keep => self.inner.inject(at, to, port, msg),
            InjectAction::Via {
                gate,
                gate_in_port,
                delivery,
            } => {
                self.stats.redirected_injections += 1;
                self.ensure_gate_wire(gate, to, port, &delivery);
                self.inner.inject(at, gate, gate_in_port, msg);
            }
            InjectAction::Absorb { gate, delivery } => {
                self.stats.absorbed_injections += 1;
                self.ensure_gate_wire(gate, to, port, &delivery);
            }
        }
    }
}

impl ExecutorBuilder for SimBuilder {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        SimBuilder::add_instance(self, component)
    }

    fn set_service_time(&mut self, id: InstanceId, service: Time) {
        SimBuilder::set_service_time(self, id, service);
    }

    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        SimBuilder::add_channel(self, cfg)
    }

    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        SimBuilder::connect(self, from, out_port, to, in_port, channel);
    }

    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        SimBuilder::inject(self, at, to, port, msg);
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
    /// The deterministic discrete-event simulator ([`crate::sim::SimBuilder`]).
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
/// and run `assemble` against its builder. This is the one place a
/// [`BackendSpec`] is turned into a [`SimBuilder`] or [`ParBuilder`];
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
            let mut b = SimBuilder::new(seed);
            let out = assemble(&mut b);
            Ok((LocalExecutor::Sim(b.build()), out))
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

    /// A pass that interposes a `+1000` tagger on every wire into the
    /// instance named `"target"`, and redirects injections likewise.
    #[derive(Default)]
    struct TagTarget {
        target: Option<InstanceId>,
        gate: Option<InstanceId>,
    }

    impl TagTarget {
        fn gate(&mut self, alloc: &mut GateAlloc<'_>) -> InstanceId {
            *self.gate.get_or_insert_with(|| alloc(tagger(1_000), 0))
        }
    }

    impl RewritePass for TagTarget {
        fn observe_instance(&mut self, id: InstanceId, name: &str) {
            if name == "target" {
                self.target = Some(id);
            }
        }

        fn rewrite_wire(
            &mut self,
            _from: InstanceId,
            _out_port: PortId,
            to: InstanceId,
            _in_port: PortId,
            alloc: &mut GateAlloc<'_>,
        ) -> WireAction {
            if Some(to) == self.target {
                WireAction::Via {
                    gate: self.gate(alloc),
                    gate_in_port: PortId(0),
                    delivery: ChannelConfig::instant(),
                }
            } else {
                WireAction::Keep
            }
        }

        fn rewrite_injection(
            &mut self,
            _at: Time,
            to: InstanceId,
            _port: PortId,
            _msg: &Message,
            alloc: &mut GateAlloc<'_>,
        ) -> InjectAction {
            if Some(to) == self.target {
                InjectAction::Via {
                    gate: self.gate(alloc),
                    gate_in_port: PortId(0),
                    delivery: ChannelConfig::instant(),
                }
            } else {
                InjectAction::Keep
            }
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
        let mut sim = SimBuilder::new(0);
        let mut rb = RewritingBuilder::new(&mut sim, TagTarget::default());
        assemble(&mut rb, sink.clone());
        let (_, stats) = rb.finish();
        assert_eq!(stats.injected_operators, 1, "one shared gate");
        assert_eq!(stats.rewritten_wires, 1, "src->target rerouted");
        assert_eq!(stats.redirected_injections, 1, "direct injection rerouted");
        sim.build().run();
        // Both paths into `target` went through the +1000 tagger.
        let vals: std::collections::BTreeSet<i64> = sink
            .messages()
            .iter()
            .filter_map(|m| m.as_data().and_then(|t| t.get(0)).and_then(Value::as_int))
            .collect();
        assert_eq!(vals, [1_001i64, 1_002].into_iter().collect());
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

    #[test]
    fn noop_pass_is_invisible() {
        let direct = CollectorSink::new();
        let mut sim = SimBuilder::new(3);
        assemble(&mut sim, direct.clone());
        sim.build().run();

        let wrapped = CollectorSink::new();
        let mut sim2 = SimBuilder::new(3);
        let mut rb = RewritingBuilder::new(&mut sim2, NoopPass);
        assemble(&mut rb, wrapped.clone());
        let (_, stats) = rb.finish();
        assert!(stats.is_untouched());
        sim2.build().run();
        assert_eq!(direct.messages(), wrapped.messages());
    }

    #[test]
    fn absorb_drops_the_message_but_wires_the_gate() {
        /// Absorb every injection to `target` after the first.
        #[derive(Default)]
        struct AbsorbDups {
            target: Option<InstanceId>,
            gate: Option<InstanceId>,
            seen: usize,
        }
        impl RewritePass for AbsorbDups {
            fn observe_instance(&mut self, id: InstanceId, name: &str) {
                if name == "target" {
                    self.target = Some(id);
                }
            }
            fn rewrite_injection(
                &mut self,
                _at: Time,
                to: InstanceId,
                _port: PortId,
                _msg: &Message,
                alloc: &mut GateAlloc<'_>,
            ) -> InjectAction {
                if Some(to) != self.target {
                    return InjectAction::Keep;
                }
                let gate = *self.gate.get_or_insert_with(|| alloc(tagger(0), 0));
                self.seen += 1;
                if self.seen == 1 {
                    InjectAction::Via {
                        gate,
                        gate_in_port: PortId(0),
                        delivery: ChannelConfig::instant(),
                    }
                } else {
                    InjectAction::Absorb {
                        gate,
                        delivery: ChannelConfig::instant(),
                    }
                }
            }
        }

        let sink = CollectorSink::new();
        let mut sim = SimBuilder::new(0);
        let mut rb = RewritingBuilder::new(&mut sim, AbsorbDups::default());
        let target = rb.add_instance(Box::new(FnComponent::new(
            "target",
            |_, msg, ctx: &mut Context| ctx.emit(0, msg),
        )));
        let s = rb.add_instance(Box::new(sink.clone()));
        rb.connect_with(target, PortId(0), s, PortId(0), ChannelConfig::instant());
        for _ in 0..3 {
            rb.inject(0, target, PortId(0), Message::data([7i64]));
        }
        let (_, stats) = rb.finish();
        assert_eq!(stats.redirected_injections, 1);
        assert_eq!(stats.absorbed_injections, 2);
        sim.build().run();
        assert_eq!(sink.len(), 1, "duplicates collapsed to one delivery");
    }
}
