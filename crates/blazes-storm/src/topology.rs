//! Topology construction and execution.
//!
//! [`TopologyBuilder`] assembles spouts, bolts and sinks into a simulated
//! Storm cluster:
//!
//! ```
//! use blazes_storm::prelude_for_tests::*;
//!
//! let mut t = TopologyBuilder::new("demo", 42);
//! let spout = t.add_spout("tweets", 1);
//! t.spout_schedule(spout, 0, vec![
//!     (0, Message::data(["hello", "0"])),
//!     (10, batch_seal(0)),
//! ]);
//! let sink = CollectorSink::new();
//! let bolt = t.add_bolt("echo", 1, || Box::new(IdentityBolt), vec![(spout, Grouping::Shuffle)]);
//! t.add_collector_sink("out", sink.clone(), bolt);
//! let mut run = t.build_on(&BackendSpec::Sim);
//! run.run();
//! assert_eq!(sink.messages().iter().filter(|m| m.as_data().is_some()).count(), 1);
//! ```

use crate::bolt::{Bolt, IdentityBolt};
use crate::grouping::Grouping;
use crate::runtime::{
    BatchHandling, BoltAdapter, Downstream, GatedSpout, BATCH_ATTR, INJECTED_PRODUCER, PORT_GRANT,
    PORT_UPSTREAM,
};
use blazes_coord::registry::ProducerId;
use blazes_coord::CommitCoordinator;
use blazes_core::placement::{CoordDirective, CoordinationSpec};
use blazes_dataflow::backend::{
    build_local, BackendError, BackendRunStats, BackendSpec, ExecutorBuilder, LocalExecutor,
    NoopPass, PortId, RewriteStats, RewritingBuilder,
};
use blazes_dataflow::channel::ChannelConfig;
use blazes_dataflow::component::Component;
use blazes_dataflow::message::Message;
use blazes_dataflow::sim::{InstanceId, Time};
use std::error::Error;
use std::fmt;

/// Handle to a topology node (spout, bolt or sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeHandle(pub usize);

/// Transactional-coordination parameters (the simulated Zookeeper).
#[derive(Debug, Clone)]
pub struct TransactionalConfig {
    /// Coordinator service time per readiness/grant message (the cost of a
    /// Zookeeper write).
    pub service_time: Time,
    /// Channel between committers and the coordinator.
    pub channel: ChannelConfig,
    /// First batch id the coordinator will grant.
    pub first_batch: i64,
    /// Maximum batches in flight: spouts hold batch `b + max_pending` until
    /// batch `b` commits (Storm's transactional spout window). `0` disables
    /// spout gating (commits still serialize, but emission is open-loop).
    pub max_pending: usize,
}

impl Default for TransactionalConfig {
    fn default() -> Self {
        TransactionalConfig {
            service_time: 2_000,
            channel: ChannelConfig::lan(),
            first_batch: 0,
            max_pending: 1,
        }
    }
}

enum NodeKind {
    Spout {
        schedules: Vec<Vec<(Time, Message)>>,
    },
    Bolt {
        factory: Box<dyn FnMut(usize) -> Box<dyn Bolt>>,
        transactional: bool,
    },
    Sink {
        component: Option<Box<dyn Component>>,
    },
}

struct NodeSpec {
    name: String,
    parallelism: usize,
    kind: NodeKind,
    subs: Vec<(usize, Grouping, ChannelConfig)>,
    service_time: Time,
}

/// A description of the topology structure, used by the grey-box adapter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyDescription {
    /// Topology name.
    pub name: String,
    /// One entry per node.
    pub nodes: Vec<NodeDescription>,
}

/// Structure of one node for the grey-box adapter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDescription {
    /// Node name.
    pub name: String,
    /// Parallelism (instance count).
    pub parallelism: usize,
    /// `"spout"`, `"bolt"` or `"sink"`.
    pub kind: &'static str,
    /// Indices of subscribed source nodes.
    pub sources: Vec<usize>,
}

/// Why a [`CoordinationSpec`] could not be applied to this topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordinationError {
    /// A directive names a component that is not a topology node.
    UnknownComponent(String),
    /// A directive targets a node that is not a bolt.
    NotABolt(String),
    /// A seal directive uses a key the engine's punctuation protocol does
    /// not speak (bolts track completion on the `batch` attribute).
    UnsupportedSealKey {
        /// The flagged component.
        component: String,
        /// The rejected key, rendered.
        key: String,
    },
    /// The spec applied, but the backend could not be built: an invalid
    /// `Par` configuration, or a `Dist` spec (a `TopologyBuilder` holds
    /// component closures that cannot cross a process boundary, so
    /// distributed runs name a registry entry that calls
    /// [`TopologyBuilder::assemble`] in every process instead).
    Backend(BackendError),
}

impl fmt::Display for CoordinationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinationError::UnknownComponent(name) => {
                write!(f, "coordination directive names unknown component {name:?}")
            }
            CoordinationError::NotABolt(name) => {
                write!(f, "coordination directive targets non-bolt node {name:?}")
            }
            CoordinationError::UnsupportedSealKey { component, key } => write!(
                f,
                "seal directive at {component:?} keyed {{{key}}} — engine punctuations seal on \
                 `{BATCH_ATTR}`"
            ),
            CoordinationError::Backend(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CoordinationError {}

/// What [`TopologyBuilder::apply_coordination`] did — the storm-side
/// overhead ledger of the annotate→analyze→inject pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordinationOutcome {
    /// Bolts made transactional to satisfy `Order` directives (the
    /// engine-native static ordering service: readiness/grant rounds
    /// through a [`CommitCoordinator`]).
    pub ordered: Vec<String>,
    /// `(component, input)` pairs whose `Seal` directives are satisfied by
    /// the punctuation protocol every [`BoltAdapter`] already runs — no
    /// operator injected, which is the "minimal" in minimal coordination.
    pub seal_native: Vec<(String, String)>,
    /// Accounting of the graph-rewrite pass the build ran through. For
    /// engine-native coordination this must read untouched.
    pub rewrite: RewriteStats,
}

impl CoordinationOutcome {
    /// Did the spec require injecting nothing at all?
    #[must_use]
    pub fn is_rewrite_free(&self) -> bool {
        self.ordered.is_empty() && self.rewrite.is_untouched()
    }
}

/// Builder for a simulated Storm topology.
pub struct TopologyBuilder {
    name: String,
    seed: u64,
    nodes: Vec<NodeSpec>,
    default_channel: ChannelConfig,
    transactional: Option<TransactionalConfig>,
}

impl TopologyBuilder {
    /// Start a topology with the given simulation seed.
    #[must_use]
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        TopologyBuilder {
            name: name.into(),
            seed,
            nodes: Vec::new(),
            default_channel: ChannelConfig::lan(),
            transactional: None,
        }
    }

    /// Override the default channel used by subscriptions.
    pub fn set_default_channel(&mut self, cfg: ChannelConfig) {
        self.default_channel = cfg;
    }

    /// Add a spout with `parallelism` instances (schedule them with
    /// [`TopologyBuilder::spout_schedule`]).
    pub fn add_spout(&mut self, name: impl Into<String>, parallelism: usize) -> NodeHandle {
        assert!(parallelism > 0);
        let h = NodeHandle(self.nodes.len());
        self.nodes.push(NodeSpec {
            name: name.into(),
            parallelism,
            kind: NodeKind::Spout {
                schedules: vec![Vec::new(); parallelism],
            },
            subs: Vec::new(),
            service_time: 0,
        });
        h
    }

    /// Set the injection schedule of one spout instance: `(time, message)`
    /// pairs. Use [`crate::runtime::batch_seal`] to close batches.
    pub fn spout_schedule(
        &mut self,
        spout: NodeHandle,
        instance: usize,
        schedule: Vec<(Time, Message)>,
    ) {
        match &mut self.nodes[spout.0].kind {
            NodeKind::Spout { schedules } => schedules[instance] = schedule,
            _ => panic!("node {:?} is not a spout", self.nodes[spout.0].name),
        }
    }

    /// Add a bolt; `factory` builds one `Bolt` per instance.
    pub fn add_bolt<F>(
        &mut self,
        name: impl Into<String>,
        parallelism: usize,
        mut factory: F,
        subs: Vec<(NodeHandle, Grouping)>,
    ) -> NodeHandle
    where
        F: FnMut() -> Box<dyn Bolt> + 'static,
    {
        assert!(parallelism > 0);
        let h = NodeHandle(self.nodes.len());
        let channel = self.default_channel.clone();
        self.nodes.push(NodeSpec {
            name: name.into(),
            parallelism,
            kind: NodeKind::Bolt {
                factory: Box::new(move |_| factory()),
                transactional: false,
            },
            subs: subs
                .into_iter()
                .map(|(src, g)| (src.0, g, channel.clone()))
                .collect(),
            service_time: 0,
        });
        h
    }

    /// Add a sink node hosting an arbitrary dataflow component (e.g. a
    /// `CollectorSink` or `CountingSink` clone).
    pub fn add_sink(
        &mut self,
        name: impl Into<String>,
        component: Box<dyn Component>,
        source: NodeHandle,
    ) -> NodeHandle {
        let h = NodeHandle(self.nodes.len());
        let channel = self.default_channel.clone();
        self.nodes.push(NodeSpec {
            name: name.into(),
            parallelism: 1,
            kind: NodeKind::Sink {
                component: Some(component),
            },
            subs: vec![(source.0, Grouping::Global, channel)],
            service_time: 0,
        });
        h
    }

    /// Convenience: add a `CollectorSink` clone as a sink node.
    pub fn add_collector_sink(
        &mut self,
        name: impl Into<String>,
        sink: blazes_dataflow::sinks::CollectorSink,
        source: NodeHandle,
    ) -> NodeHandle {
        self.add_sink(name, Box::new(sink), source)
    }

    /// Set the per-message service time of every instance of a node.
    pub fn set_service_time(&mut self, node: NodeHandle, service: Time) {
        self.nodes[node.0].service_time = service;
    }

    /// Make `node` a transactional committer: its batches commit in strict
    /// batch order through a simulated coordination service.
    pub fn make_transactional(&mut self, node: NodeHandle, cfg: TransactionalConfig) {
        match &mut self.nodes[node.0].kind {
            NodeKind::Bolt { transactional, .. } => *transactional = true,
            _ => panic!("only bolts can be transactional"),
        }
        self.transactional = Some(cfg);
    }

    /// Apply an analysis-derived [`CoordinationSpec`] to this topology,
    /// mapping each directive onto the engine-native mechanism:
    ///
    /// * [`CoordDirective::Order`] — the named bolt becomes transactional:
    ///   its batches commit in one total order through the simulated
    ///   coordination service configured by `ordering` (paper
    ///   Section V-B2, Storm's "transactional topology").
    /// * [`CoordDirective::Seal`] — verified against the engine's native
    ///   punctuation protocol: every [`BoltAdapter`] already buffers
    ///   batches and releases them on a unanimous per-producer seal vote,
    ///   so nothing is injected (the directive's key must be the engine's
    ///   `batch` attribute).
    ///
    /// Use [`TopologyBuilder::build_coordinated_on`] to also run the
    /// assembly through the graph-rewrite pass and obtain the full
    /// [`CoordinationOutcome`].
    ///
    /// # Errors
    /// When a directive names an unknown node, targets a non-bolt, or
    /// seals on a key the punctuation protocol does not speak. On error
    /// the builder is left exactly as it was — validation happens before
    /// any directive is applied.
    pub fn apply_coordination(
        &mut self,
        spec: &CoordinationSpec,
        ordering: &TransactionalConfig,
    ) -> Result<CoordinationOutcome, CoordinationError> {
        // Resolve and validate every directive first, so a failure cannot
        // leave the builder half-coordinated.
        let mut resolved: Vec<(usize, &CoordDirective)> = Vec::with_capacity(spec.directives.len());
        for directive in &spec.directives {
            let name = directive.component();
            let node = self
                .nodes
                .iter()
                .position(|n| n.name == name)
                .ok_or_else(|| CoordinationError::UnknownComponent(name.to_string()))?;
            if !matches!(self.nodes[node].kind, NodeKind::Bolt { .. }) {
                return Err(CoordinationError::NotABolt(name.to_string()));
            }
            if let CoordDirective::Seal { key, .. } = directive {
                if !key.contains(BATCH_ATTR) {
                    return Err(CoordinationError::UnsupportedSealKey {
                        component: name.to_string(),
                        key: key.to_string(),
                    });
                }
            }
            resolved.push((node, directive));
        }

        let mut outcome = CoordinationOutcome::default();
        for (node, directive) in resolved {
            let name = directive.component().to_string();
            match directive {
                CoordDirective::Order { .. } => {
                    match &mut self.nodes[node].kind {
                        NodeKind::Bolt { transactional, .. } => *transactional = true,
                        _ => unreachable!("validated above"),
                    }
                    self.transactional = Some(ordering.clone());
                    outcome.ordered.push(name);
                }
                CoordDirective::Seal { input, .. } => {
                    outcome.seal_native.push((name, input.clone()));
                }
            }
        }
        Ok(outcome)
    }

    /// Apply `spec` and instantiate onto the backend selected by
    /// `backend`, assembling through the graph-rewrite pass so the
    /// outcome carries the pass accounting (zero injected operators for
    /// engine-native coordination — the proof obligation of the "minimal"
    /// claim). On the parallel executor spout schedule times become
    /// dispatch ordering keys and modeled service times do not apply
    /// (real processing costs are paid for real); only confluent or
    /// coordinated topologies are guaranteed to reproduce the simulator's
    /// final state there.
    ///
    /// # Errors
    /// See [`TopologyBuilder::apply_coordination`]; additionally
    /// [`CoordinationError::Backend`] when `backend` is an invalid `Par`
    /// spec or a `Dist` spec.
    pub fn build_coordinated_on(
        mut self,
        spec: &CoordinationSpec,
        ordering: &TransactionalConfig,
        backend: &BackendSpec,
    ) -> Result<(StormExecution, CoordinationOutcome), CoordinationError> {
        let mut outcome = self.apply_coordination(spec, ordering)?;
        let (exec, ((_, name), rewrite)) = build_local(backend, self.seed, |b| {
            let mut rb = RewritingBuilder::new(b, NoopPass);
            let built = self.assemble(&mut rb);
            (built, rb.finish().1)
        })
        .map_err(CoordinationError::Backend)?;
        outcome.rewrite = rewrite;
        let exec = StormExecution {
            exec: Some(exec),
            name,
        };
        Ok((exec, outcome))
    }

    /// Instantiate the topology as wired, with no analysis-derived
    /// coordination: [`TopologyBuilder::build_coordinated_on`] with the
    /// empty spec.
    ///
    /// # Panics
    /// Panics when `backend` is an invalid `Par` spec or a `Dist` spec
    /// (see [`CoordinationError::Backend`]).
    #[must_use]
    pub fn build_on(self, backend: &BackendSpec) -> StormExecution {
        let uncoordinated = CoordinationSpec::default();
        match self.build_coordinated_on(&uncoordinated, &TransactionalConfig::default(), backend) {
            Ok((exec, _)) => exec,
            Err(e) => panic!("{e}"),
        }
    }

    /// Structure description for the grey-box Blazes adapter.
    #[must_use]
    pub fn describe(&self) -> TopologyDescription {
        TopologyDescription {
            name: self.name.clone(),
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeDescription {
                    name: n.name.clone(),
                    parallelism: n.parallelism,
                    kind: match n.kind {
                        NodeKind::Spout { .. } => "spout",
                        NodeKind::Bolt { .. } => "bolt",
                        NodeKind::Sink { .. } => "sink",
                    },
                    sources: n.subs.iter().map(|(s, _, _)| *s).collect(),
                })
                .collect(),
        }
    }

    /// Compile the node specs onto an execution backend, returning the
    /// backend instance ids per topology node plus the topology name.
    ///
    /// Public so a [`blazes_dataflow::dist::Registry`] assembly function
    /// can compile the same topology inside every process of a
    /// distributed run (the builder itself cannot cross the byte
    /// boundary; re-running this deterministic assembly is what keeps the
    /// global instance numbering identical everywhere).
    pub fn assemble<B: ExecutorBuilder + ?Sized>(
        mut self,
        backend: &mut B,
    ) -> (Vec<Vec<InstanceId>>, String) {
        let n = self.nodes.len();
        // Downstream registration: for node i, the list of (consumer node,
        // grouping, channel).
        let mut downstreams: Vec<Vec<(usize, Grouping, ChannelConfig)>> = vec![Vec::new(); n];
        for (j, node) in self.nodes.iter().enumerate() {
            for (src, grouping, channel) in &node.subs {
                downstreams[*src].push((j, grouping.clone(), channel.clone()));
            }
        }
        let parallelism: Vec<usize> = self.nodes.iter().map(|x| x.parallelism).collect();
        // Producer ids are global: node i's k-th instance is
        // `producer_base[i] + k`.
        let producer_base: Vec<ProducerId> = parallelism
            .iter()
            .scan(0, |next, p| {
                let base = *next;
                *next += p;
                Some(base)
            })
            .collect();
        // The producers whose seals complete a batch at each node: a
        // spout's injector, otherwise every instance of every source.
        let upstream: Vec<Vec<ProducerId>> = self
            .nodes
            .iter()
            .map(|node| match node.kind {
                NodeKind::Spout { .. } => vec![INJECTED_PRODUCER],
                _ => node
                    .subs
                    .iter()
                    .flat_map(|&(src, _, _)| {
                        producer_base[src]..producer_base[src] + parallelism[src]
                    })
                    .collect(),
            })
            .collect();
        let mut instances: Vec<Vec<InstanceId>> = Vec::with_capacity(n);
        let mut injections: Vec<(Time, usize, usize, Message)> = Vec::new();
        let mut committers: Vec<(usize, usize)> = Vec::new(); // (node, coord_port)
        let mut gated_spouts: Vec<InstanceId> = Vec::new();

        for (i, node) in self.nodes.iter_mut().enumerate() {
            // Output port layout: one block per downstream subscription.
            let mut ds: Vec<Downstream> = Vec::new();
            let mut next_port = 0usize;
            for (j, grouping, _) in &downstreams[i] {
                ds.push(Downstream {
                    base_port: next_port,
                    fanout: parallelism[*j],
                    grouping: grouping.clone(),
                });
                next_port += parallelism[*j];
            }

            let mut ids = Vec::with_capacity(node.parallelism);
            let gated = self
                .transactional
                .as_ref()
                .map(|cfg| cfg.max_pending > 0)
                .unwrap_or(false);
            match &mut node.kind {
                NodeKind::Spout { schedules } if gated => {
                    // Commit-gated spouts: hold the schedule internally and
                    // pace batches by the coordinator's grants.
                    let max_pending = self
                        .transactional
                        .as_ref()
                        .expect("gated implies tx")
                        .max_pending;
                    for (k, schedule) in schedules.iter().enumerate() {
                        let spout = GatedSpout::new(
                            format!("{}[{k}]", node.name),
                            producer_base[i] + k,
                            ds.clone(),
                            GatedSpout::group_schedule(schedule),
                            max_pending,
                        );
                        let id = backend.add_instance(Box::new(spout));
                        backend.set_service_time(id, node.service_time);
                        // Kick emission at t=0.
                        injections.push((0, i, k, Message::Eos));
                        ids.push(id);
                        gated_spouts.push(id);
                    }
                }
                NodeKind::Spout { schedules } => {
                    for (k, schedule) in schedules.iter().enumerate() {
                        let adapter = BoltAdapter::new(
                            Box::new(IdentityBolt),
                            format!("{}[{k}]", node.name),
                            producer_base[i] + k,
                            k,
                            upstream[i].clone(),
                            BatchHandling::Streaming,
                            ds.clone(),
                            None,
                        );
                        let id = backend.add_instance(Box::new(adapter));
                        backend.set_service_time(id, node.service_time);
                        for (at, msg) in schedule.iter().cloned() {
                            injections.push((at, i, k, msg));
                        }
                        ids.push(id);
                    }
                }
                NodeKind::Bolt {
                    factory,
                    transactional,
                } => {
                    let mode = if *transactional {
                        BatchHandling::Transactional
                    } else {
                        BatchHandling::Streaming
                    };
                    let coord_port = if *transactional {
                        Some(next_port)
                    } else {
                        None
                    };
                    if *transactional {
                        committers.push((i, next_port));
                    }
                    for k in 0..node.parallelism {
                        let adapter = BoltAdapter::new(
                            factory(k),
                            format!("{}[{k}]", node.name),
                            producer_base[i] + k,
                            k,
                            upstream[i].clone(),
                            mode,
                            ds.clone(),
                            coord_port,
                        );
                        let id = backend.add_instance(Box::new(adapter));
                        backend.set_service_time(id, node.service_time);
                        ids.push(id);
                    }
                }
                NodeKind::Sink { component } => {
                    let comp = component.take().expect("sink component consumed twice");
                    let id = backend.add_instance(comp);
                    backend.set_service_time(id, node.service_time);
                    ids.push(id);
                }
            }
            instances.push(ids);
        }

        // Wire subscriptions.
        for i in 0..n {
            let mut next_port = 0usize;
            let ds = downstreams[i].clone();
            for (j, _, channel) in ds {
                let ch = backend.add_channel(channel);
                let fanout = instances[j].len();
                for a in 0..instances[i].len() {
                    for b in 0..fanout {
                        backend.connect(
                            instances[i][a],
                            PortId(next_port + b),
                            instances[j][b],
                            PortId(PORT_UPSTREAM),
                            ch,
                        );
                    }
                }
                next_port += fanout;
            }
        }

        // Transactional coordinator wiring.
        if let Some(cfg) = &self.transactional {
            for (node, coord_port) in &committers {
                let coord = backend.add_instance(Box::new(CommitCoordinator::new(
                    instances[*node].len(),
                    cfg.first_batch,
                )));
                backend.set_service_time(coord, cfg.service_time);
                let to_coord = backend.add_channel(cfg.channel.clone());
                let grants = backend.add_channel(ChannelConfig::ordered(cfg.channel.base_latency));
                for &inst in &instances[*node] {
                    backend.connect(
                        inst,
                        PortId(*coord_port),
                        coord,
                        PortId(PORT_UPSTREAM),
                        to_coord,
                    );
                    backend.connect(coord, PortId(0), inst, PortId(PORT_GRANT), grants);
                }
                // Gated spouts also listen for grants to advance their
                // emission window.
                for &spout in &gated_spouts {
                    backend.connect(coord, PortId(0), spout, PortId(PORT_GRANT), grants);
                }
            }
        }

        // Inject spout schedules.
        for (at, node, k, msg) in injections {
            backend.inject(at, instances[node][k], PortId(PORT_UPSTREAM), msg);
        }

        (instances, self.name)
    }
}

/// A topology instantiated onto one of the in-process backends by
/// [`TopologyBuilder::build_on`] / [`TopologyBuilder::build_coordinated_on`],
/// ready to run once.
pub struct StormExecution {
    exec: Option<LocalExecutor>,
    name: String,
}

impl StormExecution {
    /// Execute to quiescence on whichever backend this was built for and
    /// return the backend-tagged statistics.
    ///
    /// # Panics
    /// Panics when called a second time, and re-raises component panics.
    pub fn run(&mut self) -> BackendRunStats {
        self.exec
            .take()
            .expect("StormExecution::run may only be called once")
            .run()
    }

    /// Topology name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Re-exports used by the module doctest.
pub mod prelude_for_tests {
    pub use crate::bolt::IdentityBolt;
    pub use crate::grouping::Grouping;
    pub use crate::runtime::batch_seal;
    pub use crate::topology::TopologyBuilder;
    pub use blazes_dataflow::backend::BackendSpec;
    pub use blazes_dataflow::message::Message;
    pub use blazes_dataflow::sinks::CollectorSink;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bolt::{BoltContext, FnBolt};
    use crate::runtime::batch_seal;
    use blazes_dataflow::metrics::RunStats;
    use blazes_dataflow::par::ParTuning;
    use blazes_dataflow::sinks::CollectorSink;
    use blazes_dataflow::value::{Tuple, Value};

    /// A bolt that counts words per batch and emits (word, batch, count) on
    /// finish_batch.
    struct CountBolt {
        counts: std::collections::BTreeMap<(String, i64), i64>,
    }

    impl CountBolt {
        fn new() -> Self {
            CountBolt {
                counts: std::collections::BTreeMap::new(),
            }
        }
    }

    impl Bolt for CountBolt {
        fn execute(&mut self, tuple: Tuple, _ctx: &mut BoltContext) {
            let word = tuple
                .get(0)
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let batch = tuple.get(1).and_then(Value::as_int).unwrap_or(0);
            *self.counts.entry((word, batch)).or_insert(0) += 1;
        }

        fn finish_batch(&mut self, batch: i64, ctx: &mut BoltContext) {
            let keys: Vec<_> = self
                .counts
                .keys()
                .filter(|(_, b)| *b == batch)
                .cloned()
                .collect();
            for (word, b) in keys {
                let count = self.counts.remove(&(word.clone(), b)).unwrap();
                ctx.emit(Tuple::new([
                    Value::Str(word),
                    Value::Int(b),
                    Value::Int(count),
                ]));
            }
        }

        fn name(&self) -> &str {
            "count"
        }
    }

    fn word_tuple(word: &str, batch: i64) -> Message {
        Message::Data(Tuple::new([Value::str(word), Value::Int(batch)]))
    }

    /// Describe a tiny wordcount: 2 spout instances -> 2 counters (fields
    /// grouping on word) -> collector. Build with `.build_on(&backend)`.
    fn wordcount_topology(seed: u64, transactional: bool) -> (TopologyBuilder, CollectorSink) {
        let mut t = TopologyBuilder::new("wc", seed);
        let spout = t.add_spout("tweets", 2);
        for inst in 0..2usize {
            let mut sched = Vec::new();
            for b in 0..3i64 {
                for w in ["a", "b", "c"] {
                    sched.push((b as u64 * 100, word_tuple(w, b)));
                }
                sched.push((b as u64 * 100 + 50, batch_seal(b)));
            }
            t.spout_schedule(spout, inst, sched);
        }
        let count = t.add_bolt(
            "count",
            2,
            || Box::new(CountBolt::new()),
            vec![(spout, Grouping::Fields(vec![0]))],
        );
        if transactional {
            t.make_transactional(count, TransactionalConfig::default());
        }
        let sink = CollectorSink::new();
        t.add_collector_sink("store", sink.clone(), count);
        (t, sink)
    }

    /// Run the tiny wordcount on the simulator; returns its statistics
    /// and the collected outputs.
    fn wordcount_run(seed: u64, transactional: bool) -> (RunStats, CollectorSink) {
        let (t, sink) = wordcount_topology(seed, transactional);
        (sim_stats(&mut t.build_on(&BackendSpec::Sim)), sink)
    }

    fn sim_stats(run: &mut StormExecution) -> RunStats {
        run.run().as_sim().expect("sim run").clone()
    }

    fn counts_from(sink: &CollectorSink) -> std::collections::BTreeMap<(String, i64), i64> {
        sink.messages()
            .iter()
            .filter_map(Message::as_data)
            .map(|t| {
                (
                    (
                        t.get(0).and_then(Value::as_str).unwrap().to_string(),
                        t.get(1).and_then(Value::as_int).unwrap(),
                    ),
                    t.get(2).and_then(Value::as_int).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn wordcount_produces_correct_counts() {
        let (_, sink) = wordcount_run(11, false);
        let counts = counts_from(&sink);
        // 2 spout instances × 1 occurrence per word per batch = count 2.
        assert_eq!(counts.len(), 9, "3 words × 3 batches");
        assert!(counts.values().all(|&c| c == 2), "{counts:?}");
    }

    #[test]
    fn counts_identical_across_seeds() {
        // Confluent outcome: the sealed topology produces the same count
        // sets regardless of delivery interleaving.
        let (_, s1) = wordcount_run(1, false);
        let (_, s2) = wordcount_run(2, false);
        assert_eq!(counts_from(&s1), counts_from(&s2));
    }

    #[test]
    fn transactional_produces_same_outputs() {
        let (_, s1) = wordcount_run(5, false);
        let (_, s2) = wordcount_run(5, true);
        assert_eq!(counts_from(&s1), counts_from(&s2));
    }

    #[test]
    fn transactional_is_slower() {
        let (p, _s1) = wordcount_run(5, false);
        let (t, _s2) = wordcount_run(5, true);
        assert!(
            t.end_time > p.end_time,
            "transactional {} must exceed sealed {}",
            t.end_time,
            p.end_time
        );
    }

    #[test]
    fn transactional_commits_in_batch_order() {
        let (_, sink) = wordcount_run(13, true);
        let batches: Vec<i64> = sink
            .messages()
            .iter()
            .filter_map(Message::as_data)
            .filter_map(|t| t.get(1).and_then(Value::as_int))
            .collect();
        let mut max_seen = i64::MIN;
        for b in batches {
            assert!(b >= max_seen, "commit order violated");
            max_seen = max_seen.max(b);
        }
    }

    #[test]
    fn fn_bolt_pipeline() {
        let mut t = TopologyBuilder::new("pipe", 0);
        let spout = t.add_spout("src", 1);
        t.spout_schedule(
            spout,
            0,
            vec![
                (0, Message::data([1i64, 0])),
                (1, Message::data([2i64, 0])),
                (2, batch_seal(0)),
            ],
        );
        let double = t.add_bolt(
            "double",
            1,
            || {
                Box::new(FnBolt::new("double", |t: Tuple, ctx: &mut BoltContext| {
                    let v = t.get(0).and_then(Value::as_int).unwrap();
                    ctx.emit(Tuple::new([Value::Int(v * 2)]));
                }))
            },
            vec![(spout, Grouping::Shuffle)],
        );
        let sink = CollectorSink::new();
        t.add_collector_sink("out", sink.clone(), double);
        t.build_on(&BackendSpec::Sim).run();
        let vals: std::collections::BTreeSet<i64> = sink
            .messages()
            .iter()
            .filter_map(Message::as_data)
            .filter_map(|t| t.get(0).and_then(Value::as_int))
            .collect();
        assert_eq!(vals, [2i64, 4].into_iter().collect());
    }

    #[test]
    fn parallel_backend_matches_simulator_counts() {
        // The sealed wordcount is confluent: whatever interleaving the OS
        // scheduler produces, the released per-batch counts must equal the
        // simulator's.
        let (_, sim_sink) = wordcount_run(21, false);
        let (t, par_sink) = wordcount_topology(21, false);
        let stats = t.build_on(&BackendSpec::par(3)).run();
        assert!(stats.messages_delivered() > 0);
        assert_eq!(counts_from(&par_sink), counts_from(&sim_sink));
    }

    #[test]
    fn parallel_backend_seals_complete_batches() {
        // Every batch's seal must release exactly the words of that batch,
        // under the threaded executor as in the simulator.
        let (t, sink) = wordcount_topology(33, false);
        t.build_on(&BackendSpec::par(4)).run();
        let counts = counts_from(&sink);
        assert_eq!(
            counts.len(),
            9,
            "3 words × 3 batches all released: {counts:?}"
        );
        assert!(counts.values().all(|&c| c == 2), "{counts:?}");
    }

    #[test]
    fn parallel_backend_matches_under_every_tuning() {
        // The drain batch size must be invisible in the final counts of a
        // confluent topology.
        let (_, sim_sink) = wordcount_run(44, false);
        let tunings = [
            ParTuning::default(),
            ParTuning {
                batch_size: 2,
                ..ParTuning::default()
            },
        ];
        for tuning in tunings {
            let (t, par_sink) = wordcount_topology(44, false);
            let mut run = t.build_on(&BackendSpec::Par { workers: 3, tuning });
            let _ = run.run();
            assert_eq!(
                counts_from(&par_sink),
                counts_from(&sim_sink),
                "diverged under {tuning:?}"
            );
        }
    }

    /// Derive the coordination spec for the test wordcount through the
    /// grey-box adapter — the front half of annotate→analyze→inject.
    fn wordcount_spec(sealed: bool) -> CoordinationSpec {
        use crate::adapter::{dataflow_graph, TopologyAnnotations};
        use blazes_core::annotation::ComponentAnnotation;
        let (t, _) = wordcount_topology(0, false);
        let mut ann = TopologyAnnotations::new();
        ann.spout_attrs("tweets", ["word", "batch"])
            .annotate_bolt("count", ComponentAnnotation::ow(["word", "batch"]));
        if sealed {
            ann.seal_spout("tweets", ["batch"]);
        }
        let g = dataflow_graph(&t.describe(), &ann).expect("well-formed");
        CoordinationSpec::derive(&g, false).expect("analyzable")
    }

    #[test]
    fn sealed_spec_builds_rewrite_free_and_matches_baseline() {
        let spec = wordcount_spec(true);
        assert_eq!(spec.len(), 1, "one seal directive: {spec:?}");
        let (_, base_sink) = wordcount_run(31, false);
        let (t, sink) = wordcount_topology(31, false);
        let (mut run, outcome) = t
            .build_coordinated_on(&spec, &TransactionalConfig::default(), &BackendSpec::Sim)
            .expect("spec applies");
        assert!(outcome.is_rewrite_free(), "{outcome:?}");
        assert_eq!(outcome.seal_native.len(), 1);
        assert_eq!(outcome.rewrite.injected_operators, 0);
        run.run();
        assert_eq!(counts_from(&sink), counts_from(&base_sink));
    }

    #[test]
    fn order_spec_makes_the_bolt_transactional() {
        let spec = wordcount_spec(false);
        assert_eq!(spec.len(), 1, "one order directive: {spec:?}");
        let (p, plain_sink) = wordcount_run(13, false);

        let (t, sink) = wordcount_topology(13, false);
        let (mut run, outcome) = t
            .build_coordinated_on(&spec, &TransactionalConfig::default(), &BackendSpec::Sim)
            .expect("spec applies");
        assert_eq!(outcome.ordered, vec!["count".to_string()]);
        assert!(!outcome.is_rewrite_free());
        let stats = sim_stats(&mut run);
        // Same answers, paid for with coordination latency.
        assert_eq!(counts_from(&sink), counts_from(&plain_sink));
        assert!(
            stats.end_time > p.end_time,
            "ordering must cost virtual time: {} vs {}",
            stats.end_time,
            p.end_time
        );
    }

    #[test]
    fn coordinated_parallel_build_matches_simulator() {
        let spec = wordcount_spec(false);
        let (t, sim_sink) = wordcount_topology(23, false);
        let (mut sim_run, _) = t
            .build_coordinated_on(&spec, &TransactionalConfig::default(), &BackendSpec::Sim)
            .unwrap();
        sim_run.run();
        for workers in [1usize, 4] {
            let (t, par_sink) = wordcount_topology(23, false);
            let (mut par_run, outcome) = t
                .build_coordinated_on(
                    &spec,
                    &TransactionalConfig::default(),
                    &BackendSpec::par(workers),
                )
                .unwrap();
            assert_eq!(outcome.ordered, vec!["count".to_string()]);
            let _ = par_run.run();
            assert_eq!(
                counts_from(&par_sink),
                counts_from(&sim_sink),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn coordination_errors_are_typed() {
        use blazes_core::keys::KeySet;
        use blazes_core::placement::CoordDirective;

        let ghost = CoordinationSpec {
            directives: vec![CoordDirective::Order {
                component: "ghost".to_string(),
                inputs: vec![],
                dynamic: false,
            }],
        };
        let (mut t, _) = wordcount_topology(0, false);
        assert_eq!(
            t.apply_coordination(&ghost, &TransactionalConfig::default()),
            Err(CoordinationError::UnknownComponent("ghost".to_string()))
        );

        let bad_key = CoordinationSpec {
            directives: vec![CoordDirective::Seal {
                component: "count".to_string(),
                input: "words".to_string(),
                key: KeySet::from_attrs(["campaign"]),
            }],
        };
        let err = t
            .apply_coordination(&bad_key, &TransactionalConfig::default())
            .unwrap_err();
        assert!(matches!(err, CoordinationError::UnsupportedSealKey { .. }));
        assert!(err.to_string().contains("batch"));

        let not_bolt = CoordinationSpec {
            directives: vec![CoordDirective::Order {
                component: "tweets".to_string(),
                inputs: vec![],
                dynamic: false,
            }],
        };
        assert_eq!(
            t.apply_coordination(&not_bolt, &TransactionalConfig::default()),
            Err(CoordinationError::NotABolt("tweets".to_string()))
        );

        let no_workers = t.build_coordinated_on(
            &CoordinationSpec::default(),
            &TransactionalConfig::default(),
            &BackendSpec::par(0),
        );
        assert_eq!(
            no_workers.err(),
            Some(CoordinationError::Backend(BackendError::Par(
                blazes_dataflow::par::ParConfigError::ZeroWorkers
            )))
        );
    }

    #[test]
    fn describe_reports_structure() {
        let mut t = TopologyBuilder::new("wc", 0);
        let spout = t.add_spout("tweets", 3);
        let bolt = t.add_bolt(
            "count",
            2,
            || Box::new(IdentityBolt),
            vec![(spout, Grouping::Shuffle)],
        );
        t.add_collector_sink("store", CollectorSink::new(), bolt);
        let d = t.describe();
        assert_eq!(d.nodes.len(), 3);
        assert_eq!(d.nodes[0].kind, "spout");
        assert_eq!(d.nodes[1].sources, vec![0]);
        assert_eq!(d.nodes[2].kind, "sink");
    }
}
