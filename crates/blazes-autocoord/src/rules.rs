//! The injection pass: [`AutoCoordRules`] turns a
//! [`CoordinationSpec`] into a rewrite of one recorded [`Topology`].
//!
//! The pass recognizes flagged components by instance family (a directive
//! for component `Report` matches instances `Report`, `Report[0]`,
//! `report[3]`, … — see [`crate::lower::family`]) and
//! reroutes their inbound traffic, in one walk over the recording's wires
//! and then its injections:
//!
//! * **Seal** directives get one [`SealGate`] per `(consumer instance,
//!   input port)`, fed by every producer wire and by redirected external
//!   injections. The runtime half of the directive — who produces which
//!   partition, where the key sits in a tuple — comes from a
//!   [`SealBinding`] the application registers per component.
//! * **Order** directives get one shared [`Sequencer`] per flagged
//!   component: each producer port feeds it over one wire, and it fans
//!   out over one ordered wire per consumer instance, so all instances
//!   observe the same total order. Identical injections `(time, port,
//!   message)` addressed to the component's instances become as many
//!   sequencer sends as the largest number any one instance was sent —
//!   the broadcast delivers each to every instance.
//!
//! Gates are appended to the recording, so the assembly's instance ids
//! stay valid. The rewritten wires keep the order of the wires they
//! replace, each gate's delivery wire right after the first wire that
//! needs it (after all wires when only injections need it), and a wire's
//! number is its position in that list.

use crate::gate::{SealGate, SpeculativeSealGate};
use crate::lower::family;
use blazes_coord::registry::ProducerRegistry;
use blazes_coord::sequencer::Sequencer;
use blazes_core::placement::{CoordDirective, CoordinationSpec};
use blazes_dataflow::backend::{
    ExecutorBuilder, Injection, PortId, RewritePass, RewriteStats, Topology, Wire,
};
use blazes_dataflow::channel::ChannelConfig;
use blazes_dataflow::component::Component;
use blazes_dataflow::message::Message;
use blazes_dataflow::sim::{InstanceId, Time};
use blazes_dataflow::value::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Maps a query tuple to the partition it reads, so the gate can delay it
/// until that partition is sealed (`None` = forward immediately).
pub type QueryPartition = Arc<dyn Fn(&Tuple) -> Option<Value> + Send + Sync>;

/// Runtime binding for one Seal directive: everything the analysis cannot
/// know about the wire format.
#[derive(Clone)]
pub struct SealBinding {
    /// Who produces which partition (the unanimous-vote stakeholders).
    pub registry: ProducerRegistry,
    /// Columns of covered tuples holding the partition key values, paired
    /// positionally with the seal key's attributes in canonical (sorted)
    /// order. A single column is the common case; multi-column keys gate
    /// on the composite.
    pub key_columns: Vec<usize>,
    /// Arity distinguishing covered records from queries.
    pub covered_arity: usize,
    /// Optional query → partition mapping enabling read delay.
    pub query_partition: Option<QueryPartition>,
}

impl SealBinding {
    /// Binding with no query delay, gating on the covered tuple's
    /// `key_columns` (see [`SealBinding::key_columns`]).
    #[must_use]
    pub fn new(registry: ProducerRegistry, key_columns: Vec<usize>, covered_arity: usize) -> Self {
        SealBinding {
            registry,
            key_columns,
            covered_arity,
            query_partition: None,
        }
    }

    /// Enable read delay: queries wait for the partition `f` maps them to.
    #[must_use]
    pub fn with_query_partition(mut self, f: QueryPartition) -> Self {
        self.query_partition = Some(f);
        self
    }
}

impl std::fmt::Debug for SealBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealBinding")
            .field("key_columns", &self.key_columns)
            .field("covered_arity", &self.covered_arity)
            .field("query_partition", &self.query_partition.is_some())
            .finish_non_exhaustive()
    }
}

enum RuleKind {
    Seal {
        key_attrs: Vec<String>,
        binding: Option<SealBinding>,
    },
    Order,
}

struct Rule {
    component: String,
    kind: RuleKind,
    /// Gate instances the rewrite added for this directive.
    injected: usize,
}

/// What the pass injected, per directive — the human-readable half of the
/// overhead accounting ([`blazes_dataflow::backend::RewriteStats`] holds
/// the machine-checkable half).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionSummary {
    /// `(component, mechanism, operators injected)` per directive.
    pub per_directive: Vec<(String, &'static str, usize)>,
}

impl InjectionSummary {
    /// Render for logs.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        if self.per_directive.is_empty() {
            return "no coordination injected (confluent topology)\n".to_string();
        }
        let mut s = String::new();
        for (comp, mech, n) in &self.per_directive {
            let _ = writeln!(s, "{comp}: injected {n} {mech} operator(s)");
        }
        s
    }
}

/// The coordination-injection rewrite pass. Build from a spec, register a
/// [`SealBinding`] per Seal directive, then hand to
/// [`blazes_dataflow::backend::RewritingBuilder`].
pub struct AutoCoordRules {
    rules: Vec<Rule>,
    sequencer_service: Time,
    speculation: bool,
}

/// Latency of the ordered channels out of injected sequencers.
const ORDERED_LATENCY: Time = 1_000;

impl AutoCoordRules {
    /// Build the pass for `spec`. Seal directives with multi-attribute
    /// keys gate on the composite of all attributes in canonical order;
    /// the registered [`SealBinding`] pairs tuple columns with them via
    /// [`SealBinding::key_columns`].
    #[must_use]
    pub fn new(spec: &CoordinationSpec) -> Self {
        let rules = spec
            .directives
            .iter()
            .map(|d| {
                let (component, kind) = match d {
                    CoordDirective::Seal { component, key, .. } => (
                        component,
                        RuleKind::Seal {
                            key_attrs: key.iter().map(ToString::to_string).collect(),
                            binding: None,
                        },
                    ),
                    CoordDirective::Order { component, .. } => (component, RuleKind::Order),
                };
                Rule {
                    component: component.clone(),
                    kind,
                    injected: 0,
                }
            })
            .collect();
        AutoCoordRules {
            rules,
            sequencer_service: 0,
            speculation: false,
        }
    }

    /// Register the runtime binding for `component`'s Seal directive.
    ///
    /// # Panics
    /// Panics when `component` has no Seal directive in the spec.
    #[must_use]
    pub fn bind_seal(mut self, component: &str, binding: SealBinding) -> Self {
        let rule = self
            .rules
            .iter_mut()
            .find(|r| r.component == component)
            .unwrap_or_else(|| panic!("no directive for component {component:?}"));
        match &mut rule.kind {
            RuleKind::Seal { binding: slot, .. } => *slot = Some(binding),
            RuleKind::Order => {
                panic!("component {component:?} is ordered, not sealed")
            }
        }
        self
    }

    /// Service time charged per message at injected sequencers (the
    /// serialization toll of the ordering strategy).
    #[must_use]
    pub fn with_sequencer_service(mut self, service: Time) -> Self {
        self.sequencer_service = service;
        self
    }

    /// Inject [`SpeculativeSealGate`]s instead of blocking [`SealGate`]s:
    /// consumers run ahead of missing punctuations under the parallel
    /// backend's time-warp mode ([`ParTuning::with_speculation`]) and roll
    /// back on straggler violations. Only valid on the parallel backend —
    /// the simulator rejects speculative emissions.
    ///
    /// [`ParTuning::with_speculation`]: blazes_dataflow::par::ParTuning::with_speculation
    #[must_use]
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Per-directive injection accounting of the rewrite.
    #[must_use]
    pub fn summary(&self) -> InjectionSummary {
        InjectionSummary {
            per_directive: self
                .rules
                .iter()
                .map(|r| {
                    let mechanism = match r.kind {
                        RuleKind::Seal { .. } => "seal-gate",
                        RuleKind::Order => "sequencer",
                    };
                    (r.component.clone(), mechanism, r.injected)
                })
                .collect(),
        }
    }
}

impl RewritePass for AutoCoordRules {
    fn rewrite(&mut self, topology: &mut Topology) -> RewriteStats {
        let rule_of: Vec<Option<usize>> = topology
            .instance_names()
            .map(|name| {
                self.rules
                    .iter()
                    .position(|r| family(name).eq_ignore_ascii_case(&r.component))
            })
            .collect();
        let mut walk = Walk {
            pass: self,
            rule_of,
            seal_gates: BTreeMap::new(),
            sequencers: BTreeMap::new(),
            order_ports: BTreeMap::new(),
            fed: BTreeSet::new(),
            delivered: BTreeSet::new(),
            sent: BTreeMap::new(),
            rewritten_wires: 0,
        };
        for wire in topology.take_wires() {
            walk.wire(topology, wire);
        }
        topology.rewrite_injections(|t, injection| walk.injection(t, injection));
        let rewritten_wires = walk.rewritten_wires;
        RewriteStats {
            injected_operators: self.rules.iter().map(|r| r.injected).sum(),
            rewritten_wires,
        }
    }
}

/// Where traffic into one flagged `(instance, port)` goes instead.
#[derive(Clone, Copy)]
struct Gate {
    id: InstanceId,
    ordered: bool,
}

/// One logical message to an ordered component: `(sequencer, time, port,
/// message)`.
type OrderedInjection = (InstanceId, Time, PortId, Message);

/// The state of one rewrite, over one recording.
struct Walk<'a> {
    pass: &'a mut AutoCoordRules,
    /// Rule index per recorded instance (`None` = not flagged).
    rule_of: Vec<Option<usize>>,
    /// One seal gate per `(consumer instance, input port)`.
    seal_gates: BTreeMap<(InstanceId, PortId), InstanceId>,
    /// One sequencer per ordered rule.
    sequencers: BTreeMap<usize, InstanceId>,
    /// The single input port each ordered rule's instances receive on.
    /// The sequencer broadcast cannot distinguish ports, so a component
    /// whose instances listen on several ports is rejected loudly rather
    /// than silently double-delivered.
    order_ports: BTreeMap<usize, PortId>,
    /// `(sequencer, producer, output port)` wires already feeding a
    /// sequencer: further wires from that port are replica fan-out, which
    /// the broadcast covers.
    fed: BTreeSet<(InstanceId, InstanceId, PortId)>,
    /// `(gate, consumer, port)` delivery wires already connected.
    delivered: BTreeSet<(InstanceId, InstanceId, PortId)>,
    /// Per ordered injection: the sequencer sends so far, and how many
    /// copies each instance was sent.
    sent: BTreeMap<OrderedInjection, (usize, BTreeMap<InstanceId, usize>)>,
    /// Producer wires now ending at a gate.
    rewritten_wires: usize,
}

impl Walk<'_> {
    /// Reconnect one recorded wire, through its consumer's gate if it has
    /// one.
    fn wire(&mut self, t: &mut Topology, w: Wire) {
        let Some(gate) = self.gate(t, w.to, w.in_port) else {
            t.connect(w.from, w.out_port, w.to, w.in_port, w.channel);
            return;
        };
        if !gate.ordered || self.fed.insert((gate.id, w.from, w.out_port)) {
            t.connect(w.from, w.out_port, gate.id, PortId(0), w.channel);
            self.rewritten_wires += 1;
        }
        self.deliver(t, gate, w.to, w.in_port);
    }

    /// Redirect one injection into its destination's gate, if it has one;
    /// returns whether to keep it.
    fn injection(&mut self, t: &mut Topology, injection: &mut Injection) -> bool {
        let (at, to, port, msg) = injection;
        let Some(gate) = self.gate(t, *to, *port) else {
            return true;
        };
        self.deliver(t, gate, *to, *port);
        if gate.ordered {
            let (sends, copies) = self
                .sent
                .entry((gate.id, *at, *port, msg.clone()))
                .or_default();
            let copies = copies.entry(*to).or_default();
            *copies += 1;
            if *copies <= *sends {
                // An earlier send already broadcasts this copy here.
                return false;
            }
            *sends += 1;
        }
        (*to, *port) = (gate.id, PortId(0));
        true
    }

    /// The gate in front of `(to, port)`, added on first use; `None` when
    /// `to` is not flagged.
    fn gate(&mut self, t: &mut Topology, to: InstanceId, port: PortId) -> Option<Gate> {
        let ri = self.rule_of[to.0]?;
        let rule = &mut self.pass.rules[ri];
        let (id, ordered) = match &rule.kind {
            RuleKind::Seal { key_attrs, binding } => {
                let id = *self.seal_gates.entry((to, port)).or_insert_with(|| {
                    let binding = binding.clone().unwrap_or_else(|| {
                        panic!("seal directive for {:?} needs bind_seal()", rule.component)
                    });
                    let name = format!("autocoord-seal({}@{}:{})", rule.component, to.0, port.0);
                    let gate: Box<dyn Component> = if self.pass.speculation {
                        Box::new(SpeculativeSealGate::new(key_attrs.clone(), binding, name))
                    } else {
                        Box::new(SealGate::new(key_attrs.clone(), binding, name))
                    };
                    rule.injected += 1;
                    t.add_instance(gate)
                });
                (id, false)
            }
            RuleKind::Order => {
                let first = *self.order_ports.entry(ri).or_insert(port);
                assert!(
                    first == port,
                    "ordering rewrite for {:?} saw inputs on ports {first} and {port}: \
                     the injected sequencer broadcasts on one port, so multi-input-port \
                     consumers are not supported by the wire-level Order rewrite \
                     (use an engine-native mechanism instead)",
                    rule.component
                );
                let id = *self.sequencers.entry(ri).or_insert_with(|| {
                    rule.injected += 1;
                    let id = t.add_instance(Box::new(Sequencer::new()));
                    t.set_service_time(id, self.pass.sequencer_service);
                    id
                });
                (id, true)
            }
        };
        Some(Gate { id, ordered })
    }

    /// Wire `gate` output 0 to `(to, port)`, once.
    fn deliver(&mut self, t: &mut Topology, gate: Gate, to: InstanceId, port: PortId) {
        if self.delivered.insert((gate.id, to, port)) {
            let channel = if gate.ordered {
                ChannelConfig::ordered(ORDERED_LATENCY)
            } else {
                ChannelConfig::instant()
            };
            t.connect_with(gate.id, PortId(0), to, port, channel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_core::keys::KeySet;
    use blazes_dataflow::backend::{ExecutorBuilder, RewritingBuilder, Topology};
    use blazes_dataflow::component::{Component, Context, FnComponent};
    use blazes_dataflow::message::SealKey;
    use blazes_dataflow::par::ParBuilder;
    use blazes_dataflow::sim::Simulator;
    use blazes_dataflow::sinks::CollectorSink;

    fn spec_seal(component: &str) -> CoordinationSpec {
        CoordinationSpec {
            directives: vec![CoordDirective::Seal {
                component: component.to_string(),
                input: "click".to_string(),
                key: KeySet::from_attrs(["campaign"]),
            }],
        }
    }

    fn spec_order(component: &str) -> CoordinationSpec {
        CoordinationSpec {
            directives: vec![CoordDirective::Order {
                component: component.to_string(),
                inputs: vec!["in".to_string()],
                dynamic: false,
            }],
        }
    }

    fn forwarder(name: &str) -> Box<dyn Component> {
        Box::new(FnComponent::new(
            name.to_string(),
            |_, msg, ctx: &mut Context| ctx.emit(0, msg),
        ))
    }

    #[test]
    fn name_matching_covers_parallel_instances() {
        let in_family = |c: &str, name: &str| family(name).eq_ignore_ascii_case(c);
        assert!(in_family("Report", "Report"));
        assert!(in_family("Report", "report[3]"));
        assert!(in_family("Report", "REPORT[0]"));
        assert!(!in_family("Report", "Reporter"));
        assert!(!in_family("Report", "Repo"));
        assert!(!in_family("Report", "Reporter[0]"));
    }

    /// Assemble: two producers feed one flagged consumer, which forwards
    /// to a sink; a query is injected directly into the consumer.
    fn seal_topology<B: ExecutorBuilder>(b: &mut B, sink: CollectorSink) {
        let consumer = b.add_instance(forwarder("Report[0]"));
        let s = b.add_instance(Box::new(sink));
        b.connect_with(consumer, PortId(0), s, PortId(0), ChannelConfig::instant());
        for k in 0..2i64 {
            let p = b.add_instance(forwarder("producer"));
            b.connect_with(
                p,
                PortId(0),
                consumer,
                PortId(0),
                ChannelConfig::lan().with_jitter(9_000),
            );
            for i in 0..5i64 {
                b.inject(0, p, PortId(0), Message::data([k * 100 + i, 1i64, 0i64]));
            }
            b.inject(
                1,
                p,
                PortId(0),
                Message::Seal(SealKey::new([
                    ("campaign", Value::Int(1)),
                    ("producer", Value::Int(k)),
                ])),
            );
        }
    }

    fn seal_rules() -> AutoCoordRules {
        AutoCoordRules::new(&spec_seal("Report")).bind_seal(
            "Report",
            SealBinding::new(ProducerRegistry::all_produce(0..2), vec![1], 3),
        )
    }

    #[test]
    fn seal_directive_gates_the_consumer_on_both_backends() {
        // Simulator.
        let sim_sink = CollectorSink::new();
        let mut sim = Topology::new();
        let mut rb = RewritingBuilder::new(&mut sim, seal_rules());
        seal_topology(&mut rb, sim_sink.clone());
        let (rules, stats) = rb.finish();
        assert_eq!(stats.injected_operators, 1, "one gate for one consumer");
        assert_eq!(stats.rewritten_wires, 2, "both producer wires rerouted");
        assert_eq!(rules.summary().per_directive.len(), 1);
        Simulator::new(sim, 4).run();
        assert_eq!(sim_sink.len(), 12, "10 records + both producer votes");

        // Only the data payload is schedule-independent: the forwarded
        // punctuation names whichever producer completed the vote.
        fn data_set(sink: &CollectorSink) -> std::collections::BTreeSet<Message> {
            sink.message_set()
                .into_iter()
                .filter(|m| m.as_data().is_some())
                .collect()
        }

        // Parallel: the same rewritten graph on worker threads.
        let par_sink = CollectorSink::new();
        let mut par = ParBuilder::new(4).with_workers(3);
        let mut rb = RewritingBuilder::new(&mut par, seal_rules());
        seal_topology(&mut rb, par_sink.clone());
        let (_, stats) = rb.finish();
        assert_eq!(stats.injected_operators, 1);
        let _ = par.build().run();
        assert_eq!(data_set(&par_sink), data_set(&sim_sink));
        // Release discipline: all 10 records precede the punctuation.
        let msgs = par_sink.messages();
        let seal_pos = msgs
            .iter()
            .position(|m| matches!(m, Message::Seal(_)))
            .expect("punctuation forwarded");
        assert_eq!(seal_pos, 10, "seal after every covered record");
    }

    #[test]
    fn order_directive_serializes_replicas_identically() {
        fn topology<B: ExecutorBuilder>(b: &mut B) -> Vec<CollectorSink> {
            let mut sinks = Vec::new();
            let mut replicas = Vec::new();
            for r in 0..2 {
                let rep = b.add_instance(forwarder(&format!("Replica[{r}]")));
                let sink = CollectorSink::new();
                let s = b.add_instance(Box::new(sink.clone()));
                b.connect_with(rep, PortId(0), s, PortId(0), ChannelConfig::instant());
                sinks.push(sink);
                replicas.push(rep);
            }
            for k in 0..3i64 {
                let p = b.add_instance(forwarder("producer"));
                for &rep in &replicas {
                    b.connect_with(
                        p,
                        PortId(0),
                        rep,
                        PortId(0),
                        ChannelConfig::lan().with_jitter(7_000),
                    );
                }
                for i in 0..30i64 {
                    b.inject(0, p, PortId(0), Message::data([k * 1_000 + i]));
                }
            }
            // A broadcast injection addressed to each replica: must
            // collapse through the sequencer to one delivery per replica.
            for &rep in &replicas {
                b.inject(5, rep, PortId(0), Message::data([-7i64]));
            }
            sinks
        }

        // The rewritten recording: the sequencer is appended, fed over one
        // wire per producer port, and fans out over one ordered wire per
        // replica.
        let mut recorded = Topology::new();
        let mut rb =
            RewritingBuilder::new(&mut recorded, AutoCoordRules::new(&spec_order("Replica")));
        let _ = topology(&mut rb);
        let _ = rb.finish();
        let names: Vec<&str> = recorded.instance_names().collect();
        assert_eq!(names.last(), Some(&"sequencer"), "{names:?}");
        let seq = InstanceId(names.len() - 1);
        let fed_by: Vec<&str> = recorded
            .wires()
            .iter()
            .filter(|w| w.to == seq)
            .map(|w| names[w.from.0])
            .collect();
        assert_eq!(fed_by, ["producer"; 3]);
        let fans_to: Vec<_> = recorded
            .wires()
            .iter()
            .filter(|w| w.from == seq)
            .map(|w| (names[w.to.0], &recorded.channels()[w.channel.0]))
            .collect();
        let ordered = ChannelConfig::ordered(ORDERED_LATENCY);
        assert_eq!(
            fans_to,
            [("Replica[0]", &ordered), ("Replica[1]", &ordered)]
        );

        for workers in [1usize, 4] {
            let mut par = ParBuilder::new(9).with_workers(workers);
            let mut rb =
                RewritingBuilder::new(&mut par, AutoCoordRules::new(&spec_order("Replica")));
            let sinks = topology(&mut rb);
            let (rules, stats) = rb.finish();
            assert_eq!(stats.injected_operators, 1, "one shared sequencer");
            assert_eq!(stats.rewritten_wires, 3, "one wire per producer port");
            assert_eq!(rules.summary().per_directive[0].1, "sequencer");
            let _ = par.build().run();
            assert_eq!(
                sinks[0].messages(),
                sinks[1].messages(),
                "replicas must observe one total order ({workers} workers)"
            );
            assert_eq!(sinks[0].len(), 91, "90 records + 1 collapsed broadcast");
        }
    }

    /// How many copies each of two ordered replicas delivers after `sends`
    /// — `(replica, copies)` runs of one identical injection, in recording
    /// order — went through the ordering rewrite.
    fn ordered_copies(sends: &[(usize, usize)]) -> Vec<usize> {
        let mut topology = Topology::new();
        let mut rb =
            RewritingBuilder::new(&mut topology, AutoCoordRules::new(&spec_order("Replica")));
        let mut replicas = Vec::new();
        let mut sinks = Vec::new();
        for r in 0..2 {
            let rep = rb.add_instance(forwarder(&format!("Replica[{r}]")));
            let sink = CollectorSink::new();
            let s = rb.add_instance(Box::new(sink.clone()));
            rb.connect_with(rep, PortId(0), s, PortId(0), ChannelConfig::instant());
            replicas.push(rep);
            sinks.push(sink);
        }
        for &(r, copies) in sends {
            for _ in 0..copies {
                rb.inject(0, replicas[r], PortId(0), Message::data([7i64]));
            }
        }
        let _ = rb.finish();
        Simulator::new(topology, 0).run();
        sinks.iter().map(CollectorSink::len).collect()
    }

    #[test]
    fn duplicate_injections_to_the_same_instance_are_not_dropped() {
        // Two *identical* injections to one flagged replica are genuinely
        // distinct copies: both must survive the broadcast collapse (and
        // the sequencer delivers only where the assembly sent something).
        assert_eq!(ordered_copies(&[(0, 2)]), [2, 0]);
        // One copy to each replica is one logical message, sent once.
        assert_eq!(ordered_copies(&[(0, 1), (1, 1)]), [1, 1]);
    }

    /// Identical injections sent to replicas in the order A, A, B, B are
    /// two copies per replica uncoordinated, so the sequencer sends two —
    /// not three, which would deliver a copy nobody sent.
    #[test]
    fn ordered_broadcast_keeps_the_largest_per_replica_multiplicity() {
        assert_eq!(ordered_copies(&[(0, 2), (1, 2)]), [2, 2]);
        assert_eq!(ordered_copies(&[(0, 1), (1, 3), (0, 1)]), [3, 3]);
    }

    #[test]
    #[should_panic(expected = "multi-input-port")]
    fn ordered_multi_input_port_consumers_are_rejected() {
        // The sequencer broadcast cannot preserve port identity; wiring a
        // second distinct input port must fail loudly, not double-deliver.
        let mut topology = Topology::new();
        let mut rb =
            RewritingBuilder::new(&mut topology, AutoCoordRules::new(&spec_order("Replica")));
        let rep = rb.add_instance(forwarder("Replica[0]"));
        let p = rb.add_instance(forwarder("producer"));
        rb.connect_with(p, PortId(0), rep, PortId(0), ChannelConfig::instant());
        rb.connect_with(p, PortId(1), rep, PortId(1), ChannelConfig::instant());
        let _ = rb.finish();
    }

    #[test]
    fn unflagged_topologies_pass_through_untouched() {
        let sink = CollectorSink::new();
        let mut topology = Topology::new();
        let mut rb = RewritingBuilder::new(
            &mut topology,
            AutoCoordRules::new(&CoordinationSpec::default()),
        );
        seal_topology(&mut rb, sink.clone());
        let (rules, stats) = rb.finish();
        assert!(stats.is_untouched());
        assert!(rules.summary().per_directive.is_empty());
        assert!(rules.summary().render().contains("confluent"));
    }

    #[test]
    #[should_panic(expected = "needs bind_seal")]
    fn missing_seal_binding_panics_at_rewrite() {
        let mut topology = Topology::new();
        let mut rb =
            RewritingBuilder::new(&mut topology, AutoCoordRules::new(&spec_seal("Report")));
        let sink = CollectorSink::new();
        seal_topology(&mut rb, sink);
        let _ = rb.finish();
    }
}
