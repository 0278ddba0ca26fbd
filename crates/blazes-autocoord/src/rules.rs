//! The injection pass: [`AutoCoordRules`] turns a
//! [`CoordinationSpec`] into wire/injection rewrites.
//!
//! The pass recognizes flagged components by instance name (a directive
//! for component `Report` matches instances `Report`, `Report[0]`,
//! `report[3]`, … — engines suffix the parallelism index in brackets) and
//! reroutes their inbound traffic:
//!
//! * **Seal** directives get one [`SealGate`] per `(consumer instance,
//!   input port)`, fed by every producer wire and by redirected external
//!   injections. The runtime half of the directive — who produces which
//!   partition, where the key sits in a tuple — comes from a
//!   [`SealBinding`] the application registers per component.
//! * **Order** directives get one shared [`Sequencer`] per flagged
//!   component: every producer wire funnels into it and it fans out over
//!   ordered channels, so all consumer instances observe the same total
//!   order. External injections addressed to the component's instances
//!   collapse to a single sequencer send per distinct `(time, port,
//!   message)` — the sequencer broadcast delivers to every instance.

use crate::gate::{SealGate, SpeculativeSealGate};
use blazes_coord::registry::ProducerRegistry;
use blazes_coord::sequencer::Sequencer;
use blazes_core::placement::{CoordDirective, CoordinationSpec};
use blazes_dataflow::backend::{GateAlloc, InjectAction, PortId, RewritePass, WireAction};
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
        /// One gate per `(consumer instance, input port)`.
        gates: BTreeMap<(usize, PortId), InstanceId>,
    },
    Order {
        sequencer: Option<InstanceId>,
        /// Which destinations each distinct injection has covered: the
        /// first destination routes through the sequencer, further
        /// destinations are satisfied by its broadcast (Absorb), and a
        /// repeat of an already-covered destination is a genuinely new
        /// copy and routes again.
        routed: BTreeMap<(Time, PortId, Message), BTreeSet<usize>>,
        /// Producer ports already feeding the sequencer: further wires
        /// from the same port are replica fan-out and collapse into the
        /// sequencer's broadcast.
        routed_ports: BTreeSet<(usize, PortId)>,
        /// The single input port the ordered component receives on. The
        /// sequencer broadcast cannot distinguish ports, so a component
        /// whose instances listen on several ports is rejected loudly
        /// rather than silently double-delivered.
        in_port: Option<PortId>,
    },
}

struct Rule {
    component: String,
    kind: RuleKind,
}

/// Enforce the single-input-port restriction of the ordering rewrite.
fn check_order_port(component: &str, in_port: &mut Option<PortId>, port: PortId) {
    match in_port {
        None => *in_port = Some(port),
        Some(p) if *p == port => {}
        Some(p) => panic!(
            "ordering rewrite for {component:?} saw inputs on ports {p} and {port}: \
             the injected sequencer broadcasts on one port, so multi-input-port \
             consumers are not supported by the wire-level Order rewrite \
             (use an engine-native mechanism instead)"
        ),
    }
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
    /// Flagged instance → rule index.
    flagged: BTreeMap<usize, usize>,
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
            .map(|d| match d {
                CoordDirective::Seal { component, key, .. } => Rule {
                    component: component.clone(),
                    kind: RuleKind::Seal {
                        key_attrs: key.iter().map(ToString::to_string).collect(),
                        binding: None,
                        gates: BTreeMap::new(),
                    },
                },
                CoordDirective::Order { component, .. } => Rule {
                    component: component.clone(),
                    kind: RuleKind::Order {
                        sequencer: None,
                        routed: BTreeMap::new(),
                        routed_ports: BTreeSet::new(),
                        in_port: None,
                    },
                },
            })
            .collect();
        AutoCoordRules {
            rules,
            flagged: BTreeMap::new(),
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
            RuleKind::Order { .. } => {
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

    /// Per-directive injection accounting.
    #[must_use]
    pub fn summary(&self) -> InjectionSummary {
        InjectionSummary {
            per_directive: self
                .rules
                .iter()
                .map(|r| match &r.kind {
                    RuleKind::Seal { gates, .. } => (r.component.clone(), "seal-gate", gates.len()),
                    RuleKind::Order { sequencer, .. } => (
                        r.component.clone(),
                        "sequencer",
                        usize::from(sequencer.is_some()),
                    ),
                })
                .collect(),
        }
    }

    /// Does `name` belong to the component a directive flags? Engines
    /// label instances `Component[k]`; matching is case-insensitive.
    fn matches(component: &str, name: &str) -> bool {
        let n = name.as_bytes();
        let c = component.as_bytes();
        if n.len() < c.len() || !n[..c.len()].eq_ignore_ascii_case(c) {
            return false;
        }
        n.len() == c.len() || n[c.len()] == b'['
    }
}

impl RewritePass for AutoCoordRules {
    fn observe_instance(&mut self, id: InstanceId, name: &str) {
        for (i, rule) in self.rules.iter().enumerate() {
            if Self::matches(&rule.component, name) {
                self.flagged.insert(id.0, i);
                break;
            }
        }
    }

    fn rewrite_wire(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        alloc: &mut GateAlloc<'_>,
    ) -> WireAction {
        let Some(&ri) = self.flagged.get(&to.0) else {
            return WireAction::Keep;
        };
        let rule = &mut self.rules[ri];
        match &mut rule.kind {
            RuleKind::Seal {
                key_attrs,
                binding,
                gates,
            } => WireAction::Via {
                gate: seal_gate(
                    &rule.component,
                    key_attrs,
                    binding,
                    gates,
                    to,
                    in_port,
                    self.speculation,
                    alloc,
                ),
                gate_in_port: PortId(0),
                delivery: ChannelConfig::instant(),
            },
            RuleKind::Order {
                sequencer,
                routed_ports,
                in_port: order_port,
                ..
            } => {
                check_order_port(&rule.component, order_port, in_port);
                let gate = *sequencer.get_or_insert_with(|| {
                    alloc(Box::new(Sequencer::new()), self.sequencer_service)
                });
                let delivery = ChannelConfig::ordered(ORDERED_LATENCY);
                if routed_ports.insert((from.0, out_port)) {
                    WireAction::Via {
                        gate,
                        gate_in_port: PortId(0),
                        delivery,
                    }
                } else {
                    // Replica fan-out: this producer port already feeds
                    // the sequencer, whose broadcast reaches every
                    // instance — wiring it again would duplicate traffic.
                    WireAction::Absorb { gate, delivery }
                }
            }
        }
    }

    fn rewrite_injection(
        &mut self,
        at: Time,
        to: InstanceId,
        port: PortId,
        msg: &Message,
        alloc: &mut GateAlloc<'_>,
    ) -> InjectAction {
        let Some(&ri) = self.flagged.get(&to.0) else {
            return InjectAction::Keep;
        };
        let rule = &mut self.rules[ri];
        match &mut rule.kind {
            RuleKind::Seal {
                key_attrs,
                binding,
                gates,
            } => InjectAction::Via {
                gate: seal_gate(
                    &rule.component,
                    key_attrs,
                    binding,
                    gates,
                    to,
                    port,
                    self.speculation,
                    alloc,
                ),
                gate_in_port: PortId(0),
                delivery: ChannelConfig::instant(),
            },
            RuleKind::Order {
                sequencer,
                routed,
                in_port: order_port,
                ..
            } => {
                check_order_port(&rule.component, order_port, port);
                let gate = *sequencer.get_or_insert_with(|| {
                    alloc(Box::new(Sequencer::new()), self.sequencer_service)
                });
                let delivery = ChannelConfig::ordered(ORDERED_LATENCY);
                let covered = routed.entry((at, port, msg.clone())).or_default();
                if covered.insert(to.0) {
                    if covered.len() == 1 {
                        // First destination of this logical message:
                        // route it through the sequencer once.
                        InjectAction::Via {
                            gate,
                            gate_in_port: PortId(0),
                            delivery,
                        }
                    } else {
                        // Broadcast collapse: the sequencer already
                        // carries this message for a sibling instance;
                        // just make sure it reaches this one too.
                        InjectAction::Absorb { gate, delivery }
                    }
                } else {
                    // The same destination again: a genuinely new copy of
                    // an identical payload — deliver it (to everyone, as
                    // the ordering service broadcasts) rather than
                    // silently dropping it.
                    covered.clear();
                    covered.insert(to.0);
                    InjectAction::Via {
                        gate,
                        gate_in_port: PortId(0),
                        delivery,
                    }
                }
            }
        }
    }
}

/// Materialize (or reuse) the gate for one `(consumer instance, input
/// port)` — shared by the wire and injection paths so the two can never
/// disagree on gate identity. `speculative` selects the time-warp variant
/// over the blocking protocol.
#[allow(clippy::too_many_arguments)] // internal plumbing shared by two rewrite paths
fn seal_gate(
    component: &str,
    key_attrs: &[String],
    binding: &Option<SealBinding>,
    gates: &mut BTreeMap<(usize, PortId), InstanceId>,
    to: InstanceId,
    in_port: PortId,
    speculative: bool,
    alloc: &mut GateAlloc<'_>,
) -> InstanceId {
    *gates.entry((to.0, in_port)).or_insert_with(|| {
        let binding = binding
            .clone()
            .unwrap_or_else(|| panic!("seal directive for {component:?} needs bind_seal()"));
        let name = format!("autocoord-seal({component}@{}:{})", to.0, in_port.0);
        let gate: Box<dyn Component> = if speculative {
            Box::new(SpeculativeSealGate::new(key_attrs.to_vec(), binding, name))
        } else {
            Box::new(SealGate::new(key_attrs.to_vec(), binding, name))
        };
        alloc(gate, 0)
    })
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
        assert!(AutoCoordRules::matches("Report", "Report"));
        assert!(AutoCoordRules::matches("Report", "report[3]"));
        assert!(AutoCoordRules::matches("Report", "REPORT[0]"));
        assert!(!AutoCoordRules::matches("Report", "Reporter"));
        assert!(!AutoCoordRules::matches("Report", "Repo"));
        assert!(!AutoCoordRules::matches("Report", "Reporter[0]"));
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

        for workers in [1usize, 4] {
            let mut par = ParBuilder::new(9).with_workers(workers);
            let mut rb =
                RewritingBuilder::new(&mut par, AutoCoordRules::new(&spec_order("Replica")));
            let sinks = topology(&mut rb);
            let (rules, stats) = rb.finish();
            assert_eq!(stats.injected_operators, 1, "one shared sequencer");
            assert_eq!(stats.rewritten_wires, 3, "one wire per producer port");
            assert_eq!(stats.absorbed_wires, 3, "replica fan-out collapsed");
            assert_eq!(stats.redirected_injections, 1);
            assert_eq!(stats.absorbed_injections, 1);
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

    #[test]
    fn duplicate_injections_to_the_same_instance_are_not_dropped() {
        // Two *identical* injections to one flagged replica are genuinely
        // distinct copies: both must survive the broadcast collapse.
        let mut par = ParBuilder::new(2).with_workers(2);
        let mut rb = RewritingBuilder::new(&mut par, AutoCoordRules::new(&spec_order("Replica")));
        let rep = rb.add_instance(forwarder("Replica[0]"));
        let sink = CollectorSink::new();
        let s = rb.add_instance(Box::new(sink.clone()));
        rb.connect_with(rep, PortId(0), s, PortId(0), ChannelConfig::instant());
        rb.inject(0, rep, PortId(0), Message::data([7i64]));
        rb.inject(0, rep, PortId(0), Message::data([7i64]));
        let (_, stats) = rb.finish();
        assert_eq!(stats.redirected_injections, 2, "both copies routed");
        assert_eq!(stats.absorbed_injections, 0);
        let _ = par.build().run();
        assert_eq!(sink.len(), 2, "uncoordinated multiplicity preserved");
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
    fn missing_seal_binding_panics_at_first_wire() {
        let mut topology = Topology::new();
        let mut rb =
            RewritingBuilder::new(&mut topology, AutoCoordRules::new(&spec_seal("Report")));
        let sink = CollectorSink::new();
        seal_topology(&mut rb, sink);
    }
}
