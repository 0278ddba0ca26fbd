//! # blazes-autocoord
//!
//! The bridge the paper promises: **annotate → analyze → inject**.
//!
//! `blazes-core` decides *where* a dataflow needs coordination and *which*
//! mechanism is cheapest ([`blazes_core::placement::CoordinationSpec`]);
//! `blazes-coord` provides the runtime primitives ([`SealManager`],
//! [`Sequencer`]); this crate closes the loop. [`AutoCoordRules`] is a
//! [`blazes_dataflow::backend::RewritePass`]: wrap any backend builder in
//! a [`RewritingBuilder`], assemble the *uncoordinated* topology, and
//! `finish()` runs the pass once over the whole recorded
//! [`blazes_dataflow::backend::Topology`] — every wire or injection into a
//! component the spec flags is rerouted —
//!
//! * through a [`SealGate`] (per consumer instance) where the analysis
//!   proved a seal protocol suffices: partitions buffer until the
//!   unanimous producer vote completes, and queries are held until the
//!   partition they read is released (paper Section V-B1);
//! * through one shared [`Sequencer`] (per flagged component) where the
//!   analysis fell back to ordering: all inputs serialize through the
//!   simulated ordering service and fan out over ordered channels, so
//!   every replica observes one total order (paper Section V-B2);
//! * through **nothing at all** on confluent paths — an empty spec leaves
//!   the topology bit-identical, which
//!   [`blazes_dataflow::backend::RewriteStats::is_untouched`] certifies —
//!
//! and then hands the rewritten recording to the wrapped builder. Because
//! the pass lives below the shared
//! [`blazes_dataflow::backend::ExecutorBuilder`] surface, the same
//! rewritten graph runs on the discrete-event simulator, the multi-worker
//! parallel executor and the distributed backend alike, and it can be
//! inspected as a value before anything runs.
//!
//! The analysis reads that same recording: [`lower()`] turns it, plus an
//! [`Annotations`] table keyed by instance family, into the graph the spec
//! is derived from, so the analysed graph is the executed graph.
//!
//! ```
//! use blazes_autocoord::{AutoCoordRules, SealBinding};
//! use blazes_core::placement::CoordinationSpec;
//! use blazes_core::prelude::*;
//! use blazes_coord::registry::ProducerRegistry;
//! use blazes_dataflow::backend::{ExecutorBuilder, PortId, RewritingBuilder, Topology};
//! use blazes_dataflow::component::{Context, FnComponent};
//! use blazes_dataflow::message::Message;
//!
//! // 1. Annotate + analyze (a sealed source feeding an OW component).
//! let mut g = DataflowGraph::new("demo");
//! let src = g.add_source("clicks", &["id", "campaign"]);
//! g.seal_source(src, ["campaign"]);
//! let report = g.add_component("Report");
//! g.add_path(report, "click", "out", ComponentAnnotation::ow(["campaign", "id"]));
//! let sink = g.add_sink("analyst");
//! g.connect_source(src, report, "click");
//! g.connect_sink(report, "out", sink);
//! let spec = CoordinationSpec::derive(&g, false).unwrap();
//! assert!(!spec.is_empty());
//!
//! // 2. Inject: assemble the bare topology through the rewrite pass.
//! let rules = AutoCoordRules::new(&spec)
//!     .bind_seal("Report", SealBinding::new(ProducerRegistry::all_produce([0]), vec![1], 2));
//! let mut topology = Topology::new();
//! let mut b = RewritingBuilder::new(&mut topology, rules);
//! let report = b.add_instance(Box::new(FnComponent::new("Report", |_, msg, ctx: &mut Context| {
//!     ctx.emit(0, msg)
//! })));
//! b.inject(0, report, PortId(0), Message::data([7i64, 1]));
//! let (rules, stats) = b.finish(); // the pass runs here, over the whole recording
//! assert_eq!(stats.injected_operators, 1);
//! assert_eq!(rules.summary().per_directive[0].2, 1);
//! // The gate is appended after the assembly's instances.
//! let names: Vec<&str> = topology.instance_names().collect();
//! assert_eq!(names, ["Report", "autocoord-seal(Report@0:0)"]);
//! ```

#![forbid(unsafe_code)]

pub mod gate;
pub mod lower;
pub mod rules;

#[doc(no_inline)]
pub use blazes_coord::{SealManager, Sequencer};
#[doc(no_inline)]
pub use blazes_core::placement::{CoordDirective, CoordinationSpec};
#[doc(no_inline)]
pub use blazes_dataflow::backend::{RewriteStats, RewritingBuilder};
pub use gate::{SealGate, SealGateStats, SpecGateStats, SpeculativeSealGate};
pub use lower::{lower, Annotations, ComponentDecl, Role, StreamDecl};
pub use rules::{AutoCoordRules, InjectionSummary, QueryPartition, SealBinding};
