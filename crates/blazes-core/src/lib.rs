//! # blazes-core
//!
//! An implementation of the **Blazes** coordination-analysis framework from
//! *"Blazes: Coordination Analysis for Distributed Programs"* (Alvaro, Conway,
//! Hellerstein, Maier — ICDE 2014).
//!
//! Blazes decides, for a distributed dataflow of black-box components, *where*
//! coordination is required to rule out consistency anomalies and *which*
//! coordination mechanism is cheapest at each such location:
//!
//! 1. Programmers (or a language front end such as
//!    [`blazes-bloom`](../blazes_bloom/index.html)) annotate each path through
//!    a component with one of the **C.O.W.R.** labels of the paper's Fig. 7
//!    ([`annotation::ComponentAnnotation`]): confluent/order-sensitive ×
//!    read-only/write.
//! 2. Input streams optionally carry [`annotation::StreamAnnotation`]s:
//!    `Seal_key` (punctuated partitions) and `Rep` (replicated delivery).
//! 3. The analyzer ([`analysis::Analyzer`]) enumerates dataflow paths,
//!    collapses cycles, and rewrites labels using the **inference rules** of
//!    Fig. 9 ([`inference`]) and the **reconciliation procedure** of Fig. 10
//!    ([`reconcile`]), producing an output [`label::Label`] per stream:
//!    `Async`, `Run`, `Inst` or `Diverge` (Fig. 8).
//! 4. Where the derived label signals an anomaly, synthesis
//!    ([`placement::CoordinationSpec::derive`], rules in [`strategy`]) picks
//!    coordination per component: a cheap **sealing** protocol when a sealed
//!    input is compatible with the component's partitioning
//!    ([`annotation::Gate::admits`]), otherwise a total-**ordering**
//!    service. The resulting [`placement::CoordinationSpec`] names each
//!    component and its mechanism; the execution crates inject exactly that.
//!
//! Compatibility between seals and partitions is a subset test: the seal key
//! must lie inside the component's gate. This is the paper's
//! `compatible(partition, seal)` with identity as the injective function.
//! Renames are the only other injective function a spec or a Bloom module
//! can express, and they are applied before the test: each path's attribute
//! lineage carries a seal key to its new names
//! ([`graph::PathSpec::map_seal_key`]).
//!
//! ## Quick example
//!
//! ```
//! use blazes_core::prelude::*;
//!
//! // The Storm wordcount topology of the paper's Section VI-A.
//! let mut g = DataflowGraph::new("wordcount");
//! let tweets = g.add_source("tweets", &["word", "batch"]);
//! let splitter = g.add_component("Splitter");
//! g.add_path(splitter, "tweets", "words", ComponentAnnotation::cr());
//! let count = g.add_component("Count");
//! g.add_path(count, "words", "counts",
//!            ComponentAnnotation::ow(["word", "batch"]));
//! let commit = g.add_component("Commit");
//! g.add_path(commit, "counts", "db", ComponentAnnotation::cw());
//! let sink = g.add_sink("db-sink");
//!
//! g.connect_source(tweets, splitter, "tweets");
//! g.connect(splitter, "words", count, "words");
//! g.connect(count, "counts", commit, "counts");
//! g.connect_sink(commit, "db", sink);
//!
//! // Unsealed: replay is nondeterministic -> `Run`.
//! let outcome = Analyzer::new(&g).run().unwrap();
//! assert_eq!(outcome.sink_label(sink).unwrap(), &Label::Run);
//!
//! // Sealed on `batch`: the OW_{word,batch} component is compatible -> `Async`.
//! let mut sealed = g.clone();
//! sealed.seal_source(tweets, ["batch"]);
//! let outcome = Analyzer::new(&sealed).run().unwrap();
//! assert_eq!(outcome.sink_label(sink).unwrap(), &Label::Async);
//! ```

#![forbid(unsafe_code)]

pub mod advisor;
pub mod analysis;
pub mod annotation;
pub mod derivation;
pub mod error;
pub mod graph;
pub mod inference;
pub mod keys;
pub mod label;
pub mod paths;
pub mod placement;
pub mod reconcile;
pub mod severity;
pub mod spec;
pub mod strategy;

/// Convenient re-exports of the types used in almost every interaction with
/// the analyzer.
pub mod prelude {
    pub use crate::analysis::{AnalysisOutcome, Analyzer};
    pub use crate::annotation::{ComponentAnnotation, Gate, StreamAnnotation};
    pub use crate::error::{BlazesError, Result};
    pub use crate::graph::{ComponentId, DataflowGraph, SinkId, SourceId};
    pub use crate::keys::KeySet;
    pub use crate::label::Label;
    pub use crate::placement::{CoordDirective, CoordinationSpec};
    pub use crate::severity::Severity;
    pub use crate::spec::Spec;
}

pub use prelude::*;
