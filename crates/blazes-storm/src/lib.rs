//! # blazes-storm
//!
//! A miniature Storm-like stream processing engine on top of the
//! `blazes-dataflow` simulator — the host platform for the paper's first
//! case study (the streaming wordcount of Sections I-B, VI-A and VIII-A).
//!
//! Supported Storm concepts:
//!
//! * **Spouts** ([`topology::TopologyBuilder::add_spout`]): stream sources
//!   with a per-instance injection schedule. Batches are delimited by seal
//!   punctuations on the batch attribute, mirroring Storm's numbered batches
//!   (the unit of replay).
//! * **Bolts** ([`bolt::Bolt`]): user processing logic with configurable
//!   parallelism and [`grouping::Grouping`]s (shuffle / fields / global /
//!   all).
//! * **Batch tracking**: every bolt instance counts the seal punctuations of
//!   its upstream instances (a local unanimous vote) to learn when a batch
//!   is complete, then forwards its own seal downstream.
//! * **Transactional topologies**
//!   ([`topology::TopologyBuilder::make_transactional`]): committer bolts
//!   route batch-completion through a [`blazes_coord::CommitCoordinator`],
//!   which grants commits in strict batch order — Storm's coordinated
//!   baseline in Figure 11.
//! * **Grey-box adapter** ([`adapter`]): extract the topology's logical
//!   dataflow as a `blazes_core::DataflowGraph`, apply C.O.W.R. annotations
//!   and run the Blazes analysis, as the paper's reusable Storm adapter
//!   does.

#![forbid(unsafe_code)]

pub mod adapter;
pub mod bolt;
pub mod grouping;
pub mod runtime;
pub mod topology;

pub use adapter::TopologyAnnotations;
pub use bolt::{Bolt, BoltContext};
pub use grouping::Grouping;
pub use runtime::{BatchHandling, BoltAdapter};
pub use topology::prelude_for_tests;
pub use topology::{NodeHandle, StormExecution, TopologyBuilder, TransactionalConfig};
