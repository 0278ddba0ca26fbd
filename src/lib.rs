//! # blazes
//!
//! Facade crate for the Blazes workspace — a Rust reproduction of
//! *"Blazes: Coordination Analysis for Distributed Programs"* (Alvaro,
//! Conway, Hellerstein, Maier — ICDE 2014).
//!
//! This crate re-exports the workspace members under stable module names:
//!
//! * [`core`] — the Blazes analysis: annotations, labels, inference,
//!   reconciliation, coordination synthesis.
//! * [`autocoord`] — analysis-driven coordination injection: rewrites
//!   topologies so every flagged edge gets exactly the coordination the
//!   analysis demands.
//! * [`dataflow`] — the dataflow runtime and its three executors: the
//!   discrete-event simulator, the multi-threaded parallel executor and the
//!   multi-process distributed backend.
//! * [`coord`] — coordination substrates (sequencer, seal manager,
//!   barriers).
//! * [`storm`] — the mini Storm engine and its grey-box adapter.
//! * [`bloom`] — the mini Bloom language and its white-box analysis.
//! * [`apps`] — the paper's two case-study applications.
//! * [`obs`] — observability: trace rings, Chrome trace export and the
//!   latency histogram.
//!
//! See `examples/` for runnable walkthroughs and `README.md` for the
//! system inventory, the test suites and the benchmark.

#![forbid(unsafe_code)]

pub use blazes_apps as apps;
pub use blazes_autocoord as autocoord;
pub use blazes_bloom as bloom;
pub use blazes_coord as coord;
pub use blazes_core as core;
pub use blazes_dataflow as dataflow;
pub use blazes_obs as obs;
pub use blazes_storm as storm;
