//! # blazes-apps
//!
//! The paper's two case-study applications, built on the simulated
//! substrates:
//!
//! * [`wordcount`] — the Storm streaming wordcount (Sections I-B, VI-A,
//!   VIII-A): tweet workload, Splitter/Count/Commit bolts, and both the
//!   *transactional* (coordinated) and *sealed* (uncoordinated but
//!   consistent) deployments measured in Figure 11.
//! * [`adreport`] — the Bloom ad-tracking network (Sections I-B, VI-B,
//!   VIII-B): ad servers and replicated reporting servers running the
//!   continuous queries of Fig. 6, wired with no coordination of their own;
//!   the legend entries of Figures 12–14 (uncoordinated / ordered /
//!   independent seal / seal) are what the analysis is told, below.
//! * [`queries`] — the four reporting queries (THRESH / POOR / WINDOW /
//!   CAMPAIGN) as mini-Bloom modules, plus their white-box-derived
//!   annotations.
//! * [`workload`] — synthetic workload generators (Zipf-distributed tweet
//!   stream, partitioned click logs).
//! * [`heavy`] — the heavy-compute hashing wordcount family (uniform and
//!   skewed key distributions) that makes parallel-backend speedups
//!   measurable.
//! * [`casestudy`] — ready-made dataflow graphs of both systems for the
//!   Blazes analysis, reproducing the derivations of Section VI.
//! * [`autocoord`] — the annotate→analyze→inject pipeline over both case
//!   studies: the only way the ad report is coordinated (one assembly, one
//!   runner), and the analysis-driven alternative to the wordcount's
//!   hand-picked transactional flag (the paper's Storm baseline).
//! * [`dist`] — the registry and plan codecs that re-create those
//!   assemblies inside the worker processes of a distributed run.

#![forbid(unsafe_code)]

pub mod adreport;
pub mod autocoord;
pub mod casestudy;
pub mod dist;
pub mod heavy;
pub mod queries;
pub mod wordcount;
pub mod workload;
