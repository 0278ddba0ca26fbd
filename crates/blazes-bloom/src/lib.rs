//! # blazes-bloom
//!
//! A miniature **Bloom** dialect — the declarative language front end that
//! powers the paper's "white box" mode (Section VII). Programs are bundles
//! of datalog-style rules over named collections; modules expose input and
//! output interfaces and map 1:1 onto Blazes dataflow components.
//!
//! The crate provides:
//!
//! * a textual syntax with a hand-written lexer/parser ([`parser`]);
//! * a **timestep interpreter** ([`interp`]) with Bloom's merge operators —
//!   instantaneous (`<=`), deferred (`<+`), deletion (`<-`) and
//!   asynchronous (`<~`) — and stratified evaluation of nonmonotonic rules.
//!   The fixpoint engine is semi-naive within a tick and incremental
//!   across ticks — tables are mutated in place, their hash-join indexes
//!   and `group by` state persist with them, and a tick is seeded from
//!   what it inserted and deleted, so it costs what it changed rather than
//!   what the tables hold — checked against a retained whole-state naive
//!   oracle ([`interp::EvalMode`]), with per-tick work counters
//!   ([`interp::TickStats`]). A tick is all-or-nothing: an `Err` leaves
//!   the instance as it was;
//! * the **white-box static analyses** ([`analyze`]) the paper describes:
//!   syntactic nonmonotonicity detection, persistent-state flow analysis,
//!   partition-subscript inference from `group by` / `not in` clauses, and
//!   identity lineage through identity projections — together these derive
//!   C.O.W.R. annotations automatically.
//!
//! A Bloom module runs on a dataflow backend inside the component that
//! hosts it: the ad report's replicas each drive one
//! [`interp::ModuleInstance`].
//!
//! ## Example
//!
//! ```
//! use blazes_bloom::parser::parse_module;
//! use blazes_bloom::analyze::annotate_module;
//!
//! let m = parse_module(r#"
//! module Report {
//!   input click(id, campaign)
//!   input request(id)
//!   output response(id, n)
//!   table log(id, campaign)
//!   scratch poor(id, n)
//!
//!   log <= click
//!   poor <= log group by (log.id) agg count(*) as n having n < 100
//!   response <~ (poor * request) on (poor.id = request.id) -> (poor.id, poor.n)
//! }
//! "#).unwrap();
//!
//! let annotations = annotate_module(&m).unwrap();
//! // The click path writes the log confluently: CW.
//! let click = annotations.iter().find(|a| a.from == "click").unwrap();
//! assert_eq!(click.annotation.to_string(), "CW");
//! // The request path is order-sensitive over partitions {id}: OR_{id}.
//! let request = annotations.iter().find(|a| a.from == "request").unwrap();
//! assert_eq!(request.annotation.to_string(), "OR_{id}");
//! ```

#![forbid(unsafe_code)]

pub mod analyze;
pub mod ast;
pub mod catalog;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
mod rel;

pub use analyze::{annotate_module, PathAnnotation};
pub use ast::{CollectionKind, MergeOp, Module, Rule};
pub use error::{BloomError, Result};
pub use interp::{EvalMode, ModuleInstance, TickOutput, TickStats};
pub use parser::parse_module;
