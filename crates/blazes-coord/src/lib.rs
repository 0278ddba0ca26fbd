//! # blazes-coord
//!
//! Coordination substrates for the Blazes case studies — the runtime
//! counterparts of the two strategy families of the paper's Section V-B:
//!
//! * [`sequencer::Sequencer`] — a simulated total-order messaging service
//!   (the stand-in for Zookeeper / Multipaxos). All traffic funnels through
//!   one instance with a configurable service time, which is precisely the
//!   serialization bottleneck the paper's "Ordered" runs pay for.
//! * [`seal::SealManager`] — the seal-based protocol: per-partition
//!   buffering, release on punctuation, and a unanimous producer vote when a
//!   partition has several producers.
//! * [`barrier::CommitCoordinator`] — Storm-style "transactional topology"
//!   support: batch commits are released in strict batch order, one batch at
//!   a time.
//! * [`registry::ProducerRegistry`] — who produces which partition (the
//!   paper's "one call to Zookeeper per campaign" lookup).

#![forbid(unsafe_code)]

pub mod barrier;
pub mod registry;
pub mod seal;
pub mod sequencer;

pub use barrier::CommitCoordinator;
pub use registry::ProducerRegistry;
pub use seal::{SealManager, SealOutcome};
pub use sequencer::Sequencer;
