//! # blazes-dataflow
//!
//! A deterministic **discrete-event simulated dataflow runtime**: the
//! execution substrate for the Blazes case studies.
//!
//! The paper evaluates Blazes on Amazon EC2 with Twitter Storm and the Bloom
//! prototype. This crate substitutes a simulator that preserves the
//! phenomena the evaluation measures:
//!
//! * **Nondeterministic delivery order.** Every channel adds a base latency
//!   plus seeded random jitter, so concurrent messages interleave
//!   nondeterministically — but reproducibly for a given seed.
//! * **At-least-once delivery.** Channels can duplicate messages and "lose"
//!   them (a lost message is retransmitted after a timeout), modeling
//!   Storm-style replay.
//! * **Processing costs and queueing.** Every instance processes messages
//!   sequentially with a configurable per-message service time; a busy
//!   instance queues deliveries. This is what makes *ordering* coordination
//!   expensive: a total-order sequencer serializes traffic that the
//!   uncoordinated system processes in parallel.
//! * **Virtual time.** The clock only advances when events fire; runs are
//!   instantaneous in wall-clock terms and fully reproducible.
//!
//! Components implement the [`component::Component`] trait; an assembly
//! wires them into a [`backend::Topology`], which any backend runs — the
//! simulator is [`sim::Simulator::new`]. See `blazes-storm` and
//! `blazes-apps` for the engines and applications built on top.

#![forbid(unsafe_code)]

pub mod backend;
pub mod channel;
pub mod component;
pub mod dist;
pub mod message;
pub mod metrics;
pub mod par;
pub mod sim;
pub mod sinks;
pub mod value;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::backend::{
        BackendRunStats, BackendSpec, ChannelId, ExecutorBuilder, PortId, Topology,
    };
    pub use crate::channel::ChannelConfig;
    pub use crate::component::{Component, Context};
    pub use crate::dist::{DistSpec, DistStats, Registry};
    pub use crate::message::{Message, SealKey};
    pub use crate::metrics::{RunStats, TimeSeries};
    pub use crate::par::{ParBuilder, ParExecutor, ParStats};
    pub use crate::sim::{InstanceId, Simulator, Time};
    pub use crate::sinks::{CollectorSink, CountingSink};
    pub use crate::value::{Tuple, Value};
}

pub use prelude::*;
