//! Channel (stream instance) configuration.
//!
//! Channels model the network between component instances: a base latency,
//! uniform random jitter (the source of nondeterministic delivery orders),
//! and the fault behaviors that motivate the paper's anomalies — duplicate
//! delivery and message loss with retransmission (at-least-once semantics).

use crate::sim::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-channel delivery behavior. All times are virtual microseconds.
///
/// Every wire delivers in send order (TCP-like) on every backend:
/// punctuation semantics assume a seal cannot overtake the records it
/// covers. Nondeterminism arises from interleaving *across* producers, and
/// a duplicate may still trail later sends on its wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Fixed propagation delay added to every delivery.
    pub base_latency: Time,
    /// Maximum extra random delay, drawn uniformly from `[0, jitter]`.
    /// Non-zero jitter reorders concurrent messages.
    pub jitter: Time,
    /// Probability that a message is delivered twice (at-least-once
    /// duplication, as under Storm replay).
    pub duplicate_prob: f64,
    /// Probability that the first transmission is lost. Lost messages are
    /// retransmitted once after [`ChannelConfig::retransmit_delay`], so
    /// delivery is still guaranteed (at-least-once, not at-most-once).
    pub loss_prob: f64,
    /// Delay before a lost message is retransmitted.
    pub retransmit_delay: Time,
}

impl ChannelConfig {
    /// A LAN-like lossless channel: 1 ms base latency, 1 ms jitter.
    #[must_use]
    pub fn lan() -> Self {
        ChannelConfig {
            base_latency: 1_000,
            jitter: 1_000,
            duplicate_prob: 0.0,
            loss_prob: 0.0,
            retransmit_delay: 10_000,
        }
    }

    /// An *ordered* channel: fixed latency, zero jitter, no faults. With a
    /// deterministic latency, delivery order equals send order (the event
    /// queue breaks time ties by insertion sequence), which models the FIFO
    /// links out of an ordering service.
    #[must_use]
    pub fn ordered(latency: Time) -> Self {
        ChannelConfig {
            base_latency: latency,
            jitter: 0,
            duplicate_prob: 0.0,
            loss_prob: 0.0,
            retransmit_delay: 0,
        }
    }

    /// A zero-latency, deterministic channel (useful in unit tests).
    #[must_use]
    pub fn instant() -> Self {
        ChannelConfig {
            base_latency: 0,
            jitter: 0,
            duplicate_prob: 0.0,
            loss_prob: 0.0,
            retransmit_delay: 0,
        }
    }

    /// Builder-style: set base latency.
    #[must_use]
    pub fn with_latency(mut self, base: Time) -> Self {
        self.base_latency = base;
        self
    }

    /// Builder-style: set jitter bound.
    #[must_use]
    pub fn with_jitter(mut self, jitter: Time) -> Self {
        self.jitter = jitter;
        self
    }

    /// Builder-style: set duplicate probability.
    #[must_use]
    pub fn with_duplicates(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.duplicate_prob = p;
        self
    }

    /// Builder-style: set loss probability (with retransmission).
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.loss_prob = p;
        self
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig::lan()
    }
}

/// One wire's loss/duplication schedule, the one definition the par
/// executor's send path and the dist router share: a wire's faults are a
/// function of `(seed, wire id)` and the send count, whichever process
/// draws them.
pub(crate) struct WireFaults {
    loss_prob: f64,
    duplicate_prob: f64,
    rng: StdRng,
}

impl WireFaults {
    /// The schedule of wire `wire` under run seed `seed`, or `None` when
    /// `cfg` injects no faults (no RNG, no draws).
    pub(crate) fn new(cfg: &ChannelConfig, seed: u64, wire: u64) -> Option<Self> {
        (cfg.loss_prob > 0.0 || cfg.duplicate_prob > 0.0).then(|| WireFaults {
            loss_prob: cfg.loss_prob,
            duplicate_prob: cfg.duplicate_prob,
            rng: StdRng::seed_from_u64(seed ^ (wire + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        })
    }

    /// Draw one send's faults as `(retransmitted, duplicated)`. Loss comes
    /// first: a lost first transmission is retried and still delivered
    /// (at-least-once), only counted. Each draw is taken only when its
    /// probability is nonzero.
    pub(crate) fn draw(&mut self) -> (bool, bool) {
        let retransmitted = self.loss_prob > 0.0 && self.rng.random::<f64>() < self.loss_prob;
        let duplicated =
            self.duplicate_prob > 0.0 && self.rng.random::<f64>() < self.duplicate_prob;
        (retransmitted, duplicated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_lan() {
        assert_eq!(ChannelConfig::default(), ChannelConfig::lan());
    }

    #[test]
    fn builder_chain() {
        let c = ChannelConfig::instant()
            .with_latency(5)
            .with_jitter(7)
            .with_duplicates(0.1);
        assert_eq!(c.base_latency, 5);
        assert_eq!(c.jitter, 7);
        assert!((c.duplicate_prob - 0.1).abs() < f64::EPSILON);
    }

    #[test]
    fn wire_faults_are_a_function_of_seed_and_wire() {
        let cfg = ChannelConfig::lan().with_loss(0.3).with_duplicates(0.2);
        let draws = |seed, wire| {
            let mut faults = WireFaults::new(&cfg, seed, wire).expect("faulty config");
            (0..64).map(|_| faults.draw()).collect::<Vec<_>>()
        };
        let schedule = draws(7, 3);
        assert_eq!(schedule, draws(7, 3));
        assert!(schedule.iter().any(|&(lost, _)| lost));
        assert!(schedule.iter().any(|&(_, dup)| dup));
        assert_ne!(schedule, draws(7, 4), "wires draw independent streams");
        assert_ne!(schedule, draws(8, 3), "the seed moves every wire");
        assert!(WireFaults::new(&ChannelConfig::lan(), 7, 3).is_none());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = ChannelConfig::lan().with_loss(1.5);
    }
}
