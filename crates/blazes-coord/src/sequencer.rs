//! A simulated total-order messaging service (the paper's Zookeeper
//! stand-in for the ordering strategy, Section V-B2).
//!
//! Clients send messages to the sequencer's single input port; the
//! sequencer forwards every message on its single output port in arrival
//! order. Wiring the output to each replica over an *ordered* channel
//! ([`blazes_dataflow::ChannelConfig::ordered`]) gives every replica the
//! same total delivery order.
//!
//! The cost model is the point: give the sequencer instance a non-zero
//! service time (`ExecutorBuilder::set_service_time`) and every message pays a
//! serialization toll — the fundamental reason the paper's "Ordered" runs
//! fall behind as producers scale (Figures 12–13).

use blazes_dataflow::prelude::*;

/// The total-order forwarding component: a stateless relay whose one
/// output carries every message untouched, in arrival order.
#[derive(Debug, Default)]
pub struct Sequencer;

impl Sequencer {
    /// A sequencer.
    #[must_use]
    pub fn new() -> Self {
        Sequencer
    }
}

impl Component for Sequencer {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        ctx.emit(0, msg);
    }

    fn name(&self) -> &str {
        "sequencer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_dataflow::channel::ChannelConfig;
    use blazes_dataflow::sinks::CollectorSink;

    /// Two replicas fed through the sequencer over ordered channels see the
    /// same total order, even when client->sequencer channels jitter.
    #[test]
    fn replicas_agree_on_order() {
        let mut b = Topology::new();
        let seq = b.add_instance(Box::new(Sequencer::new()));
        let r1 = CollectorSink::new();
        let r2 = CollectorSink::new();
        let i1 = b.add_instance(Box::new(r1.clone()));
        let i2 = b.add_instance(Box::new(r2.clone()));
        let ordered = b.add_channel(ChannelConfig::ordered(1_000));
        b.connect(seq, PortId(0), i1, PortId(0), ordered);
        b.connect(seq, PortId(0), i2, PortId(0), ordered);
        // Jittered arrivals at the sequencer.
        for i in 0..100i64 {
            b.inject(i as u64 * 3, seq, PortId(0), Message::data([i]));
        }
        Simulator::new(b, 99).run();
        assert_eq!(r1.messages(), r2.messages());
        assert_eq!(r1.len(), 100);
    }

    #[test]
    fn control_messages_pass_through() {
        let mut b = Topology::new();
        let seq = b.add_instance(Box::new(Sequencer::new()));
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(seq, PortId(0), s, PortId(0), ChannelConfig::ordered(0));
        b.inject(0, seq, PortId(0), Message::Eos);
        Simulator::new(b, 0).run();
        assert_eq!(sink.messages(), vec![Message::Eos]);
    }

    /// The serialization toll: with service time S and N messages arriving
    /// at once, the last delivery leaves no earlier than N*S.
    #[test]
    fn sequencer_serializes_throughput() {
        let n: u64 = 200;
        let service: u64 = 500;
        let mut b = Topology::new();
        let seq = b.add_instance(Box::new(Sequencer::new()));
        b.set_service_time(seq, service);
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(seq, PortId(0), s, PortId(0), ChannelConfig::ordered(0));
        for i in 0..n {
            b.inject(0, seq, PortId(0), Message::data([i as i64]));
        }
        let mut sim = Simulator::new(b, 0);
        let stats = sim.run();
        assert!(
            stats.end_time >= n * service,
            "end={} < {}",
            stats.end_time,
            n * service
        );
    }
}
