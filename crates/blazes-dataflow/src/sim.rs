//! The discrete-event simulator.
//!
//! Message deliveries are processed in virtual-time order with a
//! deterministic tiebreak (insertion sequence). All randomness — delivery
//! jitter, duplication, loss — comes from a single seeded RNG, so a
//! `(topology, workload, seed)` triple fully determines a run. Varying the
//! seed varies delivery interleavings, which is exactly the nondeterminism
//! the Blazes analysis reasons about.
//!
//! Instances process messages sequentially: each has a per-message *service
//! time*; an instance that is still busy when a delivery fires starts
//! processing at its `busy_until` watermark. Queueing delay is therefore
//! modeled without explicit queues.
//!
//! A simulation has no builder of its own: an assembly records a
//! [`Topology`] through the shared [`crate::backend::ExecutorBuilder`]
//! surface, and [`Simulator::new`] turns that value and a seed into a
//! runnable simulation.

use crate::backend::Topology;
use crate::channel::ChannelConfig;
use crate::component::{Component, Context};
use crate::message::Message;
use crate::metrics::{InstanceStats, RunStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time, in microseconds.
pub type Time = u64;

/// Identifier of a component instance within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub usize);

/// A scheduled delivery of `msg` to input `port` of `instance`.
#[derive(Debug)]
struct Event {
    time: Time,
    seq: u64,
    instance: InstanceId,
    port: usize,
    msg: Message,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct Wire {
    dst: InstanceId,
    dst_port: usize,
    channel: usize,
    /// Latest delivery time scheduled on this wire (the FIFO watermark).
    last_delivery: Time,
}

struct Instance {
    component: Box<dyn Component>,
    service_time: Time,
    busy_until: Time,
    processed: u64,
    /// Outgoing wires per output port.
    wires: Vec<Vec<Wire>>,
}

/// A runnable simulation.
pub struct Simulator {
    instances: Vec<Instance>,
    channels: Vec<ChannelConfig>,
    queue: BinaryHeap<Reverse<Event>>,
    rng: StdRng,
    next_seq: u64,
    now: Time,
    events_processed: u64,
    messages_delivered: u64,
    duplicates: u64,
    retransmits: u64,
}

impl Simulator {
    /// A simulation of `topology` whose delivery jitter, loss and
    /// duplication draw from one RNG seeded with `seed`. Each output
    /// port's wires fire in registration order, and the injections open
    /// the event queue in the order they were recorded.
    #[must_use]
    pub fn new(topology: Topology, seed: u64) -> Self {
        let Topology {
            instances,
            channels,
            wires,
            injections,
        } = topology;
        let mut sim = Simulator {
            instances: instances
                .into_iter()
                .map(|i| Instance {
                    component: i.component,
                    service_time: i.service,
                    busy_until: 0,
                    processed: 0,
                    wires: Vec::new(),
                })
                .collect(),
            channels,
            queue: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(seed),
            next_seq: 0,
            now: 0,
            events_processed: 0,
            messages_delivered: 0,
            duplicates: 0,
            retransmits: 0,
        };
        for w in wires {
            let ports = &mut sim.instances[w.from.0].wires;
            if ports.len() <= w.out_port.0 {
                ports.resize_with(w.out_port.0 + 1, Vec::new);
            }
            ports[w.out_port.0].push(Wire {
                dst: w.to,
                dst_port: w.in_port.0,
                channel: w.channel.0,
                last_delivery: 0,
            });
        }
        for (at, to, port, msg) in injections {
            sim.push_event(at, to, port.0, msg);
        }
        sim
    }

    fn push_event(&mut self, time: Time, instance: InstanceId, port: usize, msg: Message) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event {
            time,
            seq,
            instance,
            port,
            msg,
        }));
    }

    /// Run until the event queue drains. Returns run statistics.
    pub fn run(&mut self) -> RunStats {
        while let Some(Reverse(ev)) = self.queue.pop() {
            self.now = ev.time;
            self.events_processed += 1;
            self.deliver(ev.instance, ev.port, ev.msg, ev.time);
        }
        self.stats()
    }

    fn deliver(&mut self, instance: InstanceId, port: usize, msg: Message, at: Time) {
        self.messages_delivered += 1;
        // `a` = instance, `b` = virtual delivery time: the trace keeps the
        // simulator's own clock alongside the wall-clock timestamp.
        blazes_obs::record(blazes_obs::EventKind::SimDelivery, instance.0 as u64, at);
        let start = self.instances[instance.0].busy_until.max(at);
        let mut ctx = Context::new(start, instance);
        self.instances[instance.0]
            .component
            .on_message(port, msg, &mut ctx);
        self.instances[instance.0].processed += 1;
        self.finish_processing(instance, start, ctx);
    }

    /// Account service time, then dispatch buffered emissions.
    fn finish_processing(&mut self, instance: InstanceId, start: Time, ctx: Context) {
        let service = self.instances[instance.0].service_time;
        let completion = start + service;
        self.instances[instance.0].busy_until = completion;

        assert!(
            !ctx.has_speculative_ops(),
            "{} used speculative emissions, which require the parallel \
             backend with ParTuning::with_speculation — the simulator \
             models blocking coordination only",
            self.instances[instance.0].component.name()
        );
        for (out_port, msg) in ctx.emitted {
            self.send(instance, out_port, msg, completion);
        }
    }

    /// Route a message along every wire of `(instance, out_port)`.
    fn send(&mut self, from: InstanceId, out_port: usize, msg: Message, at: Time) {
        // Collect routing decisions first (borrow discipline).
        let wire_count = self.instances[from.0]
            .wires
            .get(out_port)
            .map_or(0, Vec::len);
        for w in 0..wire_count {
            let (dst, dst_port, channel) = {
                let wire = &self.instances[from.0].wires[out_port][w];
                (wire.dst, wire.dst_port, wire.channel)
            };
            let cfg = self.channels[channel].clone();
            let latency = cfg.base_latency + self.sample_jitter(cfg.jitter);
            let mut deliver_at = at + latency;

            if cfg.loss_prob > 0.0 && self.rng.random::<f64>() < cfg.loss_prob {
                // First transmission lost: retransmit once, always delivered.
                self.retransmits += 1;
                deliver_at += cfg.retransmit_delay + self.sample_jitter(cfg.jitter);
            }
            // TCP-like head-of-line ordering: never deliver before an
            // earlier message on the same wire (ties break by send order via
            // the event sequence number).
            let wm = &mut self.instances[from.0].wires[out_port][w].last_delivery;
            deliver_at = deliver_at.max(*wm);
            *wm = deliver_at;
            self.push_event(deliver_at, dst, dst_port, msg.clone());
            if cfg.duplicate_prob > 0.0 && self.rng.random::<f64>() < cfg.duplicate_prob {
                self.duplicates += 1;
                // A duplicate (retransmitted copy) cannot overtake the stream
                // position either, but it does not advance the watermark, so
                // it may trail later sends on the wire.
                let dup_at = (at + cfg.base_latency + self.sample_jitter(cfg.jitter.max(1)))
                    .max(self.instances[from.0].wires[out_port][w].last_delivery);
                self.push_event(dup_at, dst, dst_port, msg.clone());
            }
        }
    }

    fn sample_jitter(&mut self, jitter: Time) -> Time {
        if jitter == 0 {
            0
        } else {
            self.rng.random_range(0..=jitter)
        }
    }

    /// Snapshot of run statistics.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        RunStats {
            end_time: self.now,
            events_processed: self.events_processed,
            messages_delivered: self.messages_delivered,
            duplicates: self.duplicates,
            retransmits: self.retransmits,
            per_instance: self
                .instances
                .iter()
                .map(|i| InstanceStats {
                    name: i.component.name().to_string(),
                    processed: i.processed,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecutorBuilder, PortId};
    use crate::component::FnComponent;
    use crate::sinks::CollectorSink;
    use crate::value::Value;

    fn echo() -> Box<dyn Component> {
        Box::new(FnComponent::new("echo", |_, msg, ctx: &mut Context| {
            ctx.emit(0, msg);
        }))
    }

    #[test]
    fn single_hop_delivery() {
        let mut b = Topology::new();
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::instant());
        b.inject(0, e, PortId(0), Message::data([1i64]));
        b.inject(0, e, PortId(0), Message::data([2i64]));
        let mut sim = Simulator::new(b, 42);
        let stats = sim.run();
        assert_eq!(sink.len(), 2);
        assert_eq!(stats.messages_delivered, 4); // 2 at echo + 2 at sink
    }

    #[test]
    fn determinism_same_seed_same_order() {
        let run = |seed: u64| -> Vec<Message> {
            let mut b = Topology::new();
            let e = b.add_instance(echo());
            let sink = CollectorSink::new();
            let s = b.add_instance(Box::new(sink.clone()));
            b.connect_with(
                e,
                PortId(0),
                s,
                PortId(0),
                ChannelConfig::lan().with_jitter(5_000),
            );
            for i in 0..50i64 {
                b.inject(0, e, PortId(0), Message::data([i]));
            }
            Simulator::new(b, seed).run();
            sink.messages()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_seeds_reorder_across_producers() {
        // Two producers race into one sink; the interleaving depends on the
        // seed (per-wire FIFO holds, cross-wire order does not).
        let run = |seed: u64| -> Vec<Message> {
            let mut b = Topology::new();
            let e1 = b.add_instance(echo());
            let e2 = b.add_instance(echo());
            let sink = CollectorSink::new();
            let s = b.add_instance(Box::new(sink.clone()));
            b.connect_with(
                e1,
                PortId(0),
                s,
                PortId(0),
                ChannelConfig::lan().with_jitter(50_000),
            );
            b.connect_with(
                e2,
                PortId(0),
                s,
                PortId(0),
                ChannelConfig::lan().with_jitter(50_000),
            );
            for i in 0..25i64 {
                b.inject(0, e1, PortId(0), Message::data([i]));
                b.inject(0, e2, PortId(0), Message::data([100 + i]));
            }
            Simulator::new(b, seed).run();
            sink.messages()
        };
        assert_ne!(run(1), run(2));
    }

    /// Per-wire send order survives jitter, and retransmission delays too.
    #[test]
    fn fifo_channel_preserves_send_order() {
        let lossless = [(ChannelConfig::lan().with_jitter(50_000), 12)];
        let lossy = (0..4).map(|seed| {
            (
                ChannelConfig::lan().with_jitter(50_000).with_loss(0.5),
                seed,
            )
        });
        for (cfg, seed) in lossless.into_iter().chain(lossy) {
            let mut b = Topology::new();
            let e = b.add_instance(echo());
            let sink = CollectorSink::new();
            let s = b.add_instance(Box::new(sink.clone()));
            b.connect_with(e, PortId(0), s, PortId(0), cfg.clone());
            for i in 0..50i64 {
                b.inject(0, e, PortId(0), Message::data([i]));
            }
            let stats = Simulator::new(b, seed).run();
            assert_eq!(stats.retransmits > 0, cfg.loss_prob > 0.0, "seed {seed}");
            let expected: Vec<Message> = (0..50i64).map(|i| Message::data([i])).collect();
            assert_eq!(sink.messages(), expected, "seed {seed}");
        }
    }

    /// A duplicate does not advance its wire's watermark, so it can arrive
    /// after messages sent later on the same wire. This is why a seal gate
    /// can see a record after its partition sealed (`late_forwards`) even
    /// though every wire is FIFO.
    #[test]
    fn a_duplicate_may_trail_later_sends_on_its_wire() {
        let trailing = (0..8u64).any(|seed| {
            let mut b = Topology::new();
            let e = b.add_instance(echo());
            let sink = CollectorSink::new();
            let s = b.add_instance(Box::new(sink.clone()));
            let cfg = ChannelConfig::lan()
                .with_jitter(50_000)
                .with_duplicates(0.5);
            b.connect_with(e, PortId(0), s, PortId(0), cfg);
            for i in 0..20i64 {
                b.inject(0, e, PortId(0), Message::data([i]));
            }
            Simulator::new(b, seed).run();
            let sent: Vec<Message> = (0..20i64).map(|i| Message::data([i])).collect();
            let rank = |m: &Message| sent.iter().position(|x| x == m).expect("sent");
            let got: Vec<usize> = sink.messages().iter().map(rank).collect();
            let mut firsts = Vec::new();
            for &r in &got {
                if !firsts.contains(&r) {
                    firsts.push(r);
                }
            }
            assert_eq!(
                firsts,
                (0..20).collect::<Vec<_>>(),
                "seed {seed}: first copies keep send order"
            );
            // Some copy arrives after a message sent later than it.
            got.iter()
                .enumerate()
                .any(|(i, &r)| got[..i].iter().any(|&earlier| earlier > r))
        });
        assert!(
            trailing,
            "no seed delivered a duplicate behind a later send"
        );
    }

    #[test]
    fn service_time_serializes_processing() {
        // With a 1000 µs service time, 10 messages take >= 10_000 µs to
        // drain through a single instance.
        let mut b = Topology::new();
        let e = b.add_instance(echo());
        b.set_service_time(e, 1_000);
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::instant());
        for i in 0..10i64 {
            b.inject(0, e, PortId(0), Message::data([i]));
        }
        let mut sim = Simulator::new(b, 0);
        let stats = sim.run();
        assert!(stats.end_time >= 10_000, "end={}", stats.end_time);
    }

    #[test]
    fn duplicates_are_delivered() {
        let mut b = Topology::new();
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(
            e,
            PortId(0),
            s,
            PortId(0),
            ChannelConfig::instant().with_duplicates(1.0),
        );
        b.inject(0, e, PortId(0), Message::data([1i64]));
        let mut sim = Simulator::new(b, 3);
        let stats = sim.run();
        assert_eq!(stats.duplicates, 1);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn lost_messages_are_retransmitted() {
        let mut b = Topology::new();
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(
            e,
            PortId(0),
            s,
            PortId(0),
            ChannelConfig::lan().with_loss(1.0),
        );
        b.inject(0, e, PortId(0), Message::data([1i64]));
        let mut sim = Simulator::new(b, 5);
        let stats = sim.run();
        assert_eq!(stats.retransmits, 1);
        // Still delivered exactly once, just late.
        assert_eq!(sink.len(), 1);
        let (t, _) = sink.entries()[0];
        assert!(t >= 10_000, "retransmit delay applied: {t}");
    }

    #[test]
    fn fan_out_delivers_to_all_wires() {
        let mut b = Topology::new();
        let e = b.add_instance(echo());
        let s1 = CollectorSink::new();
        let s2 = CollectorSink::new();
        let i1 = b.add_instance(Box::new(s1.clone()));
        let i2 = b.add_instance(Box::new(s2.clone()));
        let ch = b.add_channel(ChannelConfig::instant());
        b.connect(e, PortId(0), i1, PortId(0), ch);
        b.connect(e, PortId(0), i2, PortId(0), ch);
        b.inject(
            0,
            e,
            PortId(0),
            Message::Data(crate::value::Tuple::new([Value::Int(9)])),
        );
        Simulator::new(b, 0).run();
        assert_eq!(s1.len(), 1);
        assert_eq!(s2.len(), 1);
    }
}
