//! The discrete-event simulator.
//!
//! Events (message deliveries and timer ticks) are processed in virtual-time
//! order with a deterministic tiebreak (insertion sequence). All randomness
//! — delivery jitter, duplication, loss — comes from a single seeded RNG, so
//! a `(topology, workload, seed)` triple fully determines a run. Varying the
//! seed varies delivery interleavings, which is exactly the nondeterminism
//! the Blazes analysis reasons about.
//!
//! Instances process messages sequentially: each has a per-message *service
//! time*; an instance that is still busy when a delivery fires starts
//! processing at its `busy_until` watermark. Queueing delay is therefore
//! modeled without explicit queues.

use crate::backend::{ChannelId, PortId};
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

#[derive(Debug)]
enum EventKind {
    Deliver {
        instance: InstanceId,
        port: usize,
        msg: Message,
    },
    Tick {
        instance: InstanceId,
    },
}

#[derive(Debug)]
struct Event {
    time: Time,
    seq: u64,
    kind: EventKind,
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
    /// Latest delivery time scheduled on this wire, for FIFO channels.
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

/// Builder for a simulation: add instances, wire ports, inject inputs.
pub struct SimBuilder {
    instances: Vec<Instance>,
    channels: Vec<ChannelConfig>,
    injected: Vec<(Time, InstanceId, PortId, Message)>,
    seed: u64,
}

impl SimBuilder {
    /// Start a new simulation with the given RNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            instances: Vec::new(),
            channels: Vec::new(),
            injected: Vec::new(),
            seed,
        }
    }

    /// Add a component instance with the default (zero) service time.
    pub fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        let id = InstanceId(self.instances.len());
        self.instances.push(Instance {
            component,
            service_time: 0,
            busy_until: 0,
            processed: 0,
            wires: Vec::new(),
        });
        id
    }

    /// Set the per-message service time of an instance.
    pub fn set_service_time(&mut self, id: InstanceId, service: Time) {
        self.instances[id.0].service_time = service;
    }

    /// Register a channel configuration and return its handle for reuse.
    pub fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        self.channels.push(cfg);
        ChannelId(self.channels.len() - 1)
    }

    /// Wire output `out_port` of `from` to input `in_port` of `to` over the
    /// channel registered as `channel`.
    pub fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        assert!(channel.0 < self.channels.len(), "unknown channel handle");
        let wires = &mut self.instances[from.0].wires;
        if wires.len() <= out_port.0 {
            wires.resize_with(out_port.0 + 1, Vec::new);
        }
        wires[out_port.0].push(Wire {
            dst: to,
            dst_port: in_port.0,
            channel: channel.0,
            last_delivery: 0,
        });
    }

    /// Convenience: wire with a fresh channel config.
    pub fn connect_with(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        cfg: ChannelConfig,
    ) {
        let ch = self.add_channel(cfg);
        self.connect(from, out_port, to, in_port, ch);
    }

    /// Inject an external message (e.g. source input) at virtual time `at`.
    pub fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        self.injected.push((at, to, port, msg));
    }

    /// Finalize into a runnable [`Simulator`].
    #[must_use]
    pub fn build(self) -> Simulator {
        let mut sim = Simulator {
            instances: self.instances,
            channels: self.channels,
            queue: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(self.seed),
            next_seq: 0,
            now: 0,
            events_processed: 0,
            messages_delivered: 0,
            duplicates: 0,
            retransmits: 0,
        };
        for (at, to, port, msg) in self.injected {
            sim.push_event(
                at,
                EventKind::Deliver {
                    instance: to,
                    port: port.0,
                    msg,
                },
            );
        }
        sim
    }
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
    fn push_event(&mut self, time: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Inject a message while running (e.g. from an external driver).
    pub fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        let at = at.max(self.now);
        self.push_event(
            at,
            EventKind::Deliver {
                instance: to,
                port: port.0,
                msg,
            },
        );
    }

    /// Run until the event queue drains or virtual time exceeds `until`
    /// (if given). Returns run statistics.
    pub fn run(&mut self, until: Option<Time>) -> RunStats {
        while let Some(Reverse(ev)) = self.queue.pop() {
            if let Some(limit) = until {
                if ev.time > limit {
                    // Leave the event for a later resume.
                    self.queue.push(Reverse(ev));
                    break;
                }
            }
            self.now = ev.time;
            self.events_processed += 1;
            match ev.kind {
                EventKind::Deliver {
                    instance,
                    port,
                    msg,
                } => {
                    self.deliver(instance, port, msg, ev.time);
                }
                EventKind::Tick { instance } => {
                    let start = self.instances[instance.0].busy_until.max(ev.time);
                    let mut ctx = Context::new(start, instance);
                    self.instances[instance.0].component.on_tick(&mut ctx);
                    self.finish_processing(instance, start, ctx);
                }
            }
        }
        let stats = self.stats();
        if blazes_obs::enabled() {
            stats.export_metrics(blazes_obs::global().registry());
        }
        stats
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

    /// Account service time, then dispatch buffered emissions and ticks.
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
        let Context { emitted, ticks, .. } = ctx;
        for (out_port, msg) in emitted {
            self.send(instance, out_port, msg, completion);
        }
        for delay in ticks {
            self.push_event(completion + delay, EventKind::Tick { instance });
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
            if cfg.fifo {
                // TCP-like head-of-line ordering: never deliver before an
                // earlier message on the same wire (ties break by send
                // order via the event sequence number).
                let wm = &mut self.instances[from.0].wires[out_port][w].last_delivery;
                deliver_at = deliver_at.max(*wm);
                *wm = deliver_at;
            }
            self.push_event(
                deliver_at,
                EventKind::Deliver {
                    instance: dst,
                    port: dst_port,
                    msg: msg.clone(),
                },
            );
            if cfg.duplicate_prob > 0.0 && self.rng.random::<f64>() < cfg.duplicate_prob {
                self.duplicates += 1;
                let mut dup_at = at + cfg.base_latency + self.sample_jitter(cfg.jitter.max(1));
                if cfg.fifo {
                    // A duplicate (retransmitted copy) cannot overtake the
                    // stream position either; it does not advance the
                    // watermark.
                    dup_at = dup_at.max(self.instances[from.0].wires[out_port][w].last_delivery);
                }
                self.push_event(
                    dup_at,
                    EventKind::Deliver {
                        instance: dst,
                        port: dst_port,
                        msg: msg.clone(),
                    },
                );
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
                    busy_until: i.busy_until,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut b = SimBuilder::new(42);
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::instant());
        b.inject(0, e, PortId(0), Message::data([1i64]));
        b.inject(0, e, PortId(0), Message::data([2i64]));
        let mut sim = b.build();
        let stats = sim.run(None);
        assert_eq!(sink.len(), 2);
        assert_eq!(stats.messages_delivered, 4); // 2 at echo + 2 at sink
    }

    #[test]
    fn determinism_same_seed_same_order() {
        let run = |seed: u64| -> Vec<Message> {
            let mut b = SimBuilder::new(seed);
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
            b.build().run(None);
            sink.messages()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_seeds_reorder_across_producers() {
        // Two producers race into one sink; the interleaving depends on the
        // seed (per-wire FIFO holds, cross-wire order does not).
        let run = |seed: u64| -> Vec<Message> {
            let mut b = SimBuilder::new(seed);
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
            b.build().run(None);
            sink.messages()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn non_fifo_channel_reorders_single_wire() {
        let run = |seed: u64| -> Vec<Message> {
            let mut b = SimBuilder::new(seed);
            let e = b.add_instance(echo());
            let sink = CollectorSink::new();
            let s = b.add_instance(Box::new(sink.clone()));
            b.connect_with(
                e,
                PortId(0),
                s,
                PortId(0),
                ChannelConfig {
                    fifo: false,
                    ..ChannelConfig::lan().with_jitter(50_000)
                },
            );
            for i in 0..50i64 {
                b.inject(0, e, PortId(0), Message::data([i]));
            }
            b.build().run(None);
            sink.messages()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn fifo_channel_preserves_send_order() {
        let mut b = SimBuilder::new(12);
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(
            e,
            PortId(0),
            s,
            PortId(0),
            ChannelConfig::lan().with_jitter(50_000),
        );
        for i in 0..50i64 {
            b.inject(0, e, PortId(0), Message::data([i]));
        }
        b.build().run(None);
        let expected: Vec<Message> = (0..50i64).map(|i| Message::data([i])).collect();
        assert_eq!(sink.messages(), expected);
    }

    #[test]
    fn service_time_serializes_processing() {
        // With a 1000 µs service time, 10 messages take >= 10_000 µs to
        // drain through a single instance.
        let mut b = SimBuilder::new(0);
        let e = b.add_instance(echo());
        b.set_service_time(e, 1_000);
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::instant());
        for i in 0..10i64 {
            b.inject(0, e, PortId(0), Message::data([i]));
        }
        let mut sim = b.build();
        let stats = sim.run(None);
        assert!(stats.end_time >= 10_000, "end={}", stats.end_time);
    }

    #[test]
    fn duplicates_are_delivered() {
        let mut b = SimBuilder::new(3);
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
        let mut sim = b.build();
        let stats = sim.run(None);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn lost_messages_are_retransmitted() {
        let mut b = SimBuilder::new(5);
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
        let mut sim = b.build();
        let stats = sim.run(None);
        assert_eq!(stats.retransmits, 1);
        // Still delivered exactly once, just late.
        assert_eq!(sink.len(), 1);
        let (t, _) = sink.entries()[0];
        assert!(t >= 10_000, "retransmit delay applied: {t}");
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut b = SimBuilder::new(0);
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::instant());
        b.inject(0, e, PortId(0), Message::data([1i64]));
        b.inject(1_000_000, e, PortId(0), Message::data([2i64]));
        let mut sim = b.build();
        sim.run(Some(500_000));
        assert_eq!(sink.len(), 1);
        sim.run(None);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn ticks_fire_after_delay() {
        struct Ticker {
            fired: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl Component for Ticker {
            fn on_message(&mut self, _: usize, _: Message, ctx: &mut Context) {
                ctx.schedule_tick(5_000);
            }
            fn on_tick(&mut self, ctx: &mut Context) {
                assert!(ctx.now >= 5_000);
                self.fired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            fn name(&self) -> &str {
                "ticker"
            }
        }
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut b = SimBuilder::new(0);
        let t = b.add_instance(Box::new(Ticker {
            fired: fired.clone(),
        }));
        b.inject(0, t, PortId(0), Message::Eos);
        b.build().run(None);
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn fan_out_delivers_to_all_wires() {
        let mut b = SimBuilder::new(0);
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
        b.build().run(None);
        assert_eq!(s1.len(), 1);
        assert_eq!(s2.len(), 1);
    }
}
