//! Adversarial stress tests for the mailbox hot path: many
//! concurrent producers hammering one consumer with the fault RNG active,
//! on unbounded mailboxes drained in tiny batches so activations migrate
//! between workers mid-stream. The proof obligations: per-wire FIFO
//! survives, nothing is lost or duplicated beyond what the fault channels
//! injected, cyclic topologies still quiesce, and digests stay identical
//! across `{1,2,4,8}` workers and (as sets — the simulator draws
//! faults from one global stream, the parallel backend from per-wire
//! streams) against the simulator.
//!
//! CI runs this file in release mode, single-threaded, in a repeat loop,
//! to shake out interleavings one run misses. Every par run goes through
//! [`common::run_within_deadline`], so a lost wakeup fails the run it
//! hangs, by name.

mod common;

use blazes::dataflow::backend::{ExecutorBuilder, PortId, Topology};
use blazes::dataflow::channel::ChannelConfig;
use blazes::dataflow::component::{Component, Context, FnComponent};
use blazes::dataflow::message::Message;
use blazes::dataflow::par::{ParBuilder, ParStats, ParTuning};
use blazes::dataflow::sim::Simulator;
use blazes::dataflow::sinks::CollectorSink;
use blazes::dataflow::value::Value;
use common::run_within_deadline;
use std::collections::BTreeSet;

/// CI's speculation matrix dimension: `BLAZES_SPECULATION=1` reruns the
/// whole file with the speculation-aware delivery path enabled. No gate
/// ever opens an epoch here, so every assertion must hold unchanged — the
/// time-warp machinery must cost nothing but its branch when idle.
fn speculation() -> bool {
    std::env::var("BLAZES_SPECULATION").is_ok_and(|v| v == "1")
}

/// A tiny drain batch: maximum scheduler churn.
fn churn(batch_size: usize) -> ParTuning {
    ParTuning {
        batch_size,
        ..ParTuning::default()
    }
    .with_speculation(speculation())
}

fn echo() -> Box<dyn Component> {
    Box::new(FnComponent::new("echo", |_, msg, ctx: &mut Context| {
        ctx.emit(0, msg)
    }))
}

/// `(producer, seq)` of a delivered tuple.
fn tag(msg: &Message) -> (i64, i64) {
    let t = msg.as_data().expect("data tuple");
    (
        t.get(0).and_then(Value::as_int).expect("producer column"),
        t.get(1).and_then(Value::as_int).expect("seq column"),
    )
}

/// N concurrent producers, each on its own faulty wire into one consumer:
/// per-wire FIFO must hold at the consumer, every send must arrive
/// (losses are retried), and nothing may arrive beyond the sends plus the
/// duplicates the fault RNG injected.
#[test]
fn producers_hammer_one_consumer_without_loss_or_reorder() {
    let producers = 8i64;
    let per = 300i64;
    let mut b = ParBuilder::new(0xB10C)
        .with_workers(4)
        .with_tuning(churn(3))
        .unwrap();
    let sink = CollectorSink::new();
    let s = b.add_instance(Box::new(sink.clone()));
    for p in 0..producers {
        let e = b.add_instance(echo());
        b.connect_with(
            e,
            PortId(0),
            s,
            PortId(0),
            ChannelConfig::lan().with_loss(0.2).with_duplicates(0.15),
        );
        for i in 0..per {
            b.inject(0, e, PortId(0), Message::data([p, i]));
        }
    }
    let stats = run_within_deadline("producers into one consumer", b.build());

    // At-least-once, exactly the injected payloads: every (p, i) arrives,
    // and total arrivals equal sends plus injected duplicates.
    let total_sent = (producers * per) as u64;
    assert_eq!(sink.len() as u64, total_sent + stats.duplicates);
    assert!(stats.retransmits > 0, "loss must have fired");
    assert!(stats.duplicates > 0, "duplication must have fired");

    // Per-wire FIFO: each producer's subsequence at the consumer is
    // non-decreasing (duplicates repeat a seq, nothing overtakes), and
    // complete.
    let mut last = vec![-1i64; producers as usize];
    let mut seen: Vec<BTreeSet<i64>> = vec![BTreeSet::new(); producers as usize];
    for msg in sink.messages() {
        let (p, i) = tag(&msg);
        assert!(
            i >= last[p as usize],
            "wire {p} reordered: {i} after {}",
            last[p as usize]
        );
        last[p as usize] = i;
        seen[p as usize].insert(i);
    }
    let full: BTreeSet<i64> = (0..per).collect();
    for (p, s) in seen.iter().enumerate() {
        assert_eq!(s, &full, "wire {p} lost messages");
    }
}

/// One fan-in topology under faults, swept over `{1,2,4,8}` workers: the
/// delivered multiset and the fault counts must be bit-identical across
/// every parallel configuration (per-wire RNG streams), and the delivered
/// *set* must match the seeded simulator (at-least-once collapses to the
/// same set even though the simulator draws faults from one global
/// stream).
#[test]
fn digest_identity_across_worker_counts_schedulers_and_sim() {
    let assemble = |b: &mut dyn blazes::dataflow::backend::ExecutorBuilder| {
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        for p in 0..3i64 {
            let e = b.add_instance(echo());
            let mid = b.add_instance(echo());
            let ch = b.add_channel(ChannelConfig::lan().with_loss(0.3).with_duplicates(0.2));
            b.connect(e, PortId(0), mid, PortId(0), ch);
            let ch2 = b.add_channel(ChannelConfig::lan().with_duplicates(0.25));
            b.connect(mid, PortId(0), s, PortId(0), ch2);
            for i in 0..200i64 {
                b.inject(0, e, PortId(0), Message::data([p, i]));
            }
        }
        sink
    };

    let mut sim = Topology::new();
    let sim_sink = assemble(&mut sim);
    let _ = Simulator::new(sim, 42).run();
    let sim_set = sim_sink.message_set();
    let expected: BTreeSet<Message> = (0..3i64)
        .flat_map(|p| (0..200i64).map(move |i| Message::data([p, i])))
        .collect();
    assert_eq!(sim_set, expected, "simulator digest wrong");

    let run_par = |workers: usize, tuning: ParTuning| -> (Vec<Message>, ParStats) {
        let mut b = ParBuilder::new(42)
            .with_workers(workers)
            .with_tuning(tuning.with_speculation(speculation()))
            .unwrap();
        let sink = assemble(&mut b);
        let stats = run_within_deadline(&format!("fan-in at {workers}w"), b.build());
        let mut msgs = sink.messages();
        msgs.sort();
        (msgs, stats)
    };

    let (baseline_msgs, baseline_stats) = run_par(1, ParTuning::default());
    assert!(baseline_stats.duplicates > 0 && baseline_stats.retransmits > 0);
    for workers in [1usize, 2, 4, 8] {
        let (msgs, stats) = run_par(workers, churn(5));
        let set: BTreeSet<Message> = msgs.iter().cloned().collect();
        assert_eq!(set, sim_set, "par set diverged from sim at {workers}w");
        assert_eq!(msgs, baseline_msgs, "multiset diverged at {workers}w");
        assert_eq!(
            (stats.duplicates, stats.retransmits),
            (baseline_stats.duplicates, baseline_stats.retransmits),
            "fault schedule diverged at {workers}w"
        );
    }
}

/// A cyclic topology drained one message per activation, with the fault
/// RNG active, must still quiesce across worker counts: termination
/// detection has to see through tokens that keep re-entering mailboxes.
#[test]
fn cycles_quiesce_under_faults() {
    for workers in [1usize, 2, 4, 8] {
        let mut b = ParBuilder::new(7)
            .with_workers(workers)
            .with_tuning(churn(1))
            .unwrap();
        // A ring of decrementers: a token circulates until it hits zero.
        // Duplicated control-channel deliveries multiply tokens; each
        // duplicate decrements monotonically, so the run still terminates.
        let hops: Vec<_> = (0..3)
            .map(|h| {
                b.add_instance(Box::new(FnComponent::new(
                    format!("hop[{h}]"),
                    |_, msg: Message, ctx: &mut Context| {
                        if let Some(t) = msg.as_data() {
                            let v = t.get(0).and_then(Value::as_int).unwrap();
                            if v > 0 {
                                ctx.emit(0, Message::data([v - 1]));
                            }
                        }
                    },
                )))
            })
            .collect();
        for h in 0..3 {
            b.connect_with(
                hops[h],
                PortId(0),
                hops[(h + 1) % 3],
                PortId(0),
                ChannelConfig::lan().with_loss(0.3).with_duplicates(0.1),
            );
        }
        for t in 0..4i64 {
            b.inject(0, hops[0], PortId(0), Message::data([30 + t]));
        }
        let stats = run_within_deadline(&format!("ring at {workers}w"), b.build());
        // Termination IS the assertion; sanity-check volume: each token
        // takes at least `value` hops.
        assert!(
            stats.messages_delivered >= 4 * 30,
            "ring quiesced too early at {workers}w"
        );
    }
}
