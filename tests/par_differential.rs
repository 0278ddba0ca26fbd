//! Differential tests: the multi-worker parallel executor must agree with
//! the seeded discrete-event simulator on every *confluent*
//! (order-insensitive) topology — the paper's CALM argument made
//! executable. Each topology is assembled once, generically over
//! [`ExecutorBuilder`], and run on both backends — and on the parallel
//! backend under every tuning variant: default and small drain batches.
//! Every par run goes through [`common::run_within_deadline`], so a lost
//! wakeup fails the run it hangs, by name.

mod common;

use blazes::coord::registry::ProducerRegistry;
use blazes::coord::seal::{SealManager, SealOutcome};
use blazes::dataflow::backend::{ExecutorBuilder, PortId, Topology};
use blazes::dataflow::channel::ChannelConfig;
use blazes::dataflow::component::{Component, Context, FnComponent};
use blazes::dataflow::message::{Message, SealKey};
use blazes::dataflow::par::{ParBuilder, ParTuning};
use blazes::dataflow::sim::Simulator;
use blazes::dataflow::sinks::CollectorSink;
use blazes::dataflow::value::{Tuple, Value};
use common::run_within_deadline;
use std::collections::BTreeSet;

fn echo() -> Box<dyn Component> {
    Box::new(FnComponent::new("echo", |_, msg, ctx: &mut Context| {
        ctx.emit(0, msg)
    }))
}

/// Every tuning variant a topology must agree under.
fn tuning_variants() -> Vec<(&'static str, ParTuning)> {
    vec![
        ("default", ParTuning::default()),
        (
            "batch-3",
            ParTuning {
                batch_size: 3,
                ..ParTuning::default()
            },
        ),
        (
            "batch-8",
            ParTuning {
                batch_size: 8,
                ..ParTuning::default()
            },
        ),
    ]
}

/// Topology 1: three producers fan in to one sink (cross-producer
/// interleaving is the only nondeterminism).
fn fan_in<B: ExecutorBuilder>(b: &mut B, sink: CollectorSink) {
    let producers: Vec<_> = (0..3).map(|_| b.add_instance(echo())).collect();
    let s = b.add_instance(Box::new(sink));
    for (k, &p) in producers.iter().enumerate() {
        b.connect_with(
            p,
            PortId(0),
            s,
            PortId(0),
            ChannelConfig::lan().with_jitter(20_000),
        );
        for i in 0..40i64 {
            b.inject(0, p, PortId(0), Message::data([k as i64 * 1_000 + i]));
        }
    }
}

/// Topology 2: a map pipeline — echo -> doubler -> sink.
fn pipeline<B: ExecutorBuilder>(b: &mut B, sink: CollectorSink) {
    let src = b.add_instance(echo());
    let doubler = b.add_instance(Box::new(FnComponent::new(
        "doubler",
        |_, msg: Message, ctx: &mut Context| {
            if let Some(t) = msg.as_data() {
                let v = t.get(0).and_then(Value::as_int).expect("int tuple");
                ctx.emit(0, Message::data([v * 2]));
            } else {
                ctx.emit(0, msg);
            }
        },
    )));
    let s = b.add_instance(Box::new(sink));
    b.connect_with(
        src,
        PortId(0),
        doubler,
        PortId(0),
        ChannelConfig::lan().with_jitter(5_000),
    );
    b.connect_with(
        doubler,
        PortId(0),
        s,
        PortId(0),
        ChannelConfig::lan().with_jitter(5_000),
    );
    for i in 0..60i64 {
        b.inject(0, src, PortId(0), Message::data([i]));
    }
}

/// An EOS-punctuated aggregator: sums tuples from `expected` upstream
/// producers and emits the grand total once every producer has signalled
/// end-of-stream. Commutative in the data, gated by punctuations.
struct EosSum {
    expected: usize,
    seen_eos: usize,
    sum: i64,
}

impl Component for EosSum {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(t) => {
                self.sum += t.get(0).and_then(Value::as_int).expect("int tuple");
            }
            Message::Eos => {
                self.seen_eos += 1;
                if self.seen_eos == self.expected {
                    ctx.emit(0, Message::data([self.sum]));
                }
            }
            Message::Seal(_) => {}
        }
    }

    fn name(&self) -> &str {
        "eos-sum"
    }
}

/// Topology 3: a diamond — two producers feed an EOS-gated aggregate which
/// publishes a single total.
fn diamond<B: ExecutorBuilder>(b: &mut B, sink: CollectorSink) {
    let p1 = b.add_instance(echo());
    let p2 = b.add_instance(echo());
    let agg = b.add_instance(Box::new(EosSum {
        expected: 2,
        seen_eos: 0,
        sum: 0,
    }));
    let s = b.add_instance(Box::new(sink));
    b.connect_with(
        p1,
        PortId(0),
        agg,
        PortId(0),
        ChannelConfig::lan().with_jitter(10_000),
    );
    b.connect_with(
        p2,
        PortId(0),
        agg,
        PortId(0),
        ChannelConfig::lan().with_jitter(10_000),
    );
    b.connect_with(agg, PortId(0), s, PortId(0), ChannelConfig::instant());
    for i in 1..=30i64 {
        b.inject(0, p1, PortId(0), Message::data([i]));
        b.inject(0, p2, PortId(0), Message::data([100 + i]));
    }
    // Punctuations close each producer's stream; per-wire FIFO guarantees
    // they arrive after the data they cover.
    b.inject(1, p1, PortId(0), Message::Eos);
    b.inject(1, p2, PortId(0), Message::Eos);
}

/// A hop in a cyclic topology: `[id, ttl]` tuples loop (port 0) until their
/// ttl runs out, then exit to the sink (port 1). Deterministic final
/// output whatever the interleaving: each id exits exactly once.
fn looper(name: &str) -> Box<dyn Component> {
    Box::new(FnComponent::new(
        name.to_string(),
        |_, msg: Message, ctx: &mut Context| {
            let Some(t) = msg.as_data() else { return };
            let id = t.get(0).and_then(Value::as_int).expect("id");
            let ttl = t.get(1).and_then(Value::as_int).expect("ttl");
            if ttl > 0 {
                ctx.emit(0, Message::data([id, ttl - 1]));
            } else {
                ctx.emit(1, Message::data([id]));
            }
        },
    ))
}

/// Topology 4: a cycle — A -> B -> A, with both hops exiting drained
/// messages to the sink. Cycles are where naive termination detection
/// never quiesces.
fn cyclic<B: ExecutorBuilder>(b: &mut B, sink: CollectorSink) {
    let a = b.add_instance(looper("loop-a"));
    let bb = b.add_instance(looper("loop-b"));
    let s = b.add_instance(Box::new(sink));
    b.connect_with(
        a,
        PortId(0),
        bb,
        PortId(0),
        ChannelConfig::lan().with_jitter(3_000),
    );
    b.connect_with(
        bb,
        PortId(0),
        a,
        PortId(0),
        ChannelConfig::lan().with_jitter(3_000),
    );
    b.connect_with(a, PortId(1), s, PortId(0), ChannelConfig::instant());
    b.connect_with(bb, PortId(1), s, PortId(0), ChannelConfig::instant());
    for id in 0..24i64 {
        // Varied ttl so exits spread across both hops and loop depths.
        b.inject(0, a, PortId(0), Message::data([id, id % 7]));
    }
}

/// Topology 5: one producer chain replicated into three sinks — every
/// replica must observe the complete stream (per-wire FIFO per replica).
/// The three sinks are wired through one shared channel handle, matching
/// how the storm layer fans out a grouping.
fn replicated_sinks<B: ExecutorBuilder>(b: &mut B, sinks: &[CollectorSink]) {
    let src = b.add_instance(echo());
    let relay = b.add_instance(echo());
    b.connect_with(
        src,
        PortId(0),
        relay,
        PortId(0),
        ChannelConfig::lan().with_jitter(8_000),
    );
    let ch = b.add_channel(ChannelConfig::lan().with_jitter(8_000));
    for sink in sinks {
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect(relay, PortId(0), s, PortId(0), ch);
    }
    for i in 0..80i64 {
        b.inject(0, src, PortId(0), Message::data([i]));
    }
}

/// Assemble on the simulator and the parallel executor, run both under
/// every tuning variant, compare final sink sets.
fn assert_backends_agree(name: &str, assemble: impl Fn(&mut dyn ExecutorBuilder, CollectorSink)) {
    let sim_sink = CollectorSink::new();
    let mut sim = Topology::new();
    assemble(&mut sim, sim_sink.clone());
    Simulator::new(sim, 42).run();
    assert!(!sim_sink.is_empty(), "{name}: simulator produced no output");

    for (variant, tuning) in tuning_variants() {
        for workers in [1usize, 2, 4] {
            let par_sink = CollectorSink::new();
            let mut par = ParBuilder::new(42)
                .with_workers(workers)
                .with_tuning(tuning)
                .expect("valid tuning");
            assemble(&mut par, par_sink.clone());
            let stats = run_within_deadline(&format!("{name}/{variant}/{workers}w"), par.build());
            assert!(
                stats.messages_delivered > 0,
                "{name}/{variant}: no deliveries under par"
            );
            assert_eq!(
                par_sink.message_set(),
                sim_sink.message_set(),
                "{name}/{variant}: parallel ({workers} workers) diverged from simulator"
            );
            // Sets cannot see duplicate deliveries — counts must match too.
            assert_eq!(
                par_sink.len(),
                sim_sink.len(),
                "{name}/{variant}: parallel ({workers} workers) duplicated or dropped deliveries"
            );
        }
    }
}

#[test]
fn fan_in_matches_simulator() {
    assert_backends_agree("fan-in", |mut b, sink| fan_in(&mut b, sink));
}

#[test]
fn pipeline_matches_simulator() {
    assert_backends_agree("pipeline", |mut b, sink| pipeline(&mut b, sink));
}

#[test]
fn diamond_matches_simulator() {
    assert_backends_agree("diamond", |mut b, sink| diamond(&mut b, sink));
}

#[test]
fn cyclic_topology_matches_simulator() {
    assert_backends_agree("cyclic", |mut b, sink| cyclic(&mut b, sink));
}

#[test]
fn replicated_sinks_match_simulator_on_every_replica() {
    const REPLICAS: usize = 3;
    let sim_sinks: Vec<CollectorSink> = (0..REPLICAS).map(|_| CollectorSink::new()).collect();
    let mut sim = Topology::new();
    replicated_sinks(&mut sim, &sim_sinks);
    Simulator::new(sim, 42).run();
    let expected: Vec<Message> = (0..80i64).map(|i| Message::data([i])).collect();
    for sink in &sim_sinks {
        assert_eq!(sink.message_set().len(), 80, "simulator replica complete");
    }

    for (variant, tuning) in tuning_variants() {
        for workers in [2usize, 4] {
            let par_sinks: Vec<CollectorSink> =
                (0..REPLICAS).map(|_| CollectorSink::new()).collect();
            let mut par = ParBuilder::new(42)
                .with_workers(workers)
                .with_tuning(tuning)
                .expect("valid tuning");
            replicated_sinks(&mut par, &par_sinks);
            let _ = run_within_deadline(
                &format!("replicated-sinks/{variant}/{workers}w"),
                par.build(),
            );
            for (r, sink) in par_sinks.iter().enumerate() {
                // Per-wire FIFO: each replica sees the full stream in send
                // order, not just the same set.
                assert_eq!(
                    sink.messages(),
                    expected,
                    "{variant}: replica {r} broke order or completeness ({workers} workers)"
                );
            }
        }
    }
}

/// A sealing consumer: buffers per-campaign tuples in a [`SealManager`]
/// and, when a partition's seal votes complete, emits one summary tuple
/// `(campaign, buffered_count)`. Panics on data arriving after its
/// partition released — the ordering violation per-wire FIFO must rule
/// out.
struct SealingConsumer {
    mgr: SealManager,
}

impl Component for SealingConsumer {
    fn on_message(&mut self, port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(t) => {
                let campaign = t.get(0).cloned().expect("campaign column");
                let out = self.mgr.on_data(campaign, t);
                assert!(out.is_none(), "data after release: {out:?}");
            }
            Message::Seal(key) => {
                let campaign = key.value_of("campaign").cloned().expect("campaign seal");
                if let SealOutcome::Released(tuples) = self.mgr.on_seal(campaign.clone(), port) {
                    ctx.emit(
                        0,
                        Message::Data(Tuple(vec![campaign, Value::Int(tuples.len() as i64)])),
                    );
                }
            }
            Message::Eos => {}
        }
    }

    fn name(&self) -> &str {
        "sealing-consumer"
    }
}

/// The sealing workload: `producers` servers each emit `records(campaign)`
/// records for every campaign, then seal it. Producer `k` feeds consumer
/// port `k` (its producer id in the registry).
fn sealed_topology<B: ExecutorBuilder>(
    b: &mut B,
    sink: CollectorSink,
    producers: usize,
    campaigns: i64,
    records: impl Fn(i64) -> usize,
) {
    let consumer = b.add_instance(Box::new(SealingConsumer {
        mgr: SealManager::new(ProducerRegistry::all_produce(0..producers)),
    }));
    let s = b.add_instance(Box::new(sink));
    b.connect_with(consumer, PortId(0), s, PortId(0), ChannelConfig::instant());
    for k in 0..producers {
        let p = b.add_instance(echo());
        b.connect_with(
            p,
            PortId(0),
            consumer,
            PortId(k),
            ChannelConfig::lan().with_jitter(15_000),
        );
        for c in 0..campaigns {
            for i in 0..records(c) {
                b.inject(0, p, PortId(0), Message::data([c, k as i64, i as i64]));
            }
            // Seal follows the partition's data on the same wire.
            b.inject(
                1,
                p,
                PortId(0),
                Message::Seal(SealKey::new([("campaign", c)])),
            );
        }
    }
}

fn expected_releases(
    producers: usize,
    campaigns: i64,
    records: impl Fn(i64) -> usize,
) -> BTreeSet<Message> {
    (0..campaigns)
        .map(|c| {
            Message::Data(Tuple(vec![
                Value::Int(c),
                Value::Int((producers * records(c)) as i64),
            ]))
        })
        .collect()
}

fn assert_sealing_agrees(
    name: &str,
    producers: usize,
    campaigns: i64,
    records: impl Fn(i64) -> usize + Copy,
) {
    let expected = expected_releases(producers, campaigns, records);

    let sim_sink = CollectorSink::new();
    let mut sim = Topology::new();
    sealed_topology(&mut sim, sim_sink.clone(), producers, campaigns, records);
    Simulator::new(sim, 7).run();
    assert_eq!(
        sim_sink.message_set(),
        expected,
        "{name}: simulator baseline"
    );
    assert_eq!(
        sim_sink.len(),
        campaigns as usize,
        "{name}: released exactly once (sim)"
    );

    for (variant, tuning) in tuning_variants() {
        for workers in [2usize, 4] {
            let par_sink = CollectorSink::new();
            let mut par = ParBuilder::new(7)
                .with_workers(workers)
                .with_tuning(tuning)
                .expect("valid tuning");
            sealed_topology(&mut par, par_sink.clone(), producers, campaigns, records);
            let _ = run_within_deadline(&format!("{name}/{variant}/{workers}w"), par.build());
            assert_eq!(
                par_sink.message_set(),
                expected,
                "{name}/{variant}: seal outcome ({workers} workers)"
            );
            assert_eq!(
                par_sink.len(),
                campaigns as usize,
                "{name}/{variant}: released exactly once ({workers} workers)"
            );
        }
    }
}

/// Sealing under the threaded executor: every partition is released
/// exactly once, only after unanimous votes, with its full buffer — the
/// same outcome the simulator produces. Small drain batches reschedule
/// the consumer mid-stream; a seal must still never overtake covered
/// records.
#[test]
fn sealing_punctuations_complete_batches_under_threads() {
    assert_sealing_agrees("uniform-seal", 3, 5, |_| 8);
}

/// The skewed-key variant: one hot campaign carries most of the records
/// (the ad-report join skew). Load imbalance must not change seal
/// outcomes under any tuning.
#[test]
fn skewed_key_sealing_matches_simulator() {
    // Campaign 0 is ~20x hotter than the tail.
    assert_sealing_agrees("skewed-seal", 3, 6, |c| if c == 0 { 60 } else { 3 });
}

// ---------------------------------------------------------------------
// Adversarial punctuation orderings (ROADMAP "scenario breadth"): seals
// arriving before, interleaved with, and duplicated around the records
// they cover — asserted across every tuning and the simulator.
// ---------------------------------------------------------------------

/// Run one sealed assembly on the simulator and on the parallel executor
/// under every tuning variant, asserting identical release outcomes.
fn assert_adversarial_sealing(
    name: &str,
    expected: &BTreeSet<Message>,
    campaigns: usize,
    assemble: impl Fn(&mut dyn ExecutorBuilder, CollectorSink),
) {
    let sim_sink = CollectorSink::new();
    let mut sim = Topology::new();
    assemble(&mut sim, sim_sink.clone());
    Simulator::new(sim, 17).run();
    assert_eq!(&sim_sink.message_set(), expected, "{name}: simulator");
    assert_eq!(sim_sink.len(), campaigns, "{name}: released once (sim)");

    for (variant, tuning) in tuning_variants() {
        for workers in [2usize, 4] {
            let par_sink = CollectorSink::new();
            let mut par = ParBuilder::new(17)
                .with_workers(workers)
                .with_tuning(tuning)
                .expect("valid tuning");
            assemble(&mut par, par_sink.clone());
            let _ = run_within_deadline(&format!("{name}/{variant}/{workers}w"), par.build());
            assert_eq!(
                &par_sink.message_set(),
                expected,
                "{name}/{variant}: outcome ({workers} workers)"
            );
            assert_eq!(
                par_sink.len(),
                campaigns,
                "{name}/{variant}: released once ({workers} workers)"
            );
        }
    }
}

/// Seals arriving *before* any covered records from one stakeholder: a
/// producer that contributes nothing to a partition votes up front, and
/// the release must still wait for every other producer's data + seal.
#[test]
fn seals_before_covered_records_still_gate_the_release() {
    const PRODUCERS: usize = 3;
    const CAMPAIGNS: i64 = 4;
    const RECORDS: usize = 6;
    // Producer 0 contributes no data: (PRODUCERS - 1) * RECORDS each.
    let expected: BTreeSet<Message> = (0..CAMPAIGNS)
        .map(|c| {
            Message::Data(Tuple(vec![
                Value::Int(c),
                Value::Int(((PRODUCERS - 1) * RECORDS) as i64),
            ]))
        })
        .collect();
    assert_adversarial_sealing("early-seals", &expected, CAMPAIGNS as usize, |b, sink| {
        let consumer = b.add_instance(Box::new(SealingConsumer {
            mgr: SealManager::new(ProducerRegistry::all_produce(0..PRODUCERS)),
        }));
        let s = b.add_instance(Box::new(sink));
        b.connect_with(consumer, PortId(0), s, PortId(0), ChannelConfig::instant());
        for k in 0..PRODUCERS {
            let p = b.add_instance(echo());
            b.connect_with(
                p,
                PortId(0),
                consumer,
                PortId(k),
                ChannelConfig::lan().with_jitter(15_000),
            );
            if k == 0 {
                // The empty stakeholder seals everything first, before any
                // covered record exists anywhere.
                for c in 0..CAMPAIGNS {
                    b.inject(
                        0,
                        p,
                        PortId(0),
                        Message::Seal(SealKey::new([("campaign", c)])),
                    );
                }
            } else {
                for c in 0..CAMPAIGNS {
                    for i in 0..RECORDS {
                        b.inject(1, p, PortId(0), Message::data([c, k as i64, i as i64]));
                    }
                    b.inject(
                        2,
                        p,
                        PortId(0),
                        Message::Seal(SealKey::new([("campaign", c)])),
                    );
                }
            }
        }
    });
}

/// Seals interleaved with other producers' records: producers work
/// through the campaigns in rotated orders (the ad workload's "spread"
/// placement), so every seal arrives while sibling producers are still
/// emitting records for that campaign.
#[test]
fn seals_interleaved_across_producers_release_exactly_once() {
    const PRODUCERS: usize = 3;
    const CAMPAIGNS: i64 = 5;
    const RECORDS: usize = 4;
    let expected: BTreeSet<Message> = (0..CAMPAIGNS)
        .map(|c| {
            Message::Data(Tuple(vec![
                Value::Int(c),
                Value::Int((PRODUCERS * RECORDS) as i64),
            ]))
        })
        .collect();
    assert_adversarial_sealing(
        "interleaved-seals",
        &expected,
        CAMPAIGNS as usize,
        |b, sink| {
            let consumer = b.add_instance(Box::new(SealingConsumer {
                mgr: SealManager::new(ProducerRegistry::all_produce(0..PRODUCERS)),
            }));
            let s = b.add_instance(Box::new(sink));
            b.connect_with(consumer, PortId(0), s, PortId(0), ChannelConfig::instant());
            for k in 0..PRODUCERS {
                let p = b.add_instance(echo());
                b.connect_with(
                    p,
                    PortId(0),
                    consumer,
                    PortId(k),
                    ChannelConfig::lan().with_jitter(15_000),
                );
                // Rotated campaign order: producer k starts at campaign k.
                for step in 0..CAMPAIGNS {
                    let c = (step + k as i64) % CAMPAIGNS;
                    for i in 0..RECORDS {
                        b.inject(
                            step as u64 * 10,
                            p,
                            PortId(0),
                            Message::data([c, k as i64, i as i64]),
                        );
                    }
                    b.inject(
                        step as u64 * 10 + 5,
                        p,
                        PortId(0),
                        Message::Seal(SealKey::new([("campaign", c)])),
                    );
                }
            }
        },
    );
}

/// Seals (and records) duplicated around the covered records by the
/// at-least-once channel fault RNG: duplicate votes must stay idempotent
/// and every partition still releases exactly once. Outcomes are compared
/// across worker counts and tunings — the per-wire fault schedule
/// makes them reproducible.
#[test]
fn duplicated_seals_and_records_release_exactly_once() {
    const PRODUCERS: usize = 3;
    const CAMPAIGNS: i64 = 4;
    const RECORDS: usize = 5;

    let run = |workers: usize, tuning: ParTuning| {
        let sink = CollectorSink::new();
        let mut par = ParBuilder::new(23)
            .with_workers(workers)
            .with_tuning(tuning)
            .expect("valid tuning");
        let consumer = par.add_instance(Box::new(SealingConsumer {
            mgr: SealManager::new(ProducerRegistry::all_produce(0..PRODUCERS)),
        }));
        let s = par.add_instance(Box::new(sink.clone()));
        blazes::dataflow::backend::ExecutorBuilder::connect_with(
            &mut par,
            consumer,
            PortId(0),
            s,
            PortId(0),
            ChannelConfig::instant(),
        );
        for k in 0..PRODUCERS {
            let p = par.add_instance(echo());
            // Both records AND seals replay on this wire.
            blazes::dataflow::backend::ExecutorBuilder::connect_with(
                &mut par,
                p,
                PortId(0),
                consumer,
                PortId(k),
                ChannelConfig::lan().with_duplicates(0.4),
            );
            for c in 0..CAMPAIGNS {
                for i in 0..RECORDS {
                    par.inject(0, p, PortId(0), Message::data([c, k as i64, i as i64]));
                }
                par.inject(
                    1,
                    p,
                    PortId(0),
                    Message::Seal(SealKey::new([("campaign", c)])),
                );
            }
        }
        let stats = run_within_deadline(
            &format!("duplicated-seals/{}/{workers}w", tuning.batch_size),
            par.build(),
        );
        (sink.message_set(), sink.len(), stats.duplicates)
    };

    let baseline = run(2, ParTuning::default());
    assert!(baseline.2 > 0, "duplicates must have fired");
    assert_eq!(
        baseline.1, CAMPAIGNS as usize,
        "each campaign released exactly once despite duplicate seals"
    );
    // Release sizes include duplicated records (at-least-once is visible
    // to a non-idempotent consumer), but the per-wire fault schedule
    // makes the outcome identical across worker counts and tunings.
    for (variant, tuning) in tuning_variants() {
        for workers in [2usize, 4] {
            assert_eq!(
                run(workers, tuning),
                baseline,
                "{variant}: duplicated-seal outcome diverged at {workers} workers"
            );
        }
    }
}
