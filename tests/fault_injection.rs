//! Fault-injection tests: the at-least-once behaviors that motivate the
//! paper's Section III anomalies, exercised on the live runtime.

use blazes::apps::wordcount::{run_wordcount, WordcountScenario};
use blazes::apps::workload::TweetWorkload;
use blazes::dataflow::backend::{BackendSpec, ExecutorBuilder, PortId, Topology};
use blazes::dataflow::channel::ChannelConfig;
use blazes::dataflow::component::{Component, Context, FnComponent};
use blazes::dataflow::message::Message;
use blazes::dataflow::sim::Simulator;
use blazes::dataflow::sinks::CollectorSink;
use blazes::dataflow::value::Value;

fn echo() -> Box<dyn Component> {
    Box::new(FnComponent::new("echo", |_, msg, ctx: &mut Context| {
        ctx.emit(0, msg)
    }))
}

/// Duplicate delivery (Storm-style replay) inflates stateful counts when no
/// coordination or deduplication is in place — the motivating anomaly of
/// Section I-B ("it is up to the programmer to ensure that accurate counts
/// are committed to the store despite at-least-once delivery").
#[test]
fn duplication_overcounts_without_coordination() {
    let n = 200usize;
    let mut b = Topology::new();
    let e = b.add_instance(echo());
    let sink = CollectorSink::new();
    let s = b.add_instance(Box::new(sink.clone()));
    b.connect_with(
        e,
        PortId(0),
        s,
        PortId(0),
        ChannelConfig::lan().with_duplicates(0.3),
    );
    for i in 0..n {
        b.inject(0, e, PortId(0), Message::data([i as i64]));
    }
    let stats = Simulator::new(b, 42).run();
    assert!(stats.duplicates > 0, "duplication must have occurred");
    assert!(
        sink.len() > n,
        "at-least-once delivery inflates the count: {} > {n}",
        sink.len()
    );
    // The *set* of distinct messages is still exact — which is why
    // confluent (set-semantics) components tolerate replay.
    assert_eq!(sink.message_set().len(), n);
}

/// Message loss with retransmission delays but never drops content.
#[test]
fn loss_is_masked_by_retransmission() {
    let n = 150usize;
    let mut b = Topology::new();
    let e = b.add_instance(echo());
    let sink = CollectorSink::new();
    let s = b.add_instance(Box::new(sink.clone()));
    b.connect_with(
        e,
        PortId(0),
        s,
        PortId(0),
        ChannelConfig::lan().with_loss(0.4),
    );
    for i in 0..n {
        b.inject(0, e, PortId(0), Message::data([i as i64]));
    }
    let stats = Simulator::new(b, 7).run();
    assert!(stats.retransmits > 0);
    assert_eq!(sink.len(), n, "every message eventually delivered");
    // FIFO holds even across retransmissions (head-of-line blocking).
    let expected: Vec<Message> = (0..n).map(|i| Message::data([i as i64])).collect();
    assert_eq!(sink.messages(), expected);
}

/// The wordcount's batch machinery survives duplicate-prone channels: the
/// engine deduplicates seal votes by producer id, so every batch still
/// completes exactly once and the run terminates.
#[test]
fn batch_completion_survives_duplication() {
    let mut sc = WordcountScenario {
        workers: 3,
        workload: TweetWorkload {
            batches: 4,
            tweets_per_batch: 8,
            vocabulary: 30,
            ..TweetWorkload::default()
        },
        seed: 5,
        ..WordcountScenario::default()
    };
    sc.transactional = false;
    // Run a clean reference first.
    let clean = run_wordcount(&sc, &BackendSpec::Sim);
    let clean_counts = clean.counts();

    // Now the same scenario over duplicating channels. (We rebuild the
    // topology by hand since the scenario fixes channels; the point is the
    // engine-level dedup of seals.)
    use blazes::apps::wordcount::{CommitBolt, CountBolt, SplitterBolt};
    use blazes::dataflow::sim::Time;
    use blazes::dataflow::value::Value;
    use blazes::storm::grouping::Grouping;
    use blazes::storm::runtime::batch_seal;
    use blazes::storm::topology::TopologyBuilder;

    let mut t = TopologyBuilder::new("wc-dup", 5);
    t.set_default_channel(ChannelConfig::lan().with_duplicates(0.25));
    let spout = t.add_spout("tweets", sc.spouts);
    for inst in 0..sc.spouts {
        let mut sched: Vec<(Time, Message)> = Vec::new();
        let mut last_batch = -1i64;
        let mut last_time: Time = 0;
        for (at, tweet) in sc.workload.generate(inst) {
            let batch = tweet.get(1).and_then(Value::as_int).unwrap();
            if batch != last_batch && last_batch >= 0 {
                sched.push((last_time + 1, batch_seal(last_batch)));
            }
            last_batch = batch;
            last_time = at;
            sched.push((at, Message::Data(tweet)));
        }
        if last_batch >= 0 {
            sched.push((last_time + 1, batch_seal(last_batch)));
        }
        t.spout_schedule(spout, inst, sched);
    }
    let splitter = t.add_bolt(
        "Splitter",
        3,
        || Box::new(SplitterBolt),
        vec![(spout, Grouping::Shuffle)],
    );
    let count = t.add_bolt(
        "Count",
        3,
        || Box::new(CountBolt::default()),
        vec![(splitter, Grouping::Fields(vec![0]))],
    );
    let commit = t.add_bolt(
        "Commit",
        2,
        || Box::new(CommitBolt::default()),
        vec![(count, Grouping::Shuffle)],
    );
    let committed = CollectorSink::new();
    t.add_collector_sink("store", committed.clone(), commit);
    let stats = t.build_on(&BackendSpec::Sim).run();
    let stats = stats.as_sim().expect("sim run");

    assert!(stats.duplicates > 0, "duplication occurred");
    // Every (word, batch) key from the clean run still commits...
    let dup_counts: std::collections::BTreeMap<(String, i64), i64> = committed
        .messages()
        .iter()
        .filter_map(Message::as_data)
        .filter_map(|t| {
            Some((
                (
                    t.get(0).and_then(Value::as_str)?.to_string(),
                    t.get(1).and_then(Value::as_int)?,
                ),
                t.get(2).and_then(Value::as_int)?,
            ))
        })
        .collect();
    for key in clean_counts.keys() {
        assert!(
            dup_counts.contains_key(key),
            "batch content committed despite duplicates"
        );
    }
    // ...but counts are inflated — the accuracy anomaly replay causes when
    // the topology is not transactional and tuples are not deduplicated.
    let clean_total: i64 = clean_counts.values().sum();
    let dup_total: i64 = dup_counts.values().sum();
    assert!(
        dup_total > clean_total,
        "duplicates must inflate counts: {dup_total} vs {clean_total}"
    );
}

/// Fault injection on the *parallel* backend has reproducible schedules:
/// fault draws come from per-wire seeded RNG streams, so the k-th send on
/// a wire sees the same loss/duplicate decisions whatever the worker
/// count, the drain batch size, or the thread interleaving. In this single-input
/// chain the producer's emission order is deterministic too, so entire
/// runs (delivered sequences included) reproduce exactly; at fan-in
/// components only the per-wire decision sequence — not the record each
/// decision lands on — is interleaving-independent.
#[test]
fn parallel_fault_schedules_are_reproducible_across_schedulers() {
    use blazes::dataflow::par::{ParBuilder, ParTuning};

    let run = |workers: usize, tuning: ParTuning| {
        let mut b = ParBuilder::new(77)
            .with_workers(workers)
            .with_tuning(tuning)
            .unwrap();
        let src = b.add_instance(echo());
        let relay = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(
            src,
            PortId(0),
            relay,
            PortId(0),
            ChannelConfig::lan().with_loss(0.25).with_duplicates(0.25),
        );
        b.connect_with(
            relay,
            PortId(0),
            s,
            PortId(0),
            ChannelConfig::lan().with_duplicates(0.4),
        );
        for i in 0..400i64 {
            b.inject(0, src, PortId(0), Message::data([i]));
        }
        let stats = b.build().run();
        (stats.duplicates, stats.retransmits, sink.messages())
    };

    let baseline = run(1, ParTuning::default());
    assert!(baseline.0 > 0, "duplicates must fire");
    assert!(baseline.1 > 0, "losses must fire");
    for workers in [2usize, 4] {
        for tuning in [
            ParTuning::default(),
            ParTuning {
                batch_size: 2,
                ..ParTuning::default()
            },
        ] {
            assert_eq!(
                run(workers, tuning),
                baseline,
                "fault schedule diverged: {workers} workers, {tuning:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Coordination primitives under faulty control channels: today's
// differential suite exercises SealManager end-to-end; these cover the
// other two substrates — the Sequencer (ordering) and the
// CommitCoordinator barrier (transactional commits) — under duplicated
// and dropped (retransmitted) control messages from the same per-channel
// fault RNG.
// ---------------------------------------------------------------------

/// Total order survives at-least-once delivery *into* the sequencer: the
/// inputs arrive duplicated and retransmission-delayed, yet every replica
/// downstream of the ordered fan-out observes the exact same sequence.
#[test]
fn sequencer_total_order_survives_faulty_inputs() {
    use blazes::coord::Sequencer;

    let n = 120usize;
    let mut b = Topology::new();
    let client = b.add_instance(echo());
    let seq = b.add_instance(Box::new(Sequencer::new()));
    let r1 = CollectorSink::new();
    let r2 = CollectorSink::new();
    let i1 = b.add_instance(Box::new(r1.clone()));
    let i2 = b.add_instance(Box::new(r2.clone()));
    // Duplicates AND losses (retransmitted, hence delayed) on the way in.
    b.connect_with(
        client,
        PortId(0),
        seq,
        PortId(0),
        ChannelConfig::lan()
            .with_jitter(8_000)
            .with_duplicates(0.3)
            .with_loss(0.3),
    );
    let ordered = b.add_channel(ChannelConfig::ordered(1_000));
    b.connect(seq, PortId(0), i1, PortId(0), ordered);
    b.connect(seq, PortId(0), i2, PortId(0), ordered);
    for i in 0..n {
        b.inject(i as u64 * 100, client, PortId(0), Message::data([i as i64]));
    }
    let stats = Simulator::new(b, 31).run();
    assert!(
        stats.duplicates > 0 && stats.retransmits > 0,
        "faults fired"
    );
    // Replicas agree on the order, duplicates and all.
    assert_eq!(r1.messages(), r2.messages());
    assert!(r1.len() > n, "duplicates pass through the sequencer");
    assert_eq!(r1.message_set().len(), n, "every distinct input delivered");
}

/// The same property on the threaded backend, where duplicates come from
/// the per-wire seeded fault RNG: whatever the schedule, both replicas
/// see one total order.
#[test]
fn parallel_sequencer_replicas_agree_under_duplicates() {
    use blazes::coord::Sequencer;
    use blazes::dataflow::par::ParBuilder;

    let mut b = ParBuilder::new(37).with_workers(4);
    let seq = b.add_instance(Box::new(Sequencer::new()));
    let r1 = CollectorSink::new();
    let r2 = CollectorSink::new();
    let i1 = b.add_instance(Box::new(r1.clone()));
    let i2 = b.add_instance(Box::new(r2.clone()));
    let ordered = b.add_channel(ChannelConfig::ordered(0));
    b.connect(seq, PortId(0), i1, PortId(0), ordered);
    b.connect(seq, PortId(0), i2, PortId(0), ordered);
    for k in 0..3 {
        let client = b.add_instance(echo());
        b.connect_with(
            client,
            PortId(0),
            seq,
            PortId(0),
            ChannelConfig::lan().with_duplicates(0.35).with_loss(0.2),
        );
        for i in 0..80i64 {
            b.inject(0, client, PortId(0), Message::data([k * 1_000 + i]));
        }
    }
    let stats = b.build().run();
    assert!(stats.duplicates > 0, "duplicates fired");
    assert_eq!(r1.messages(), r2.messages(), "replicas diverged");
    assert_eq!(r1.message_set().len(), 240, "every distinct input arrived");
}

/// The commit barrier under faulty control channels: readiness
/// announcements arrive duplicated and retransmission-delayed, and the
/// grant stream itself replays — grants must stay strictly batch-ordered
/// and each batch must be granted exactly once by the coordinator.
#[test]
fn commit_coordinator_survives_faulty_control_messages() {
    use blazes::coord::CommitCoordinator;

    let committers = 2usize;
    let batches = 12i64;
    let mut b = Topology::new();
    let coord = b.add_instance(Box::new(CommitCoordinator::new(committers)));
    let grants = CollectorSink::new();
    let g = b.add_instance(Box::new(grants.clone()));
    // The grant stream replays too (at-least-once grant delivery) on the
    // ordered link the engine uses for grants; replayed copies may still
    // trail the stream position slightly.
    b.connect_with(
        coord,
        PortId(0),
        g,
        PortId(0),
        ChannelConfig::ordered(1_000).with_duplicates(0.5),
    );
    for c in 0..committers {
        let committer = b.add_instance(echo());
        b.connect_with(
            committer,
            PortId(0),
            coord,
            PortId(0),
            ChannelConfig::lan()
                .with_jitter(20_000)
                .with_duplicates(0.4)
                .with_loss(0.3),
        );
        // Announce readiness out of batch order (descending), duplicated
        // by the channel on top.
        for batch in (0..batches).rev() {
            b.inject(
                (batches - batch) as u64 * 50,
                committer,
                PortId(0),
                Message::data([batch, c as i64]),
            );
        }
    }
    let stats = Simulator::new(b, 47).run();
    assert!(
        stats.duplicates > 0 && stats.retransmits > 0,
        "faults fired"
    );

    let granted: Vec<i64> = grants
        .messages()
        .iter()
        .filter_map(|m| m.as_data().and_then(|t| t.get(0)).and_then(Value::as_int))
        .collect();
    assert!(
        granted.len() > batches as usize,
        "replayed grants must be visible: {granted:?}"
    );
    // An idempotent committer acts on first occurrences only (exactly
    // what `BoltAdapter::on_grant` does); that deduplicated sequence must
    // be the strict batch order, each batch granted exactly once.
    let mut seen = std::collections::BTreeSet::new();
    let first_occurrences: Vec<i64> = granted
        .iter()
        .copied()
        .filter(|b_| seen.insert(*b_))
        .collect();
    assert_eq!(
        first_occurrences,
        (0..batches).collect::<Vec<_>>(),
        "deduplicated grant order must be the strict batch order"
    );
}

/// End-to-end barrier test: a *transactional* wordcount over duplicating
/// channels. Readiness, grants and seals all replay, yet commits stay in
/// strict batch order and every (word, batch) group commits exactly the
/// clean run's content keys.
#[test]
fn transactional_wordcount_survives_duplicating_channels() {
    use blazes::apps::wordcount::{run_wordcount, WordcountScenario};
    use blazes::apps::workload::TweetWorkload;
    use blazes::storm::topology::TransactionalConfig;

    let sc = WordcountScenario {
        workers: 3,
        transactional: true,
        workload: TweetWorkload {
            batches: 4,
            tweets_per_batch: 8,
            vocabulary: 30,
            ..TweetWorkload::default()
        },
        seed: 15,
        ..WordcountScenario::default()
    };
    let clean = run_wordcount(&sc, &BackendSpec::Sim);

    // The same transactional topology, with the committer→coordinator
    // control wiring (readiness announcements) over a duplicating AND
    // lossy channel.
    use blazes::apps::wordcount::wordcount_topology;
    let (mut t, committed) = wordcount_topology(&sc);
    let commit = t
        .node("Commit")
        .expect("wordcount topology has a Commit bolt");
    t.make_transactional(
        commit,
        TransactionalConfig {
            channel: ChannelConfig::lan().with_duplicates(0.3).with_loss(0.2),
            ..TransactionalConfig::default()
        },
    );
    let stats = t.build_on(&BackendSpec::Sim).run();
    let stats = stats.as_sim().expect("sim run");
    assert!(stats.duplicates > 0, "duplicates fired");

    let mut max_batch = i64::MIN;
    let mut keys = std::collections::BTreeSet::new();
    for m in committed.messages() {
        let Some(tu) = m.as_data() else { continue };
        let b = tu.get(1).and_then(Value::as_int).unwrap();
        assert!(b >= max_batch, "commit order violated under duplication");
        max_batch = max_batch.max(b);
        keys.insert((tu.get(0).and_then(Value::as_str).unwrap().to_string(), b));
    }
    for key in clean.counts().keys() {
        assert!(keys.contains(key), "batch content committed: {key:?}");
    }
}
