//! The time-warp proof obligations (the parallel backend's speculation
//! mode, end to end):
//!
//! * **Digest identity** — the speculative auto-coordinated ad-report run
//!   is bit-identical to the blocking auto-coordinated run *and* to the
//!   discrete-event simulator, across `{1,2,4,8}` workers, under the
//!   at-least-once fault RNG. Optimism changes when answers are computed,
//!   never what they are.
//! * **Rollback reality** — a forced straggler violation actually rolls a
//!   consumer back (counters move) and the replayed output equals the
//!   blocking gate's.
//! * **CALM dividend** — confluent components (the sealed wordcount)
//!   record *zero* speculations and *zero* rollbacks across seeds and
//!   worker counts: the analysis proves they never wait, so time-warp has
//!   nothing to speculate past.
//! * **Composite keys** — sealing the ad-report click stream on
//!   `(campaign, window)` gates each composite partition independently
//!   through the full rewrite pass.

use blazes::apps::autocoord::{response_digests, run_ad_auto, run_wordcount_auto};
use blazes::apps::wordcount::WordcountScenario;
use blazes::apps::workload::TweetWorkload;
use blazes::autocoord::{AutoCoordRules, SealBinding};
use blazes::coord::registry::ProducerRegistry;
use blazes::core::keys::KeySet;
use blazes::core::placement::{CoordDirective, CoordinationSpec};
use blazes::dataflow::backend::{BackendSpec, ExecutorBuilder, PortId, RewritingBuilder};
use blazes::dataflow::channel::ChannelConfig;
use blazes::dataflow::component::{Component, Context, FnComponent};
use blazes::dataflow::message::{Message, SealKey};
use blazes::dataflow::par::{ParBuilder, ParStats, ParTuning};
use blazes::dataflow::sinks::CollectorSink;
use blazes::dataflow::value::{Tuple, Value};
use blazes_bench::differential_scenario;
use std::sync::Arc;

/// Every worker count the determinism claim must hold across.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The acceptance bar: speculative digests bit-identical to blocking
/// autocoord and to the simulator, across every worker count × scheduler,
/// under the seeded fault RNG.
#[test]
fn speculative_adreport_matches_blocking_and_simulator() {
    let sc = differential_scenario(3);
    let (sim_res, sim_report) = run_ad_auto(&sc, &BackendSpec::Sim);
    assert!(matches!(
        sim_report.spec.directive_for("Report"),
        Some(CoordDirective::Seal { .. })
    ));
    let reference = response_digests(&sim_res.responses);
    assert!(reference.iter().any(|d| !d.is_empty()));

    let mut speculated_anywhere = false;
    for workers in WORKER_COUNTS {
        let (blocking, _) = run_ad_auto(&sc, &BackendSpec::par(workers));
        assert_eq!(
            response_digests(&blocking.responses),
            reference,
            "blocking digest diverged at {workers} workers"
        );

        let (spec_res, _) = run_ad_auto(
            &sc,
            &BackendSpec::Par {
                workers,
                tuning: ParTuning::default().with_speculation(true),
            },
        );
        for s in &spec_res.series {
            assert!(
                s.total() >= spec_res.expected_records,
                "all records processed ({workers} workers)"
            );
        }
        assert_eq!(
            response_digests(&spec_res.responses),
            reference,
            "speculative digest diverged at {workers} workers"
        );
        let par_stats = spec_res.stats.as_par().expect("parallel run");
        speculated_anywhere |= par_stats.total_speculations() > 0;
        assert_eq!(
            par_stats.epochs_committed + par_stats.epochs_aborted,
            par_stats.epochs_opened,
            "every epoch resolves ({workers} workers)"
        );
    }
    assert!(
        speculated_anywhere,
        "the speculative runs never actually speculated — the mode is inert"
    );
}

/// A sink with a checkpoint and a component name the rewrite pass can
/// flag.
struct NamedSink {
    inner: CollectorSink,
    name: String,
}

impl Component for NamedSink {
    fn on_message(&mut self, port: usize, msg: Message, ctx: &mut Context) {
        self.inner.on_message(port, msg, ctx);
    }

    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: Box<dyn std::any::Any + Send>) {
        self.inner.restore(snapshot);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

fn spec_seal(component: &str, key: KeySet) -> CoordinationSpec {
    CoordinationSpec {
        directives: vec![CoordDirective::Seal {
            component: component.to_string(),
            input: "click".to_string(),
            key,
        }],
    }
}

fn click(campaign: i64, n: i64) -> Message {
    Message::Data(Tuple::new([
        Value::Int(n),
        Value::Int(campaign),
        Value::Int(0),
    ]))
}

fn seal(campaign: i64, producer: i64) -> Message {
    Message::Seal(SealKey::new([
        ("campaign", Value::Int(campaign)),
        ("producer", Value::Int(producer)),
    ]))
}

/// Assemble producers → [gate] → flagged sink and drive the deterministic
/// violation sequence: record, query (the fast producer), then straggler
/// record, seal (the slow one). Two producers so that, on one worker, the
/// sink's activation interleaves between the speculation and the
/// violation — the gate speculates past the fast producer's burst, the
/// sink checkpoints and applies it, and only then does the straggler
/// arrive and force the rollback.
fn violation_run(speculation: bool) -> (CollectorSink, ParStats) {
    let binding = SealBinding::new(ProducerRegistry::all_produce(0..1), vec![1], 3)
        .with_query_partition(Arc::new(|t: &Tuple| t.get(0).cloned()));
    let rules = AutoCoordRules::new(&spec_seal("Report", KeySet::from_attrs(["campaign"])))
        .bind_seal("Report", binding)
        .with_speculation(speculation);
    let mut par = ParBuilder::new(7)
        .with_workers(1)
        .with_tuning(ParTuning::default().with_speculation(speculation))
        .unwrap();
    let mut rb = RewritingBuilder::new(&mut par, rules);
    let sink = CollectorSink::new();
    let consumer = rb.add_instance(Box::new(NamedSink {
        inner: sink.clone(),
        name: "Report[0]".to_string(),
    }));
    let fast = rb.add_instance(Box::new(FnComponent::new(
        "fast-producer",
        |_, msg, ctx: &mut Context| ctx.emit(0, msg),
    )));
    let slow = rb.add_instance(Box::new(FnComponent::new(
        "straggler-producer",
        |_, msg, ctx: &mut Context| ctx.emit(0, msg),
    )));
    rb.connect_with(
        fast,
        PortId(0),
        consumer,
        PortId(0),
        ChannelConfig::instant(),
    );
    rb.connect_with(
        slow,
        PortId(0),
        consumer,
        PortId(0),
        ChannelConfig::instant(),
    );
    rb.inject(0, fast, PortId(0), click(1, 10));
    rb.inject(1, fast, PortId(0), Message::data([1i64])); // query for campaign 1
    rb.inject(2, slow, PortId(0), click(1, 11)); // the straggler: violates the answer
    rb.inject(3, slow, PortId(0), seal(1, 0));
    let (_, stats) = rb.finish();
    assert_eq!(stats.injected_operators, 1);
    (sink, par.build().run())
}

/// The rollback machinery, observably live: the straggler aborts the
/// session, the consumer restores its checkpoint, and the blocking replay
/// leaves exactly what the blocking gate produces.
#[test]
fn forced_violation_rolls_back_and_replays_blocking_output() {
    let (blocking_sink, blocking_stats) = violation_run(false);
    assert_eq!(blocking_stats.total_rollbacks(), 0);

    let (spec_sink, spec_stats) = violation_run(true);
    assert!(
        spec_stats.total_speculations() >= 1,
        "the consumer must have checkpointed: {spec_stats:?}"
    );
    assert!(
        spec_stats.total_rollbacks() >= 1,
        "the straggler must have forced a rollback: {spec_stats:?}"
    );
    assert!(spec_stats.epochs_aborted >= 1, "{spec_stats:?}");
    assert_eq!(
        spec_sink.messages(),
        blocking_sink.messages(),
        "post-rollback replay must equal the blocking protocol"
    );
    // The blocking shape itself: both records, the punctuation, the query.
    let msgs = blocking_sink.messages();
    assert_eq!(msgs.len(), 4);
    assert!(matches!(msgs[2], Message::Seal(_)));
}

/// A flagged sink that refuses to checkpoint: its speculative deliveries
/// are deferred, so a never-resolving epoch wedges the run outright —
/// the harder half of the never-sealed problem.
struct NoSnapSink {
    inner: CollectorSink,
    name: String,
}

impl Component for NoSnapSink {
    fn on_message(&mut self, port: usize, msg: Message, ctx: &mut Context) {
        self.inner.on_message(port, msg, ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Assemble producer → [gate] → sink where campaign 1 seals but campaign
/// 2 never does, leaving the speculative gate's session open forever.
fn never_sealed_run(speculation: bool, checkpointable: bool) -> (CollectorSink, ParStats) {
    let binding = SealBinding::new(ProducerRegistry::all_produce(0..1), vec![1], 3)
        .with_query_partition(Arc::new(|t: &Tuple| t.get(0).cloned()));
    let rules = AutoCoordRules::new(&spec_seal("Report", KeySet::from_attrs(["campaign"])))
        .bind_seal("Report", binding)
        .with_speculation(speculation);
    let mut par = ParBuilder::new(13)
        .with_workers(2)
        .with_tuning(ParTuning::default().with_speculation(speculation))
        .unwrap();
    let mut rb = RewritingBuilder::new(&mut par, rules);
    let sink = CollectorSink::new();
    let consumer: Box<dyn Component> = if checkpointable {
        Box::new(NamedSink {
            inner: sink.clone(),
            name: "Report[0]".to_string(),
        })
    } else {
        Box::new(NoSnapSink {
            inner: sink.clone(),
            name: "Report[0]".to_string(),
        })
    };
    let consumer = rb.add_instance(consumer);
    let p = rb.add_instance(Box::new(FnComponent::new(
        "producer",
        |_, msg, ctx: &mut Context| ctx.emit(0, msg),
    )));
    rb.connect_with(p, PortId(0), consumer, PortId(0), ChannelConfig::instant());
    rb.inject(0, p, PortId(0), click(1, 10));
    rb.inject(1, p, PortId(0), click(2, 20));
    rb.inject(2, p, PortId(0), Message::data([2i64])); // query: campaign 2
    rb.inject(3, p, PortId(0), seal(1, 0)); // campaign 2 never seals
    let (_, stats) = rb.finish();
    assert_eq!(stats.injected_operators, 1);
    (sink, par.build().run())
}

/// The never-sealed-session bugfix, end to end: a session held open by a
/// partition whose seal never arrives is resolved at run end by the
/// drain rescue — the run terminates (it used to wedge when the consumer
/// could not checkpoint, or end with speculative state applied when it
/// could), and the delivered output equals the blocking protocol's:
/// sealed partitions released, unsealed ones withheld.
#[test]
fn never_sealed_session_resolves_at_run_end_to_blocking_output() {
    for checkpointable in [true, false] {
        let (blocking_sink, blocking_stats) = never_sealed_run(false, checkpointable);
        assert_eq!(blocking_stats.rescue_passes, 0);
        let msgs = blocking_sink.messages();
        // Campaign 1's record and punctuation; campaign 2's record and
        // the query stay withheld behind the missing vote.
        assert_eq!(msgs.len(), 2, "checkpointable={checkpointable}: {msgs:?}");
        assert!(matches!(msgs[1], Message::Seal(_)));

        let (spec_sink, spec_stats) = never_sealed_run(true, checkpointable);
        assert!(
            spec_stats.rescue_passes >= 1,
            "the wedged session must need a rescue (checkpointable={checkpointable}): \
             {spec_stats:?}"
        );
        assert_eq!(
            spec_stats.epochs_committed + spec_stats.epochs_aborted,
            spec_stats.epochs_opened,
            "every epoch resolves at run end (checkpointable={checkpointable})"
        );
        assert!(spec_stats.epochs_aborted >= 1, "{spec_stats:?}");
        assert_eq!(
            spec_sink.messages(),
            blocking_sink.messages(),
            "run-end resolution must equal the blocking protocol \
             (checkpointable={checkpointable})"
        );
    }
}

/// An epoch resolves once: only the OPEN → resolved transition counts, so
/// a repeated abort (the rescue ladder's hard abort racing a gate's own
/// `on_drain` abort) is not counted twice and a late commit cannot flip
/// an abort consumers have already acted on.
#[test]
fn repeated_verdicts_resolve_an_epoch_once() {
    let mut par = ParBuilder::new(5)
        .with_workers(1)
        .with_tuning(ParTuning::default().with_speculation(true))
        .unwrap();
    let resolver = par.add_instance(Box::new(FnComponent::new(
        "resolver",
        |_, _, ctx: &mut Context| {
            ctx.resolve_speculation(9, false);
            ctx.resolve_speculation(9, false);
            ctx.resolve_speculation(9, true);
        },
    )));
    par.inject(0, resolver, PortId(0), Message::data([1i64]));
    let stats = par.build().run();
    assert_eq!(stats.epochs_opened, 1, "{stats:?}");
    assert_eq!(stats.epochs_aborted, 1, "{stats:?}");
    assert_eq!(stats.epochs_committed, 0, "{stats:?}");
}

/// The CALM property test: confluent components never speculate, never
/// roll back — under any seed or worker count. Coordination (and therefore
/// speculation) is priced per component by the analysis, and confluent
/// ones get it for free.
#[test]
fn confluent_wordcount_never_rolls_back() {
    for seed in [9u64, 29, 57] {
        let sc = WordcountScenario {
            workers: 3,
            workload: TweetWorkload {
                vocabulary: 50,
                batches: 5,
                tweets_per_batch: 10,
                ..TweetWorkload::default()
            },
            seed,
            ..WordcountScenario::default()
        };
        let mut counts = Vec::new();
        for workers in [1usize, 2, 4] {
            let (res, outcome) = run_wordcount_auto(
                &sc,
                true,
                &BackendSpec::Par {
                    workers,
                    tuning: ParTuning::default().with_speculation(true),
                },
            );
            assert!(outcome.is_rewrite_free(), "{outcome:?}");
            let stats = res.stats.as_par().expect("parallel run");
            assert_eq!(
                stats.total_speculations(),
                0,
                "confluent components must not speculate (seed {seed}, {workers} workers)"
            );
            assert_eq!(
                stats.total_rollbacks(),
                0,
                "confluent components must not roll back (seed {seed}, {workers} workers)"
            );
            assert_eq!(stats.epochs_opened, 0, "no epochs without gates");
            counts.push(res.counts());
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "counts identical across worker counts (seed {seed})"
        );
    }
}

/// Composite seal keys through the full rewrite pass: ad-report clicks
/// sealed on `(campaign, window)`. Sealing one window must release only
/// that window's composite partition.
#[test]
fn adreport_seals_on_campaign_and_window_composite() {
    let multi_click = |campaign: i64, window: i64, n: i64| {
        Message::Data(Tuple::new([
            Value::Int(n),
            Value::Int(campaign),
            Value::Int(window),
        ]))
    };
    let multi_seal = |campaign: i64, window: i64| {
        Message::Seal(SealKey::new([
            ("campaign", Value::Int(campaign)),
            ("window", Value::Int(window)),
            ("producer", Value::Int(0)),
        ]))
    };
    // Columns pair with the key's canonical attribute order: (campaign,
    // window) live in click columns 1 and 2.
    let binding = SealBinding::new(ProducerRegistry::all_produce(0..1), vec![1, 2], 3);
    let rules = AutoCoordRules::new(&spec_seal(
        "Report",
        KeySet::from_attrs(["campaign", "window"]),
    ))
    .bind_seal("Report", binding);

    let mut par = ParBuilder::new(11).with_workers(1);
    let mut rb = RewritingBuilder::new(&mut par, rules);
    let sink = CollectorSink::new();
    let consumer = rb.add_instance(Box::new(NamedSink {
        inner: sink.clone(),
        name: "Report[0]".to_string(),
    }));
    let p = rb.add_instance(Box::new(FnComponent::new(
        "producer",
        |_, msg, ctx: &mut Context| ctx.emit(0, msg),
    )));
    rb.connect_with(p, PortId(0), consumer, PortId(0), ChannelConfig::instant());
    rb.inject(0, p, PortId(0), multi_click(1, 0, 10));
    rb.inject(1, p, PortId(0), multi_click(1, 1, 11));
    rb.inject(2, p, PortId(0), multi_seal(1, 0)); // seals (campaign 1, window 0) only
    let (_, stats) = rb.finish();
    assert_eq!(stats.injected_operators, 1);
    let _ = par.build().run();

    let msgs = sink.messages();
    assert_eq!(
        msgs.len(),
        2,
        "window 0's record and punctuation only: {msgs:?}"
    );
    assert_eq!(msgs[0], multi_click(1, 0, 10));
    assert!(matches!(msgs[1], Message::Seal(_)));
}
