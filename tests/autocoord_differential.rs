//! The differential proof obligation of the `blazes-autocoord` subsystem
//! (paper Sections III & V, end to end):
//!
//! * the **uncoordinated** ad-report run exhibits the paper's
//!   replica-divergence / cross-run nondeterminism anomaly under the
//!   fault-injection RNG — different worker counts produce different
//!   answers to the same queries;
//! * the **auto-coordinated** run (analysis → spec → injected seal gates)
//!   is bit-identical across `{1,2,4,8}` workers *and* matches the
//!   discrete-event simulator;
//! * the **confluent** wordcount comes through the pass rewrite-free —
//!   zero injected operators, identical outputs — the "minimal" in
//!   minimal coordination;
//! * the rewrite itself is checked on the recorded `Topology`, without
//!   running anything: one seal gate per replica, or one sequencer.

use blazes::apps::adreport::{AdScenario, StrategyKind};
use blazes::apps::autocoord::{
    assemble_ad_auto, response_digests, run_ad_auto, run_wordcount_auto, wordcount_spec,
};
use blazes::apps::wordcount::{run_wordcount, WordcountScenario};
use blazes::apps::workload::{CampaignPlacement, ClickWorkload, TweetWorkload};
use blazes::core::placement::CoordDirective;
use blazes::dataflow::backend::{BackendSpec, ChannelId, ExecutorBuilder, PortId, Topology};
use blazes::dataflow::channel::ChannelConfig;
use blazes::dataflow::component::Component;
use blazes::dataflow::message::Message;
use blazes::dataflow::par::ParTuning;
use blazes::dataflow::sim::{InstanceId, Time};
use blazes_bench::differential_scenario;

/// Every worker count the determinism claim must hold across.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The paper's anomaly, live: without coordination, the same scenario
/// under the same fault seed answers queries differently depending on the
/// schedule — across worker counts, or even between replicas of one run.
/// Ad server 0 is a wall-clock straggler (its modeled service burned as
/// real spin, ≈ 45 ms for its log), and with independent placement it is
/// the only producer of campaign 0, whose ids (0–3) half of the analyst's
/// requests read. One worker serves the straggler's requeued activations
/// before the injected analyst, so it answers after every straggler click;
/// more workers let the analyst run while the straggler spins, and answer
/// from the few clicks it has sent. So the answers differ by structure,
/// not by which of two fast producers a request happens to outrun.
#[test]
fn uncoordinated_adreport_diverges_across_schedulers() {
    let mut diverged = false;
    'seeds: for seed in 0..5u64 {
        let mut digests = Vec::new();
        for workers in WORKER_COUNTS {
            let sc = differential_scenario(seed);
            let (res, _) = run_ad_auto(
                &AdScenario {
                    strategy: StrategyKind::Uncoordinated,
                    straggler_service: 2_500,
                    workload: ClickWorkload {
                        placement: CampaignPlacement::Independent,
                        ..sc.workload
                    },
                    ..sc
                },
                &BackendSpec::Par {
                    workers,
                    tuning: ParTuning::default().with_virtual_service_ns(Some(300)),
                },
            );
            if !res.responses_consistent() {
                diverged = true; // replicas disagree within one run
                break 'seeds;
            }
            digests.push(response_digests(&res.responses));
        }
        if digests.windows(2).any(|w| w[0] != w[1]) {
            diverged = true; // same seed, different schedule, different answers
            break 'seeds;
        }
    }
    assert!(
        diverged,
        "uncoordinated runs stayed consistent across every seed and worker count — \
         the anomaly the coordination exists to repair did not manifest"
    );
}

/// The repaired run: the analysis seals the Report replicas, and the
/// injected gates make every configuration produce bit-identical digests
/// — which also equal the simulator's.
#[test]
fn autocoord_adreport_is_deterministic_across_schedulers_and_backends() {
    let sc = differential_scenario(3);
    let (sim_res, sim_report) = run_ad_auto(&sc, &BackendSpec::Sim);
    assert!(
        matches!(
            sim_report.spec.directive_for("Report"),
            Some(CoordDirective::Seal { .. })
        ),
        "CAMPAIGN + campaign punctuations must resolve to the seal protocol"
    );
    let reference = response_digests(&sim_res.responses);
    assert!(
        reference.iter().any(|d| !d.is_empty()),
        "queries must produce answers"
    );

    for workers in WORKER_COUNTS {
        let (res, report) = run_ad_auto(&sc, &BackendSpec::par(workers));
        assert_eq!(
            report.stats.injected_operators, sc.replicas,
            "one seal gate per replica ({workers} workers)"
        );
        for s in &res.series {
            assert!(
                s.total() >= res.expected_records,
                "all partitions released ({workers} workers)"
            );
        }
        assert_eq!(
            response_digests(&res.responses),
            reference,
            "auto-coordinated digest diverged at {workers} workers"
        );
    }
}

/// Sanity anchor for the digests themselves: the coordinated answers are
/// real responses, computed from *final* partition contents only.
#[test]
fn autocoord_adreport_answers_from_sealed_partitions() {
    let (res, _) = run_ad_auto(&differential_scenario(3), &BackendSpec::Sim);
    assert!(res.responses_consistent(), "replicas agree");
    let any_response = res
        .responses
        .iter()
        .flat_map(|r| r.messages())
        .find_map(|m| m.as_data().cloned())
        .expect("at least one response");
    assert_eq!(any_response.arity(), 2, "(id, n) response shape");
}

/// The differential scenario's ad network under `strategy`, as the
/// rewrite pass leaves it: recorded, not run.
fn recorded(strategy: StrategyKind) -> Topology {
    let sc = AdScenario {
        strategy,
        ..differential_scenario(3)
    };
    let mut topology = Topology::new();
    let _ = assemble_ad_auto(&sc, false, &mut topology);
    topology
}

/// The ids of `t`'s instances whose names start with `prefix`.
fn named(t: &Topology, prefix: &str) -> Vec<InstanceId> {
    t.instance_names()
        .enumerate()
        .filter(|(_, n)| n.starts_with(prefix))
        .map(|(i, _)| InstanceId(i))
        .collect()
}

/// Sealed CAMPAIGN: three seal gates, appended after the assembly's own
/// instances. Gate *r* takes every click wire into replica *r* and feeds
/// that replica over one instant wire; no ad server reaches a replica
/// directly.
#[test]
fn the_sealed_rewrite_gives_each_replica_its_own_gate() {
    let t = recorded(StrategyKind::Sealed);
    let names: Vec<&str> = t.instance_names().collect();
    let gates = named(&t, "autocoord-seal(Report@");
    let replicas = named(&t, "report[");
    let ad_servers = named(&t, "adserver[");
    assert_eq!(gates.len(), 3, "{names:?}");
    assert_eq!(gates[0].0, names.len() - 3, "gates come last: {names:?}");
    for (&gate, &replica) in gates.iter().zip(&replicas) {
        assert_eq!(
            names[gate.0],
            format!("autocoord-seal(Report@{}:0)", replica.0)
        );
        let out: Vec<_> = t.wires().iter().filter(|w| w.from == gate).collect();
        assert_eq!(out.len(), 1, "{}", names[gate.0]);
        assert_eq!((out[0].to, out[0].in_port), (replica, PortId(0)));
        assert_eq!(t.channels()[out[0].channel.0], ChannelConfig::instant());
        let clicks: Vec<_> = t
            .wires()
            .iter()
            .filter(|w| w.to == gate && ad_servers.contains(&w.from))
            .map(|w| w.from)
            .collect();
        assert_eq!(clicks, ad_servers, "{}", names[gate.0]);
        let fed_by: Vec<_> = t.wires().iter().filter(|w| w.to == replica).collect();
        assert_eq!(fed_by.len(), 1, "only the gate feeds {}", names[replica.0]);
    }
    let numbers: Vec<u64> = t.wires().iter().map(|w| w.number).collect();
    assert_eq!(numbers, (0..t.wires().len() as u64).collect::<Vec<_>>());
}

/// Ordered CAMPAIGN: one sequencer, fed over one wire per producer port
/// (every ad server and the analyst), fanning out over one ordered wire
/// per replica.
#[test]
fn the_ordered_rewrite_funnels_every_producer_through_one_sequencer() {
    let t = recorded(StrategyKind::Ordered);
    let names: Vec<&str> = t.instance_names().collect();
    assert_eq!(named(&t, "autocoord-seal").len(), 0, "{names:?}");
    let sequencers = named(&t, "sequencer");
    assert_eq!(sequencers.len(), 1, "{names:?}");
    let seq = sequencers[0];
    assert_eq!(seq.0, names.len() - 1, "the sequencer comes last");
    let fed_by: Vec<&str> = t
        .wires()
        .iter()
        .filter(|w| w.to == seq)
        .map(|w| names[w.from.0])
        .collect();
    assert_eq!(
        fed_by,
        ["adserver[0]", "adserver[1]", "adserver[2]", "analyst"]
    );
    let fans_to: Vec<_> = t.wires().iter().filter(|w| w.from == seq).collect();
    assert_eq!(
        fans_to.iter().map(|w| w.to).collect::<Vec<_>>(),
        named(&t, "report[")
    );
    for w in fans_to {
        assert_eq!(t.channels()[w.channel.0], ChannelConfig::ordered(1_000));
    }
    for replica in named(&t, "report[") {
        let into: Vec<_> = t.wires().iter().filter(|w| w.to == replica).collect();
        assert_eq!(
            into.len(),
            1,
            "only the sequencer feeds {}",
            names[replica.0]
        );
    }
}

/// A builder that only forwards the five recording calls, so it takes a
/// recording over by the default replay.
struct Forwarding(Topology);

impl ExecutorBuilder for Forwarding {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        self.0.add_instance(component)
    }

    fn set_service_time(&mut self, id: InstanceId, service: Time) {
        self.0.set_service_time(id, service);
    }

    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        self.0.add_channel(cfg)
    }

    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        self.0.connect(from, out_port, to, in_port, channel);
    }

    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        self.0.inject(at, to, port, msg);
    }
}

/// Replaying the rewritten recording call by call builds the same
/// topology as moving it in, for every strategy.
#[test]
fn the_default_hand_over_replays_the_rewritten_recording() {
    for strategy in [
        StrategyKind::Uncoordinated,
        StrategyKind::Ordered,
        StrategyKind::Sealed,
    ] {
        let sc = AdScenario {
            strategy,
            ..differential_scenario(3)
        };
        let mut replayed = Forwarding(Topology::new());
        let via_replay = assemble_ad_auto(&sc, false, &mut replayed).report;
        let via_move = assemble_ad_auto(&sc, false, &mut Topology::new()).report;
        assert_eq!(via_replay.stats, via_move.stats);
        assert_eq!(replayed.0, recorded(strategy), "{strategy:?}");
    }
}

fn wc_scenario() -> WordcountScenario {
    WordcountScenario {
        workers: 3,
        workload: TweetWorkload {
            vocabulary: 60,
            batches: 5,
            tweets_per_batch: 12,
            ..TweetWorkload::default()
        },
        seed: 29,
        ..WordcountScenario::default()
    }
}

/// The minimality half: the sealed wordcount is already CALM-safe, so the
/// coordinated build must inject nothing — on either backend — and commit
/// exactly the uncoordinated baseline's counts.
#[test]
fn confluent_wordcount_is_left_rewrite_free_on_both_backends() {
    let sc = wc_scenario();
    let spec = wordcount_spec(true);
    assert!(
        matches!(
            spec.directive_for("Count"),
            Some(CoordDirective::Seal { .. })
        ),
        "batch punctuations satisfy the analysis: {spec:?}"
    );

    let baseline = run_wordcount(&sc, &BackendSpec::Sim);
    let (sim, outcome) = run_wordcount_auto(&sc, true, &BackendSpec::Sim);
    assert!(outcome.is_rewrite_free(), "{outcome:?}");
    assert_eq!(outcome.rewrite.injected_operators, 0);
    assert_eq!(sim.counts(), baseline.counts());

    let par_baseline = run_wordcount(&sc, &BackendSpec::par(4));
    let (par, outcome) = run_wordcount_auto(&sc, true, &BackendSpec::par(4));
    assert!(outcome.is_rewrite_free(), "{outcome:?}");
    assert_eq!(par.counts(), par_baseline.counts());
    assert_eq!(par.counts(), baseline.counts());
}

/// The unsealed wordcount is *not* confluent: the same pipeline then
/// orders the Count bolt (engine-native transactional commits) and still
/// reproduces the baseline's answers, across worker counts.
#[test]
fn unsealed_wordcount_gets_ordered_and_stays_exact() {
    let sc = wc_scenario();
    let spec = wordcount_spec(false);
    assert!(
        matches!(
            spec.directive_for("Count"),
            Some(CoordDirective::Order { .. })
        ),
        "{spec:?}"
    );
    let baseline = run_wordcount(&sc, &BackendSpec::Sim);
    let (sim, outcome) = run_wordcount_auto(&sc, false, &BackendSpec::Sim);
    assert_eq!(outcome.ordered, vec!["Count".to_string()]);
    assert_eq!(sim.counts(), baseline.counts());
    // Transactional commits arrive in batch order. Checked on the
    // deterministic simulator: commit *decisions* serialize on every
    // backend, but on the threaded backend two committers' already-granted
    // deliveries can interleave on the way into the shared sink, so sink
    // arrival order is not the serialized quantity there.
    let mut max_batch = i64::MIN;
    for m in sim.committed.messages() {
        let Some(t) = m.as_data() else { continue };
        let b = t
            .get(1)
            .and_then(blazes::dataflow::value::Value::as_int)
            .unwrap();
        assert!(b >= max_batch, "batch order violated on the simulator");
        max_batch = max_batch.max(b);
    }

    for workers in [2usize, 4] {
        let (par, _) = run_wordcount_auto(&sc, false, &BackendSpec::par(workers));
        assert_eq!(par.counts(), baseline.counts(), "{workers} workers");
    }
}

/// Digest helper sanity: sorting makes delivery order irrelevant but
/// preserves multiplicity.
#[test]
fn response_digest_is_order_insensitive_but_multiset_exact() {
    use blazes::dataflow::component::Component;
    use blazes::dataflow::sim::InstanceId;
    use blazes::dataflow::sinks::CollectorSink;

    let a = CollectorSink::new();
    let b = CollectorSink::new();
    let mut ctx = blazes::dataflow::component::Context::new(0, InstanceId(0));
    let m1 = Message::data([1i64]);
    let m2 = Message::data([2i64]);
    a.clone().on_message(0, m1.clone(), &mut ctx);
    a.clone().on_message(0, m2.clone(), &mut ctx);
    b.clone().on_message(0, m2, &mut ctx);
    b.clone().on_message(0, m1.clone(), &mut ctx);
    assert_eq!(
        response_digests(std::slice::from_ref(&a)),
        response_digests(std::slice::from_ref(&b))
    );
    b.clone().on_message(0, m1, &mut ctx);
    assert_ne!(response_digests(&[a]), response_digests(&[b]));
}
