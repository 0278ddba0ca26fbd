//! The case studies, coordinated by the full annotate→analyze→inject
//! pipeline, end to end. For the ad report this is the only way it is
//! coordinated at all.
//!
//! * [`assemble_ad_auto`] records the uncoordinated wiring of
//!   [`crate::adreport`] once. `ad_network_spec` lowers that recording
//!   ([`blazes_autocoord::lower()`]) with the query's white-box Bloom
//!   annotations and with what the scenario's [`StrategyKind`] tells the
//!   analysis: nothing (`Uncoordinated`: empty spec), the campaign
//!   punctuations withheld (`Ordered`), or declared (`Sealed`). The same
//!   recording then goes through [`blazes_autocoord::AutoCoordRules`]:
//!   sealed CAMPAIGN gets seal gates, POOR and unsealed CAMPAIGN get an
//!   ordering service, THRESH gets nothing. It is the one ad-report
//!   assembly and [`run_ad_auto`] the one runner, on every backend.
//! * [`wordcount_spec`] does the same for the Storm wordcount, lowering
//!   its recorded topology with grey-box annotations;
//!   [`run_wordcount_auto`] threads it through
//!   [`TopologyBuilder::build_coordinated_on`], where sealing maps onto
//!   the engine-native punctuation protocol (zero injected operators —
//!   the minimality proof) and ordering onto transactional commits. It
//!   shares its body with [`crate::wordcount::run_wordcount`], whose
//!   hand-picked transactional flag is the paper's Storm baseline.
//!
//! Both runners take a [`BackendSpec`], so one call site covers the
//! simulator, the parallel executor and the distributed multi-process
//! backend.
//!
//! [`TopologyBuilder::build_coordinated_on`]: blazes_storm::topology::TopologyBuilder::build_coordinated_on

use crate::adreport::{seal_registry_for, AdRunResult, AdScenario, StrategyKind};
use crate::casestudy::{ad_network_annotations, wordcount_graph, CLICK_ATTRS};
use crate::dist::{dist_registry, plan_spec};
use crate::wordcount::{WordcountResult, WordcountScenario};
use blazes_autocoord::{lower, AutoCoordRules, InjectionSummary, SealBinding};
use blazes_core::keys::KeySet;
use blazes_core::placement::{CoordDirective, CoordinationSpec};
use blazes_dataflow::backend::{
    build_local, BackendRunStats, BackendSpec, ExecutorBuilder, RewritePass, RewriteStats, Topology,
};
use blazes_dataflow::dist::run_dist;
use blazes_dataflow::message::Message;
use blazes_dataflow::metrics::TimeSeries;
use blazes_dataflow::sim::InstanceId;
use blazes_dataflow::sinks::CollectorSink;
use blazes_dataflow::value::Value;
use blazes_storm::topology::{CoordinationOutcome, TransactionalConfig};
use std::sync::Arc;

/// What the analysis demanded of an ad-report run and what the injection
/// pass did about it.
#[derive(Debug, Clone)]
pub struct AutoCoordReport {
    /// The analysis-derived spec that drove the rewrite.
    pub spec: CoordinationSpec,
    /// Machine-checkable accounting from the rewrite pass.
    pub stats: RewriteStats,
    /// Per-directive summary (which mechanism, how many operators).
    pub summary: InjectionSummary,
}

/// Derive the coordination spec for `recorded`, the uncoordinated ad
/// network of `sc`: empty when uncoordinated, otherwise the analysis's
/// verdict on the lowered recording, with the campaign punctuations
/// withheld (`Ordered`) or declared (`Sealed` — whether they *suffice* is
/// the analysis's call).
///
/// # Panics
/// Panics only if the bundled query modules stop analyzing — a bug.
#[must_use]
fn ad_network_spec(sc: &AdScenario, recorded: &Topology) -> CoordinationSpec {
    let seal_key: Option<&[&str]> = match sc.strategy {
        StrategyKind::Uncoordinated => return CoordinationSpec::default(),
        StrategyKind::Ordered => None,
        StrategyKind::Sealed => Some(&["campaign"]),
    };
    let table = ad_network_annotations(sc.query, seal_key, !sc.requests_via_analyst);
    let graph = lower(recorded, &table).expect("the ad network lowers");
    CoordinationSpec::derive(&graph, true).expect("ad network graph analyzes")
}

/// The runtime binding for the Report component's seal directive on
/// `key`: the key's columns and the covered arity come from the click
/// stream's declared attributes; requests are `(id)` and read the campaign
/// partition `id / ads_per_campaign`.
#[must_use]
fn report_seal_binding(sc: &AdScenario, key: &KeySet) -> SealBinding {
    let column = |attr| CLICK_ATTRS.iter().position(|&a| a == attr);
    let columns = key.iter().map(column).collect::<Option<_>>();
    let columns = columns.expect("the seal key names click attributes");
    let ads = sc.workload.ads_per_campaign as i64;
    SealBinding::new(seal_registry_for(&sc.workload), columns, CLICK_ATTRS.len())
        .with_query_partition(Arc::new(move |t| {
            t.get(0)
                .and_then(Value::as_int)
                .map(|id| Value::Int(id / ads))
        }))
}

/// The injection rules for `sc`: one seal binding for the Report replicas
/// when the spec sealed them, the scenario's sequencer toll when it
/// ordered them.
#[must_use]
fn ad_network_rules(sc: &AdScenario, spec: &CoordinationSpec) -> AutoCoordRules {
    let rules = AutoCoordRules::new(spec).with_sequencer_service(sc.sequencer_service);
    match spec.directive_for("Report") {
        Some(CoordDirective::Seal { key, .. }) => {
            rules.bind_seal("Report", report_seal_binding(sc, key))
        }
        _ => rules,
    }
}

/// Everything one assembly of the ad network produced: the per-replica
/// series and id-tagged response sinks, plus the rewrite accounting.
pub struct AdAutoAssembly {
    /// Per-replica cumulative processed-records series.
    pub series: Vec<TimeSeries>,
    /// Per-replica response sinks with their backend instance ids.
    pub responses: Vec<(InstanceId, CollectorSink)>,
    /// What the analysis demanded and what the pass injected.
    pub report: AutoCoordReport,
}

/// Assemble the ad-network scenario onto any backend builder: record it
/// uncoordinated, lower that recording and derive its spec
/// (`ad_network_spec`), run the rewrite pass over the same recording —
/// which injects exactly what the spec demands for `sc.query` under
/// `sc.strategy`, nothing at all when it is empty — and hand the result
/// to `b`. This is the one assembly the simulator, the parallel executor
/// and every process of a distributed run share; `speculation` selects
/// the speculative seal-gate variant, meaningful on the parallel executor
/// only (dist workers never speculate, so the dist registry always
/// assembles with `false`).
pub fn assemble_ad_auto<B: ExecutorBuilder + ?Sized>(
    sc: &AdScenario,
    speculation: bool,
    b: &mut B,
) -> AdAutoAssembly {
    let mut recording = Topology::new();
    let (series, responses) = crate::adreport::assemble_scenario(sc, &mut recording);
    let spec = ad_network_spec(sc, &recording);
    let mut rules = ad_network_rules(sc, &spec).with_speculation(speculation);
    let stats = rules.rewrite(&mut recording);
    b.take_recording(recording);
    AdAutoAssembly {
        series,
        responses,
        report: AutoCoordReport {
            summary: rules.summary(),
            spec,
            stats,
        },
    }
}

/// Run `sc` to quiescence on the backend selected by `backend`, coordinated
/// as the analysis decides ([`assemble_ad_auto`]). Injected gates and
/// sequencers are ordinary components, so every strategy runs on the
/// simulator, the parallel executor, or (via [`dist_registry`])
/// a fleet of worker processes; modeled service times apply on the
/// simulator only. When the backend enables time-warp speculation (par
/// only), the injected seal gates are the speculative variant.
///
/// On [`BackendSpec::Dist`] the spec runs `sc` as its ad-report plan
/// ([`plan_spec`]); everything else (process count, wire faults, worker
/// command) is honored as given, and the returned report is computed
/// parent-side by recording the same assembly.
///
/// # Panics
/// Panics when a `Par` spec is invalid, and on any distributed transport
/// failure.
#[must_use]
pub fn run_ad_auto(sc: &AdScenario, backend: &BackendSpec) -> (AdRunResult, AutoCoordReport) {
    let (series, responses, stats, report) = if let BackendSpec::Dist(d) = backend {
        let report = assemble_ad_auto(sc, false, &mut Topology::new()).report;
        let run = run_dist(&plan_spec(d, sc), &dist_registry()).expect("distributed ad-report run");
        (
            Vec::new(),
            run.sinks,
            BackendRunStats::Dist(run.stats),
            report,
        )
    } else {
        let speculation = backend.speculation();
        let (exec, asm) = build_local(backend, sc.seed, |b| assemble_ad_auto(sc, speculation, b))
            .unwrap_or_else(|e| panic!("{e}"));
        (asm.series, asm.responses, exec.run(), asm.report)
    };
    let result = AdRunResult {
        series,
        responses: responses.into_iter().map(|(_, s)| s).collect(),
        stats,
        expected_records: sc.workload.total_entries() as u64,
    };
    (result, report)
}

/// The per-replica output digest used by the differential proof: each
/// replica's response multiset in canonical order. Two runs are
/// behaviorally identical iff their digests are equal — delivery order
/// may differ, the answers may not.
#[must_use]
pub fn response_digests(responses: &[CollectorSink]) -> Vec<Vec<Message>> {
    responses
        .iter()
        .map(|sink| {
            let mut msgs = sink.messages();
            msgs.sort();
            msgs
        })
        .collect()
}

/// Derive the coordination spec for the Storm wordcount (its lowered
/// recording with grey-box annotations, Section VI-A): `sealed` states
/// whether the tweet stream's batch punctuations are declared to the
/// analysis.
///
/// # Panics
/// Panics only if the bundled wordcount graph stops analyzing — a bug.
#[must_use]
pub fn wordcount_spec(sealed: bool) -> CoordinationSpec {
    let (graph, _) = wordcount_graph(sealed);
    CoordinationSpec::derive(&graph, false).expect("wordcount graph analyzes")
}

/// The transactional-coordination parameters (coordinator service time,
/// channel latency, pending window) implied by a wordcount scenario —
/// shared by every backend's coordinated assembly.
#[must_use]
pub fn wordcount_ordering_config(sc: &WordcountScenario) -> TransactionalConfig {
    TransactionalConfig {
        service_time: sc.coordinator_service,
        channel: blazes_dataflow::channel::ChannelConfig::lan()
            .with_latency(sc.coordinator_latency),
        max_pending: sc.max_pending,
    }
}

/// Run the wordcount with analysis-driven coordination on the backend
/// selected by `backend`: the topology is built plain (no hand-picked
/// transactional flag) and
/// [`blazes_storm::topology::TopologyBuilder::build_coordinated_on`]
/// applies the spec derived from `sealed` (whether the tweet stream's
/// batch punctuations are declared to the analysis) via
/// [`wordcount_spec`], so every process of a distributed run can
/// re-derive the identical spec from one bit.
///
/// On [`BackendSpec::Dist`] the spec's `topology`/`params` are overwritten
/// with the wordcount registry entry and the coordination outcome is
/// computed parent-side by applying the same spec.
///
/// # Panics
/// Panics when `sc.transactional` is set (coordination comes from the
/// analysis here), when the spec does not fit the topology, when a `Par`
/// spec is invalid, and on any distributed transport failure.
#[must_use]
pub fn run_wordcount_auto(
    sc: &WordcountScenario,
    sealed: bool,
    backend: &BackendSpec,
) -> (WordcountResult, CoordinationOutcome) {
    assert!(
        !sc.transactional,
        "auto-coordination replaces the hand-wired transactional flag"
    );
    crate::wordcount::run_coordinated(sc, &wordcount_spec(sealed), sealed, backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adreport::tests::{checked_run, scenario};
    use crate::queries::ReportQuery;
    use crate::workload::{CampaignPlacement, TweetWorkload};
    use blazes_dataflow::backend::{NoopPass, PortId, RewritingBuilder};
    use blazes_dataflow::channel::ChannelConfig;

    fn sealed(query: ReportQuery) -> AdScenario {
        scenario(query, StrategyKind::Sealed, CampaignPlacement::Spread)
    }

    #[test]
    fn analysis_picks_the_mechanism_per_query() {
        use StrategyKind::{Ordered, Sealed, Uncoordinated};
        let ad_network_spec = |q, s| {
            let sc = scenario(q, s, CampaignPlacement::Spread);
            assemble_ad_auto(&sc, false, &mut Topology::new())
                .report
                .spec
        };
        let seals = |q, s| {
            matches!(
                ad_network_spec(q, s).directive_for("Report"),
                Some(CoordDirective::Seal { .. })
            )
        };
        let orders = |q, s| {
            matches!(
                ad_network_spec(q, s).directive_for("Report"),
                Some(CoordDirective::Order { .. })
            )
        };
        // CAMPAIGN: campaign seals are compatible -> seal protocol; with
        // the punctuations withheld the same analysis demands ordering.
        assert!(seals(ReportQuery::Campaign, Sealed));
        assert!(orders(ReportQuery::Campaign, Ordered));
        // POOR: seals incompatible with the id partition -> ordering,
        // whether or not they are declared.
        assert!(orders(ReportQuery::Poor, Sealed));
        assert!(orders(ReportQuery::Poor, Ordered));
        // THRESH: confluent -> nothing at all, either way.
        assert!(ad_network_spec(ReportQuery::Thresh, Sealed).is_empty());
        assert!(ad_network_spec(ReportQuery::Thresh, Ordered).is_empty());
        // Uncoordinated: the analysis is not consulted.
        assert!(ad_network_spec(ReportQuery::Campaign, Uncoordinated).is_empty());
    }

    #[test]
    fn auto_sealed_campaign_processes_everything_and_agrees() {
        // One seal gate per replica, all partitions released.
        let sc = sealed(ReportQuery::Campaign);
        let (res, _) = checked_run(&sc, &BackendSpec::Sim, 3);
        assert!(
            res.responses.iter().any(|s| !s.is_empty()),
            "queries were answered"
        );
        for sink in &res.responses {
            assert!(sink.len() <= sc.requests, "one request, one answer");
        }
    }

    #[test]
    fn auto_ordered_poor_processes_everything_and_agrees() {
        // Declared punctuations do not help POOR: one shared sequencer.
        let _ = checked_run(&sealed(ReportQuery::Poor), &BackendSpec::Sim, 1);
    }

    #[test]
    fn auto_thresh_is_rewrite_free() {
        for strategy in [StrategyKind::Ordered, StrategyKind::Sealed] {
            let sc = scenario(ReportQuery::Thresh, strategy, CampaignPlacement::Spread);
            let _ = checked_run(&sc, &BackendSpec::Sim, 0);
        }
    }

    /// `sc`'s ad network as the rewrite pass leaves it, recorded without
    /// running it.
    fn recorded(sc: &AdScenario) -> Topology {
        let mut topology = Topology::new();
        let _ = assemble_ad_auto(sc, false, &mut topology);
        topology
    }

    /// The wires into instance `to` of `t`, as (producer name, output
    /// port, channel): what stays put when instance ids shift.
    fn in_wires(t: &Topology, to: InstanceId) -> Vec<(&str, PortId, &ChannelConfig)> {
        let names: Vec<&str> = t.instance_names().collect();
        t.wires()
            .iter()
            .filter(|w| w.to == to)
            .map(|w| (names[w.from.0], w.out_port, &t.channels()[w.channel.0]))
            .collect()
    }

    /// Sealed CAMPAIGN gets one seal gate per report replica, and each
    /// gate takes over every wire its replica was fed by before the
    /// rewrite; the replica is then fed by its gate alone.
    #[test]
    fn the_sealed_recording_gates_each_replica_on_its_former_in_wires() {
        let sc = sealed(ReportQuery::Campaign);
        let plain = recorded(&AdScenario {
            strategy: StrategyKind::Uncoordinated,
            ..sc.clone()
        });
        let gated = recorded(&sc);
        let names: Vec<&str> = gated.instance_names().collect();
        let gates: Vec<usize> = (0..names.len())
            .filter(|&i| names[i].starts_with("autocoord-seal"))
            .collect();
        assert_eq!(gates.len(), 3, "{names:?}");
        let plain_id = |name: &str| {
            let at = plain.instance_names().position(|n| n == name);
            InstanceId(at.expect("the replica exists before the rewrite"))
        };
        for gate in gates {
            let out: Vec<_> = gated.wires().iter().filter(|w| w.from.0 == gate).collect();
            assert_eq!(out.len(), 1, "a gate feeds its consumer only");
            let consumer = out[0].to;
            assert!(names[consumer.0].starts_with("report["));
            assert_eq!(
                in_wires(&gated, InstanceId(gate)),
                in_wires(&plain, plain_id(names[consumer.0])),
                "{}",
                names[gate]
            );
            let fed_by: Vec<_> = in_wires(&gated, consumer)
                .into_iter()
                .map(|(name, ..)| name)
                .collect();
            assert_eq!(fed_by, [names[gate]]);
        }
    }

    /// POOR funnels every replica's input through one shared sequencer.
    #[test]
    fn the_ordered_recording_has_one_sequencer() {
        let t = recorded(&sealed(ReportQuery::Poor));
        assert_eq!(t.instance_names().filter(|&n| n == "sequencer").count(), 1);
        assert_eq!(
            t.instance_names()
                .filter(|n| n.starts_with("autocoord-seal"))
                .count(),
            0
        );
    }

    /// POOR orders the Report replicas and also, downstream, the Cache —
    /// the response sinks, which no `Cache` instance stands for: that
    /// directive matches nothing and injects nothing.
    #[test]
    fn the_downstream_cache_order_injects_nothing() {
        let sc = sealed(ReportQuery::Poor);
        let report = assemble_ad_auto(&sc, false, &mut Topology::new()).report;
        assert!(matches!(
            report.spec.directive_for("Cache"),
            Some(CoordDirective::Order { inputs, .. }) if inputs == &["response"]
        ));
        assert_eq!(
            report.summary.per_directive,
            [
                ("Cache".to_string(), "sequencer", 0),
                ("Report".to_string(), "sequencer", 1)
            ]
        );
    }

    /// The confluent (sealed) wordcount comes through analysis-driven
    /// coordination and the rewrite pass as exactly the topology it
    /// records without either.
    #[test]
    fn the_confluent_wordcount_records_as_if_uncoordinated() {
        let sc = wc_scenario();
        let mut plain = Topology::new();
        let _ = crate::wordcount::wordcount_topology(&sc)
            .0
            .assemble(&mut plain);

        let (mut t, _) = crate::wordcount::wordcount_topology(&sc);
        t.apply_coordination(&wordcount_spec(true), &wordcount_ordering_config(&sc))
            .expect("spec fits the wordcount topology");
        let mut coordinated = Topology::new();
        let mut rb = RewritingBuilder::new(&mut coordinated, NoopPass);
        let _ = t.assemble(&mut rb);
        assert!(rb.finish().1.is_untouched());
        assert_eq!(coordinated, plain);
    }

    #[test]
    fn auto_parallel_campaign_is_deterministic_across_workers() {
        let sc = sealed(ReportQuery::Campaign);
        let mut digests = Vec::new();
        for workers in [1usize, 3] {
            let (res, _) = checked_run(&sc, &BackendSpec::par(workers), 3);
            digests.push(response_digests(&res.responses));
        }
        assert_eq!(digests[0], digests[1], "digests differ across workers");
        assert!(!digests[0].iter().all(Vec::is_empty), "responses exist");
    }

    fn wc_scenario() -> WordcountScenario {
        WordcountScenario {
            workers: 3,
            workload: TweetWorkload {
                vocabulary: 50,
                batches: 5,
                tweets_per_batch: 10,
                ..TweetWorkload::default()
            },
            seed: 9,
            ..WordcountScenario::default()
        }
    }

    #[test]
    fn coordinated_wordcount_sealed_is_rewrite_free_and_exact() {
        let sc = wc_scenario();
        let baseline = crate::wordcount::run_wordcount(&sc, &BackendSpec::Sim);
        let (auto, outcome) = run_wordcount_auto(&sc, true, &BackendSpec::Sim);
        assert!(outcome.is_rewrite_free(), "{outcome:?}");
        assert_eq!(outcome.seal_native.len(), 1, "{outcome:?}");
        assert_eq!(auto.counts(), baseline.counts());
    }

    #[test]
    fn coordinated_wordcount_unsealed_orders_the_count_bolt() {
        let sc = wc_scenario();
        let baseline = crate::wordcount::run_wordcount(&sc, &BackendSpec::Sim);
        let (auto, outcome) = run_wordcount_auto(&sc, false, &BackendSpec::Sim);
        assert_eq!(outcome.ordered, vec!["Count".to_string()]);
        assert_eq!(auto.counts(), baseline.counts());
        assert!(
            auto.stats.as_sim().expect("sim run").end_time
                > baseline.stats.as_sim().expect("sim run").end_time,
            "ordering costs virtual time"
        );
    }

    #[test]
    fn coordinated_wordcount_parallel_matches_simulator() {
        let sc = wc_scenario();
        let (sim, _) = run_wordcount_auto(&sc, true, &BackendSpec::Sim);
        let (par, outcome) = run_wordcount_auto(&sc, true, &BackendSpec::par(4));
        assert!(outcome.is_rewrite_free());
        assert_eq!(par.counts(), sim.counts());
    }
}
