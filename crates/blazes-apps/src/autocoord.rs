//! The case studies, coordinated by the full annotate→analyze→inject
//! pipeline, end to end. For the ad report this is the only way it is
//! coordinated at all.
//!
//! * `ad_network_spec` derives the coordination spec for the ad network
//!   from the query's white-box Bloom annotations and from what the
//!   scenario's [`StrategyKind`] tells the analysis: nothing
//!   (`Uncoordinated`: empty spec), the dataflow with the campaign
//!   punctuations withheld (`Ordered`), or with them declared (`Sealed`).
//!   [`assemble_ad_auto`] then threads the uncoordinated wiring of
//!   [`crate::adreport`] through [`blazes_autocoord::AutoCoordRules`]:
//!   sealed CAMPAIGN gets seal gates, POOR and unsealed CAMPAIGN get an
//!   ordering service, THRESH gets nothing. It is the one ad-report
//!   assembly and [`run_ad_auto`] the one runner, on every backend.
//! * [`wordcount_spec`] does the same for the Storm wordcount through the
//!   grey-box adapter; [`run_wordcount_auto`] threads it through
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
use crate::casestudy::{ad_network_graph, wordcount_graph};
use crate::queries::ReportQuery;
use crate::wordcount::{WordcountResult, WordcountScenario};
use blazes_autocoord::{AutoCoordRules, InjectionSummary, SealBinding};
use blazes_core::placement::{CoordDirective, CoordinationSpec};
use blazes_dataflow::backend::{
    build_local, BackendRunStats, BackendSpec, ExecutorBuilder, RewriteStats, RewritingBuilder,
};
use blazes_dataflow::dist::{run_dist, ProbeBuilder};
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

/// Derive the coordination spec for the ad network running `query` under
/// `strategy`: empty when uncoordinated, otherwise the analysis's verdict
/// with the ad servers' campaign punctuations withheld (`Ordered`) or
/// declared (`Sealed` — whether they *suffice* is the analysis's call).
///
/// # Panics
/// Panics only if the bundled query modules stop analyzing — a bug.
#[must_use]
fn ad_network_spec(query: ReportQuery, strategy: StrategyKind) -> CoordinationSpec {
    let seal_key: Option<&[&str]> = match strategy {
        StrategyKind::Uncoordinated => return CoordinationSpec::default(),
        StrategyKind::Ordered => None,
        StrategyKind::Sealed => Some(&["campaign"]),
    };
    let (graph, _) = ad_network_graph(query, seal_key);
    CoordinationSpec::derive(&graph, true).expect("ad network graph analyzes")
}

/// The runtime binding for the Report component's seal directive: clicks
/// are `(id, campaign, window)` (campaign in column 1), requests are
/// `(id)` and read the campaign partition `id / ads_per_campaign`.
#[must_use]
fn report_seal_binding(sc: &AdScenario) -> SealBinding {
    let ads = sc.workload.ads_per_campaign as i64;
    SealBinding::new(seal_registry_for(&sc.workload), vec![1], 3).with_query_partition(Arc::new(
        move |t| {
            t.get(0)
                .and_then(Value::as_int)
                .map(|id| Value::Int(id / ads))
        },
    ))
}

/// The injection rules for `sc`: one seal binding for the Report replicas
/// when the spec sealed them, the scenario's sequencer toll when it
/// ordered them.
#[must_use]
fn ad_network_rules(sc: &AdScenario, spec: &CoordinationSpec) -> AutoCoordRules {
    let mut rules = AutoCoordRules::new(spec).with_sequencer_service(sc.sequencer_service);
    if matches!(
        spec.directive_for("Report"),
        Some(CoordDirective::Seal { .. })
    ) {
        rules = rules.bind_seal("Report", report_seal_binding(sc));
    }
    rules
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

/// Assemble the ad-network scenario onto any backend builder: wire it
/// uncoordinated through the rewrite pass, which injects exactly what
/// `ad_network_spec` demands for `sc.query` under `sc.strategy` (nothing
/// at all when that spec is empty). This is the one assembly the
/// simulator, the parallel executor and every process of a distributed
/// run share; `speculation` selects the speculative seal-gate variant,
/// meaningful on the parallel executor only (dist workers never speculate,
/// so the dist registry always assembles with `false`).
pub fn assemble_ad_auto<B: ExecutorBuilder + ?Sized>(
    sc: &AdScenario,
    speculation: bool,
    b: &mut B,
) -> AdAutoAssembly {
    let spec = ad_network_spec(sc.query, sc.strategy);
    let rules = ad_network_rules(sc, &spec).with_speculation(speculation);
    let mut rb = RewritingBuilder::new(b, rules);
    let (series, responses) = crate::adreport::assemble_scenario(sc, &mut rb);
    let (rules, stats) = rb.finish();
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
/// simulator, the parallel executor, or (via [`crate::dist::dist_registry`])
/// a fleet of worker processes; modeled service times apply on the
/// simulator only. When the backend enables time-warp speculation (par
/// only), the injected seal gates are the speculative variant.
///
/// On [`BackendSpec::Dist`] the spec's `topology`/`params` fields are
/// overwritten with the ad-report registry entry for `sc`; everything
/// else (process count, wire faults, worker command) is honored as given,
/// and the returned report is computed parent-side by probing the same
/// assembly.
///
/// # Panics
/// Panics when a `Par` spec is invalid, and on any distributed transport
/// failure.
#[must_use]
pub fn run_ad_auto(sc: &AdScenario, backend: &BackendSpec) -> (AdRunResult, AutoCoordReport) {
    let (series, responses, stats, report) = if let BackendSpec::Dist(d) = backend {
        let report = assemble_ad_auto(sc, false, &mut ProbeBuilder::new()).report;
        let mut spec = d.clone();
        spec.topology = crate::dist::AD_TOPOLOGY.to_string();
        spec.params = crate::dist::encode_ad_params(sc);
        let run =
            run_dist(&spec, &crate::dist::dist_registry()).expect("distributed ad-report run");
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

/// Derive the coordination spec for the Storm wordcount (grey-box
/// annotations, Section VI-A): `sealed` states whether the tweet stream's
/// batch punctuations are declared to the analysis.
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
        first_batch: 0,
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
/// computed parent-side by probing the same coordinated assembly.
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
    use crate::workload::{CampaignPlacement, TweetWorkload};

    fn sealed(query: ReportQuery) -> AdScenario {
        scenario(query, StrategyKind::Sealed, CampaignPlacement::Spread)
    }

    #[test]
    fn analysis_picks_the_mechanism_per_query() {
        use StrategyKind::{Ordered, Sealed, Uncoordinated};
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
