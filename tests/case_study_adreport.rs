//! Integration test: the ad-reporting case study (paper Sections VI-B and
//! VIII-B) — the white-box Bloom pipeline, the Section VI label table, and
//! the runtime behavior of the coordination Blazes synthesizes for each
//! legend entry of Figures 12–14.

use blazes::apps::adreport::{AdRunResult, AdScenario, StrategyKind};
use blazes::apps::autocoord::{response_digests, run_ad_auto};
use blazes::apps::casestudy::ad_network_graph;
use blazes::apps::queries::ReportQuery;
use blazes::apps::workload::CampaignPlacement;
use blazes::core::analysis::Analyzer;
use blazes::core::label::Label;
use blazes::dataflow::backend::BackendSpec;
use blazes_bench::adreport_scenario;

/// The Section VI-B2 derivation table, via the full white-box pipeline
/// (Bloom source → static analysis → dataflow graph → Blazes analyzer).
#[test]
fn section_vi_label_table() {
    let cases = [
        (ReportQuery::Thresh, None, Label::Async),
        (ReportQuery::Poor, None, Label::Diverge),
        (ReportQuery::Poor, Some(&["campaign"][..]), Label::Diverge),
        (ReportQuery::Window, None, Label::Diverge),
        (ReportQuery::Window, Some(&["window"][..]), Label::Async),
        (ReportQuery::Window, Some(&["id"][..]), Label::Async),
        (ReportQuery::Campaign, None, Label::Diverge),
        (ReportQuery::Campaign, Some(&["campaign"][..]), Label::Async),
    ];
    for (query, seal, expected) in cases {
        let (g, sink) = ad_network_graph(query, seal);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(
            out.sink_label(sink),
            Some(&expected),
            "{} seal={seal:?}",
            query.name()
        );
    }
}

/// The four legend entries of Figures 12–14 at `servers` ad servers, in
/// legend order (Uncoordinated, Ordered, Independent Seal, Seal). Every
/// entry must process the whole log through exactly what the pass injects
/// for it — nothing, one shared sequencer, one seal gate per replica — and
/// replicas behind injected coordination must agree.
fn legend_runs(servers: usize) -> [AdRunResult; 4] {
    [
        (StrategyKind::Uncoordinated, CampaignPlacement::Spread, 0),
        (StrategyKind::Ordered, CampaignPlacement::Spread, 1),
        (StrategyKind::Sealed, CampaignPlacement::Independent, 3),
        (StrategyKind::Sealed, CampaignPlacement::Spread, 3),
    ]
    .map(|(strategy, placement, injected)| {
        let sc = adreport_scenario(servers, strategy, placement, 1);
        let (res, report) = run_ad_auto(&sc, &BackendSpec::Sim);
        let at = format!("{} at {servers} ad servers", strategy.label(placement));
        assert!(
            res.series.iter().all(|s| s.total() == res.expected_records),
            "{at}"
        );
        assert_eq!(report.stats.injected_operators, injected, "{at}");
        assert!(
            injected == 0 || res.responses_consistent(),
            "{at}: replicas disagree"
        );
        res
    })
}

#[test]
fn all_strategies_process_the_full_log() {
    let _ = legend_runs(5);
}

/// The shapes of Figures 12–14, measured on synthesized coordination:
/// Uncoordinated ≈ Independent Seal ≤ Seal ≪ Ordered, and only Ordered
/// pays more as ad servers are added.
#[test]
fn ordering_is_the_slowest_strategy() {
    let done = |r: &AdRunResult| r.completion_time().expect("the whole log");
    let third = |r: &AdRunResult| {
        let n = r.expected_records / 3;
        r.series[0].time_to_reach(n).expect("a third of the log")
    };
    let mut ordered = Vec::new();
    for servers in [5, 10] {
        let [unc, ord, ind, seal] = legend_runs(servers);
        assert!(
            done(&ord) >= 3 * done(&unc),
            "{servers} servers: ordering must dominate"
        );
        assert!(
            done(&seal) * 10 <= done(&unc) * 11,
            "{servers} servers: sealing must track uncoordinated"
        );
        assert!(
            third(&ind) <= third(&seal),
            "{servers} servers: independent seals release no later"
        );
        ordered.push(done(&ord));
    }
    assert!(
        ordered[1] > ordered[0],
        "one shared sequencer: ordering cost grows with the ad servers"
    );
}

/// One request, one answer: the injected gate delays each query until its
/// partition is sealed and then lets it through once, so a replica's
/// response *multiset* — not just its set — is a function of the workload
/// alone: the same under every simulator interleaving and every worker
/// count of the parallel executor. Run on the full Fig. 12 scenario.
#[test]
fn sealed_campaign_is_deterministic_across_interleavings() {
    let fig12 = adreport_scenario(5, StrategyKind::Sealed, CampaignPlacement::Spread, 1);
    let rows = [
        (1, BackendSpec::Sim),
        (2, BackendSpec::Sim),
        (3, BackendSpec::Sim),
        (1, BackendSpec::par(1)),
        (1, BackendSpec::par(3)),
    ];
    let mut reference = None;
    for (seed, backend) in rows {
        let at = format!("seed {seed} on {}", backend.name());
        let sc = AdScenario {
            seed,
            ..fig12.clone()
        };
        let (res, _) = run_ad_auto(&sc, &backend);
        assert!(
            res.series.iter().all(|s| s.total() == res.expected_records),
            "{at}"
        );
        let digests = response_digests(&res.responses);
        for d in &digests {
            assert!(
                (1..=sc.requests).contains(&d.len()),
                "{at}: {} responses to {} requests",
                d.len(),
                sc.requests
            );
            assert_eq!(d, &digests[0], "{at}: replicas agree");
        }
        let reference = reference.get_or_insert_with(|| digests.clone());
        assert_eq!(&digests, reference, "{at}: response multiset moved");
    }
}

#[test]
fn ordered_replicas_always_agree() {
    for seed in 0..3 {
        let sc = adreport_scenario(5, StrategyKind::Ordered, CampaignPlacement::Spread, seed);
        assert!(run_ad_auto(&sc, &BackendSpec::Sim).0.responses_consistent());
    }
}

#[test]
fn white_box_annotations_flow_into_the_graph() {
    // The Report component in the generated graph carries the
    // white-box-derived annotations, including the lineage maps.
    let (g, _) = ad_network_graph(ReportQuery::Campaign, Some(&["campaign"]));
    let report = g.component_by_name("Report").unwrap();
    let paths = &g.component(report).paths;
    assert_eq!(paths.len(), 2, "click and request paths");
    let request = paths.iter().find(|p| p.from == "request").unwrap();
    assert_eq!(request.annotation.to_string(), "OR_{campaign,id}");
    let click = paths.iter().find(|p| p.from == "click").unwrap();
    assert_eq!(click.annotation.to_string(), "CW");
    assert!(click.lineage.is_some(), "lineage derived from the catalog");
}
