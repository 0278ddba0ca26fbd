//! Integration test: the ad-reporting case study (paper Sections VI-B and
//! VIII-B) — the white-box Bloom pipeline, the Section VI label table, and
//! the runtime behavior of all four strategies.

use blazes::apps::adreport::{AdRunResult, AdScenario, StrategyKind};
use blazes::apps::casestudy::ad_network_graph;
use blazes::apps::queries::ReportQuery;
use blazes::apps::workload::{CampaignPlacement, ClickWorkload};
use blazes::core::analysis::Analyzer;
use blazes::core::label::Label;
use blazes::dataflow::backend::BackendSpec;

fn run_scenario(sc: &AdScenario) -> AdRunResult {
    blazes::apps::adreport::run_scenario(sc, &BackendSpec::Sim)
}

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

fn scenario(strategy: StrategyKind, placement: CampaignPlacement, seed: u64) -> AdScenario {
    AdScenario {
        workload: ClickWorkload {
            ad_servers: 4,
            entries_per_server: 80,
            batch_size: 20,
            sleep_between_batches: 100_000,
            entry_interval: 200,
            campaigns: 8,
            ads_per_campaign: 3,
            placement,
            seed: 70 + seed,
        },
        strategy,
        replicas: 3,
        requests: 8,
        tick_every: 10,
        seed,
        ..AdScenario::default()
    }
}

#[test]
fn all_strategies_process_the_full_log() {
    for (strategy, placement) in [
        (StrategyKind::Uncoordinated, CampaignPlacement::Spread),
        (StrategyKind::Ordered, CampaignPlacement::Spread),
        (StrategyKind::Sealed, CampaignPlacement::Spread),
        (StrategyKind::Sealed, CampaignPlacement::Independent),
    ] {
        let res = run_scenario(&scenario(strategy, placement, 1));
        for (r, s) in res.series.iter().enumerate() {
            assert_eq!(
                s.total(),
                res.expected_records,
                "{} replica {r} must process every record",
                strategy.label(placement)
            );
        }
    }
}

#[test]
fn sealed_campaign_is_deterministic_across_interleavings() {
    // The analysis says CAMPAIGN + Seal_campaign is Async (deterministic):
    // response sets must not depend on the delivery interleaving.
    let sets: Vec<_> = (0..3)
        .map(|seed| {
            let res = run_scenario(&scenario(
                StrategyKind::Sealed,
                CampaignPlacement::Spread,
                seed,
            ));
            assert!(res.responses_consistent(), "replicas agree within a run");
            res.responses[0].message_set()
        })
        .collect();
    // Note: request *arrival times* differ per seed only in delivery
    // jitter; the request schedule itself is fixed, so final response sets
    // agree.
    for s in &sets[1..] {
        assert_eq!(
            &sets[0], s,
            "sealed responses must be interleaving-insensitive"
        );
    }
}

#[test]
fn ordered_replicas_always_agree() {
    for seed in 0..3 {
        let res = run_scenario(&scenario(
            StrategyKind::Ordered,
            CampaignPlacement::Spread,
            seed,
        ));
        assert!(res.responses_consistent());
    }
}

#[test]
fn ordering_is_the_slowest_strategy() {
    let unc = run_scenario(&scenario(
        StrategyKind::Uncoordinated,
        CampaignPlacement::Spread,
        5,
    ));
    let ord = run_scenario(&scenario(
        StrategyKind::Ordered,
        CampaignPlacement::Spread,
        5,
    ));
    let seal = run_scenario(&scenario(
        StrategyKind::Sealed,
        CampaignPlacement::Spread,
        5,
    ));
    let t = |r: &AdRunResult| r.completion_time().unwrap();
    assert!(t(&ord) > t(&unc), "ordering must cost time");
    // Sealing stays close to uncoordinated (within 2x here; the paper's
    // runs "closely track" it).
    assert!(t(&seal) < t(&ord), "sealing must beat ordering");
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
