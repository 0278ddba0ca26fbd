//! Demonstrates the anomalies of the paper's Section III-A — and their
//! automatic repair by the annotate→analyze→inject pipeline.
//!
//! Replicated reporting servers running the nonmonotonic POOR query
//! return *different answers to the same query* when uncoordinated. The
//! demo then reruns the same scenario with the ad servers' campaign
//! punctuations declared (the default [`StrategyKind::Sealed`]): the
//! analysis derives a [`CoordinationSpec`] (ordering for POOR, whose `id`
//! gate is incompatible with the campaign punctuations; seal gates for
//! CAMPAIGN, whose gate is compatible), the rewrite pass injects exactly
//! that, and the replicas agree again.
//!
//! ```text
//! cargo run --release --example anomaly_demo
//! ```

use blazes::apps::adreport::{AdScenario, StrategyKind};
use blazes::apps::autocoord::run_ad_auto;
use blazes::apps::queries::ReportQuery;
use blazes::apps::workload::{CampaignPlacement, ClickWorkload};
use blazes::dataflow::backend::BackendSpec;

fn main() {
    let base = AdScenario {
        workload: ClickWorkload {
            ad_servers: 4,
            entries_per_server: 400,
            campaigns: 4,
            ads_per_campaign: 2,
            entry_interval: 400,
            placement: CampaignPlacement::Spread,
            ..ClickWorkload::default()
        },
        query: ReportQuery::Poor,
        replicas: 3,
        requests: 40,
        tick_every: 1, // answer every query against the instantaneous state
        ..AdScenario::default()
    };

    // Hunt for a seed where the uncoordinated run exposes cross-instance
    // nondeterminism (most seeds do, with racing clicks and queries).
    let mut inconsistent_seed = None;
    for seed in 0..20 {
        let (res, _) = run_ad_auto(
            &AdScenario {
                strategy: StrategyKind::Uncoordinated,
                seed,
                ..base.clone()
            },
            &BackendSpec::Sim,
        );
        if !res.responses_consistent() {
            inconsistent_seed = Some(seed);
            println!(
                "seed {seed}: UNCOORDINATED replicas disagree — replica response-set sizes: {:?}",
                res.responses
                    .iter()
                    .map(|r| r.message_set().len())
                    .collect::<Vec<_>>()
            );
            break;
        }
    }
    let Some(seed) = inconsistent_seed else {
        println!("no inconsistent seed found in 0..20 (unusual — try more seeds)");
        return;
    };

    // The repair is not hand-wired: the analysis decides. POOR's
    // id-partitioned gate is incompatible with campaign seals, so the
    // spec falls back to an ordering service...
    let (auto, report) = run_ad_auto(
        &AdScenario {
            seed,
            ..base.clone()
        },
        &BackendSpec::Sim,
    );
    println!(
        "\nanalysis for POOR:\n  {}",
        report.spec.render().trim_end()
    );
    println!(
        "seed {seed}: AUTO-COORDINATED replicas agree: {} (injected: {})",
        auto.responses_consistent(),
        report.summary.render().trim_end()
    );
    assert!(auto.responses_consistent());

    // ...while CAMPAIGN's gate is compatible with the punctuations, so
    // the same pipeline injects only cheap seal gates.
    let (auto, report) = run_ad_auto(
        &AdScenario {
            query: ReportQuery::Campaign,
            seed,
            ..base
        },
        &BackendSpec::Sim,
    );
    println!(
        "\nanalysis for CAMPAIGN:\n  {}",
        report.spec.render().trim_end()
    );
    println!(
        "CAMPAIGN auto-coordinated replicas agree: {} (injected: {})",
        auto.responses_consistent(),
        report.summary.render().trim_end()
    );
    assert!(auto.responses_consistent());

    println!(
        "\nthis is the paper's Section III-A nondeterminism, repaired by the \
         annotate→analyze→inject loop — minimal coordination, chosen per query."
    );
}
