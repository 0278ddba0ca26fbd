//! The ad-tracking network under the four legend entries of Figures 12–14
//! (paper Sections VI-B and VIII-B): white-box analysis of each query, then
//! simulated runs of the CAMPAIGN query. A strategy only says what the
//! analysis is told; the gates and the sequencer the runs go through are
//! synthesized from its verdict, not hand-wired.
//!
//! ```text
//! cargo run --release --example ad_reporting
//! ```

use blazes::apps::adreport::{AdScenario, StrategyKind};
use blazes::apps::autocoord::run_ad_auto;
use blazes::apps::casestudy::ad_network_graph;
use blazes::apps::queries::ReportQuery;
use blazes::apps::workload::{CampaignPlacement, ClickWorkload};
use blazes::core::analysis::Analyzer;
use blazes::dataflow::backend::BackendSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // White-box analysis: labels for each query, unsealed and sealed.
    println!("query      unsealed    sealed on campaign");
    for query in ReportQuery::ALL {
        let (g, sink) = ad_network_graph(query, None);
        let unsealed = Analyzer::new(&g).run()?.sink_label(sink).cloned();
        let (g, sink) = ad_network_graph(query, Some(&["campaign"]));
        let sealed = Analyzer::new(&g).run()?.sink_label(sink).cloned();
        println!(
            "{:<10} {:<11} {}",
            query.name(),
            unsealed.map(|l| l.to_string()).unwrap_or_default(),
            sealed.map(|l| l.to_string()).unwrap_or_default(),
        );
    }

    // Execution: CAMPAIGN query, 5 ad servers, all strategies.
    println!("\nstrategy           completion   consistent responses?   injected operators");
    for (strategy, placement) in [
        (StrategyKind::Uncoordinated, CampaignPlacement::Spread),
        (StrategyKind::Ordered, CampaignPlacement::Spread),
        (StrategyKind::Sealed, CampaignPlacement::Independent),
        (StrategyKind::Sealed, CampaignPlacement::Spread),
    ] {
        let sc = AdScenario {
            workload: ClickWorkload {
                ad_servers: 5,
                entries_per_server: 300,
                campaigns: 30,
                placement,
                ..ClickWorkload::default()
            },
            strategy,
            requests: 10,
            ..AdScenario::default()
        };
        let (res, report) = run_ad_auto(&sc, &BackendSpec::Sim);
        println!(
            "{:<18} {:>7.2}s     {:<23} {}",
            strategy.label(placement),
            res.completion_time()
                .map(|t| t as f64 / 1e6)
                .unwrap_or(f64::NAN),
            res.responses_consistent(),
            report.stats.injected_operators,
        );
    }
    Ok(())
}
