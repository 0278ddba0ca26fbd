//! The ad-tracking network under all four coordination strategies (paper
//! Sections VI-B and VIII-B): white-box analysis of each query, then
//! simulated runs of the CAMPAIGN query comparing strategies.
//!
//! ```text
//! cargo run --release --example ad_reporting
//! ```

use blazes::apps::adreport::{run_scenario, AdScenario, StrategyKind};
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
    println!("\nstrategy           completion   consistent responses?");
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
        let res = run_scenario(&sc, &BackendSpec::Sim);
        println!(
            "{:<18} {:>7.2}s     {}",
            strategy.label(placement),
            res.completion_time()
                .map(|t| t as f64 / 1e6)
                .unwrap_or(f64::NAN),
            res.responses_consistent(),
        );
    }
    Ok(())
}
