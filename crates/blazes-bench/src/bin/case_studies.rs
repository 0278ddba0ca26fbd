//! Section VI case studies: prints the Blazes derivations and coordination
//! plans for the Storm wordcount and the ad-reporting network (all four
//! queries, sealed and unsealed).
//!
//! ```text
//! cargo run -p blazes-bench --release --bin case_studies
//! ```

#![forbid(unsafe_code)]

use blazes_apps::casestudy::{ad_network_graph, wordcount_graph};
use blazes_apps::queries::ReportQuery;
use blazes_core::analysis::Analyzer;
use blazes_core::derivation;
use blazes_core::placement::CoordinationSpec;

fn show(name: &str, graph: &blazes_core::graph::DataflowGraph) {
    println!("==================== {name} ====================");
    match Analyzer::new(graph).run() {
        Ok(outcome) => {
            print!("{}", derivation::render(graph, &outcome));
            match CoordinationSpec::derive(graph, true) {
                Ok(plan) => {
                    println!("-- synthesized coordination --");
                    print!("{}", plan.render());
                }
                Err(e) => println!("plan error: {e}"),
            }
        }
        Err(e) => println!("analysis error: {e}"),
    }
    println!();
}

fn main() {
    for sealed in [false, true] {
        let (g, _) = wordcount_graph(sealed);
        show(
            &format!(
                "Storm wordcount ({})",
                if sealed { "Seal_batch" } else { "unsealed" }
            ),
            &g,
        );
    }
    for query in ReportQuery::ALL {
        let (g, _) = ad_network_graph(query, None);
        show(&format!("Ad network, {} (unsealed)", query.name()), &g);
    }
    for (query, key) in [
        (ReportQuery::Campaign, &["campaign"][..]),
        (ReportQuery::Window, &["window"][..]),
    ] {
        let (g, _) = ad_network_graph(query, Some(key));
        show(
            &format!("Ad network, {} (Seal_{})", query.name(), key.join(",")),
            &g,
        );
    }
}
