//! Runs the Storm wordcount case study end to end: analysis first, then
//! both deployments on the simulator, comparing throughput and verifying
//! that outputs agree (paper Sections VI-A and VIII-A).
//!
//! ```text
//! cargo run --release --example storm_wordcount
//! ```

use blazes::apps::casestudy::wordcount_graph;
use blazes::apps::wordcount::{run_wordcount, WordcountScenario};
use blazes::apps::workload::TweetWorkload;
use blazes::core::analysis::Analyzer;
use blazes::core::derivation::render_summary;
use blazes::dataflow::backend::BackendSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Analysis: the sealed topology needs no global coordination.
    for sealed in [false, true] {
        let (g, _) = wordcount_graph(sealed);
        let outcome = Analyzer::new(&g).run()?;
        print!(
            "{} {}",
            if sealed { "[sealed]  " } else { "[unsealed]" },
            render_summary(&g, &outcome)
        );
    }

    // Execution: same workload under both coordination regimes.
    let base = WordcountScenario {
        workers: 8,
        workload: TweetWorkload {
            batches: 20,
            tweets_per_batch: 30,
            ..TweetWorkload::default()
        },
        ..WordcountScenario::default()
    };

    let sealed = run_wordcount(
        &WordcountScenario {
            transactional: false,
            ..base.clone()
        },
        &BackendSpec::Sim,
    );
    let tx = run_wordcount(
        &WordcountScenario {
            transactional: true,
            ..base
        },
        &BackendSpec::Sim,
    );

    println!(
        "\nsealed topology:        {:>8.0} tweets/s (virtual)",
        sealed.throughput()
    );
    println!(
        "transactional topology: {:>8.0} tweets/s (virtual)",
        tx.throughput()
    );
    println!(
        "speedup from avoiding global ordering: {:.2}x",
        sealed.throughput() / tx.throughput()
    );

    assert_eq!(
        sealed.counts(),
        tx.counts(),
        "both deployments commit identical counts"
    );
    println!(
        "\nboth deployments committed identical counts for {} (word, batch) keys",
        sealed.counts().len()
    );
    Ok(())
}
