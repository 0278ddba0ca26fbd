//! Quickstart: annotate a small dataflow, run the Blazes analysis, and see
//! the synthesized coordination plan.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use blazes::core::analysis::Analyzer;
use blazes::core::annotation::ComponentAnnotation;
use blazes::core::derivation;
use blazes::core::graph::DataflowGraph;
use blazes::core::placement::CoordinationSpec;
use blazes::core::strategy::residual_labels;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Storm wordcount of the paper's Section VI-A: a confluent
    // splitter, an order-sensitive stateful counter partitioned on
    // (word, batch), and an append-only committer.
    let mut g = DataflowGraph::new("wordcount");
    let tweets = g.add_source("tweets", &["word", "batch"]);
    let splitter = g.add_component("Splitter");
    g.add_path(splitter, "tweets", "words", ComponentAnnotation::cr());
    let count = g.add_component("Count");
    g.add_path(
        count,
        "words",
        "counts",
        ComponentAnnotation::ow(["word", "batch"]),
    );
    let commit = g.add_component("Commit");
    g.add_path(commit, "counts", "db", ComponentAnnotation::cw());
    let sink = g.add_sink("store");
    g.connect_source(tweets, splitter, "tweets");
    g.connect(splitter, "words", count, "words");
    g.connect(count, "counts", commit, "counts");
    g.connect_sink(commit, "db", sink);

    // 1. Unsealed: replay produces different results per run -> Run.
    let outcome = Analyzer::new(&g).run()?;
    println!("--- unsealed ---");
    print!("{}", derivation::render(&g, &outcome));
    let plan = CoordinationSpec::derive(&g, false)?;
    println!("plan:\n{}", plan.render());
    println!("residual after plan: {:?}\n", residual_labels(&g, &plan)?);

    // 2. Sealed on batch: Blazes recognizes the compatibility between the
    //    punctuated stream and OW_{word,batch} -> Async, no global
    //    coordination.
    g.seal_source(tweets, ["batch"]);
    let outcome = Analyzer::new(&g).run()?;
    println!("--- sealed on batch ---");
    print!("{}", derivation::render(&g, &outcome));
    let plan = CoordinationSpec::derive(&g, false)?;
    println!("plan:\n{}", plan.render());
    Ok(())
}
