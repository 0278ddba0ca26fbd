//! `analysis_scaling`: what the Blazes analysis itself costs as the
//! dataflow grows — the price a build system would pay to run the analyzer
//! on every change.
//!
//! ```text
//! cargo run -p blazes-bench --release --bin analysis_scaling -- \
//!     [--smoke] [--out [FILE]] [--check]
//! ```
//!
//! Eight subjects: label analysis of synthetic chains of 10, 100 and 500
//! components, the white-box extraction for the CAMPAIGN Bloom module, and
//! full plan synthesis (`CoordinationSpec::derive`, dynamic ordering) on the
//! ad network of each of the four queries with clicks sealed on
//! `campaign`. Each records the median wall time of 101 calls (`--smoke`:
//! 11), which is never gated. The rest of the record is what the analysis
//! did, which is machine-independent, and `--check` exits nonzero unless
//! every chain of *n* components analysed in exactly *n* inference steps and
//! *n* reconciliations with its sink labelled `Run`, and the Report got the
//! mechanism of its query: none for THRESH, a seal for CAMPAIGN, an order
//! for WINDOW and POOR. Each query's directive count is recorded but not
//! gated: a plan that orders the Report also orders the Cache. `--out`
//! writes the record as JSON (default `BENCH_analysis.json` when given
//! without a value), stamped with the machine's core count.

#![forbid(unsafe_code)]

use blazes_apps::casestudy::ad_network_graph;
use blazes_apps::queries::ReportQuery;
use blazes_bench::{cli, json};
use blazes_bloom::analyze::annotate_module;
use blazes_core::analysis::Analyzer;
use blazes_core::annotation::ComponentAnnotation;
use blazes_core::graph::DataflowGraph;
use blazes_core::placement::{CoordDirective, CoordinationSpec};
use std::hint::black_box;
use std::time::Instant;

const USAGE: &str = "usage: analysis_scaling [--smoke] [--out [FILE]] [--check]";

/// The mechanism each query's Report must get with clicks sealed on
/// `campaign`.
const REPORT_MECHANISMS: [(ReportQuery, &str); 4] = [
    (ReportQuery::Thresh, "none"),
    (ReportQuery::Poor, "order"),
    (ReportQuery::Window, "order"),
    (ReportQuery::Campaign, "seal"),
];

/// A chain of `n` alternating CW / OW components fed by a sealed source.
fn chain_graph(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new(format!("chain-{n}"));
    let src = g.add_source("src", &["k", "v"]);
    g.seal_source(src, ["k"]);
    let mut prev = None;
    for i in 0..n {
        let c = g.add_component(format!("C{i}"));
        let ann = if i % 2 == 0 {
            ComponentAnnotation::cw()
        } else {
            ComponentAnnotation::ow(["k"])
        };
        g.add_path(c, "in", "out", ann);
        match prev {
            None => {
                g.connect_source(src, c, "in");
            }
            Some(p) => {
                g.connect(p, "out", c, "in");
            }
        }
        prev = Some(c);
    }
    let sink = g.add_sink("sink");
    g.connect_sink(prev.expect("n > 0"), "out", sink);
    g
}

/// Median wall time of `iters` calls of `f`, microseconds.
fn median_us<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[iters / 2]
}

fn main() {
    let (iters, out, check) = cli::parse_or_exit(USAGE, |mut a| {
        let iters = if a.switch("--smoke") { 11 } else { 101 };
        let out = a.optional_or("--out", "BENCH_analysis.json".to_string())?;
        let check = a.switch("--check");
        a.done()?;
        Ok((iters, out, check))
    });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("# analysis_scaling: {cores} core(s), median of {iters} call(s)");

    // One pre-rendered JSON row per subject.
    let mut rows = Vec::new();
    let mut one_step_per_component = true;
    for n in [10usize, 100, 500] {
        let g = chain_graph(n);
        let analyze = || Analyzer::new(&g).run().expect("analyzable");
        let outcome = analyze();
        let (derivations, reports) = (outcome.derivations().len(), outcome.reports().len());
        let label = outcome.program_label().to_string();
        one_step_per_component &= derivations == n && reports == n && label == "Run";
        let us = median_us(iters, analyze);
        println!(
            "chain-{n}: {us:.1} us, {derivations} derivations, {reports} reports, sink {label}"
        );
        rows.push(format!(
            "{{\"subject\": \"chain-{n}\", \"median_us\": {us:.1}, \"components\": {n}, \
             \"derivations\": {derivations}, \"reports\": {reports}, \"sink_label\": \"{label}\"}}"
        ));
    }
    let m = ReportQuery::Campaign.module();
    let white_box = median_us(iters, || annotate_module(&m).expect("analyzable"));
    println!("white_box_campaign: {white_box:.1} us");
    rows.push(format!(
        "{{\"subject\": \"white_box_campaign\", \"median_us\": {white_box:.1}}}"
    ));
    let mut report_mechanisms_hold = true;
    for (query, expected) in REPORT_MECHANISMS {
        let (g, _) = ad_network_graph(query, Some(&["campaign"]));
        let derive = || CoordinationSpec::derive(&g, true).expect("derivable");
        let spec = derive();
        let mechanism = match spec.directive_for("Report") {
            None => "none",
            Some(CoordDirective::Seal { .. }) => "seal",
            Some(CoordDirective::Order { .. }) => "order",
        };
        report_mechanisms_hold &= mechanism == expected;
        let directives = spec.len();
        let us = median_us(iters, derive);
        let subject = format!("derive_{}", query.name().to_lowercase());
        println!("{subject}: {us:.1} us, {directives} directive(s), Report {mechanism}");
        rows.push(format!(
            "{{\"subject\": \"{subject}\", \"median_us\": {us:.1}, \
             \"directives\": {directives}, \"report_mechanism\": \"{mechanism}\"}}"
        ));
    }

    if let Some(path) = out {
        let mut s = format!(
            "{{\n  \"bench\": \"analysis_scaling\",\n  \"cores\": {cores},\n  \"iters\": {iters},\n  \
             \"chains_cost_one_step_per_component\": {one_step_per_component},\n  \
             \"report_mechanisms_hold\": {report_mechanisms_hold},\n"
        );
        json::array(&mut s, "points", rows, true);
        s.push_str("}\n");
        std::fs::write(&path, s).expect("write bench JSON");
        println!("# wrote {path}");
    }
    if check {
        if !one_step_per_component {
            eprintln!("FAIL: a chain's analysis did not take one step per component");
        }
        if !report_mechanisms_hold {
            eprintln!("FAIL: a query's Report did not get its mechanism");
        }
        if !(one_step_per_component && report_mechanisms_hold) {
            std::process::exit(1);
        }
        println!(
            "# counter gate passed: n derivations, n reports, sink Run on every chain-n; \
             Report none/order/order/seal for THRESH/POOR/WINDOW/CAMPAIGN"
        );
    }
}
