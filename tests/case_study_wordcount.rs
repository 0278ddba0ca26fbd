//! Integration test: the Storm wordcount case study end to end (paper
//! Sections VI-A and VIII-A) — spec file, grey-box adapter, analysis,
//! coordination synthesis and runtime behavior must all agree.

use blazes::apps::casestudy::wordcount_graph;
use blazes::apps::wordcount::{WordcountResult, WordcountScenario};
use blazes::apps::workload::TweetWorkload;
use blazes::core::analysis::Analyzer;
use blazes::core::label::Label;
use blazes::core::placement::{CoordDirective, CoordinationSpec};
use blazes::core::spec::Spec;
use blazes::core::strategy::residual_labels;
use blazes::dataflow::backend::BackendSpec;

fn run_wordcount(sc: &WordcountScenario) -> WordcountResult {
    blazes::apps::wordcount::run_wordcount(sc, &BackendSpec::Sim)
}

fn end_time(res: &WordcountResult) -> u64 {
    res.stats.as_sim().expect("sim run").end_time
}

const WORDCOUNT_SPEC: &str = r#"
# Section VI-A1's annotation file, plus topology sections.
Splitter:
  annotation:
    - { from: tweets, to: words, label: CR }
Count:
  annotation:
    - { from: words, to: counts, label: OW, subscript: [word, batch] }
Commit:
  annotation: { from: counts, to: db, label: CW }
streams:
  - { name: tweets, attrs: [word, batch], to: Splitter.tweets }
connections:
  - { from: Splitter.words, to: Count.words }
  - { from: Count.counts, to: Commit.counts }
sinks:
  - { name: store, from: Commit.db }
"#;

#[test]
fn spec_file_and_adapter_agree() {
    // The same dataflow arrives two ways: via the paper-format spec file
    // and via the Storm grey-box adapter. Labels must match.
    let spec = Spec::parse(WORDCOUNT_SPEC).unwrap();
    let from_spec = spec.to_graph("wordcount").unwrap();
    let spec_label = {
        let out = Analyzer::new(&from_spec).run().unwrap();
        out.sink_label(from_spec.sink_by_name("store").unwrap())
            .cloned()
    };

    let (from_adapter, sink) = wordcount_graph(false);
    let adapter_label = Analyzer::new(&from_adapter)
        .run()
        .unwrap()
        .sink_label(sink)
        .cloned();

    assert_eq!(spec_label, adapter_label);
    assert_eq!(spec_label, Some(Label::Run));
}

#[test]
fn sealed_spec_derives_async() {
    let sealed_spec = WORDCOUNT_SPEC.replace(
        "attrs: [word, batch], to:",
        "attrs: [word, batch], seal: [batch], to:",
    );
    let spec = Spec::parse(&sealed_spec).unwrap();
    let g = spec.to_graph("wordcount").unwrap();
    let out = Analyzer::new(&g).run().unwrap();
    assert_eq!(
        out.sink_label(g.sink_by_name("store").unwrap()),
        Some(&Label::Async)
    );
}

#[test]
fn synthesis_targets_the_count_bolt() {
    let (g, _) = wordcount_graph(false);
    let plan = CoordinationSpec::derive(&g, false).unwrap();
    assert!(matches!(
        plan.directive_for("Count"),
        Some(CoordDirective::Order { .. })
    ));
    // Deploying the plan restores a consistent program.
    let residual = residual_labels(&g, &plan).unwrap();
    assert!(residual.iter().all(|(_, l)| !l.is_anomalous()));
}

#[test]
fn sealed_plan_avoids_global_coordination() {
    let (g, _) = wordcount_graph(true);
    let plan = CoordinationSpec::derive(&g, false).unwrap();
    assert!(
        (plan.directives.iter()).all(|d| matches!(d, CoordDirective::Seal { .. })),
        "sealing replaces ordering entirely: {plan:?}"
    );
    assert!(!plan.is_empty());
}

fn scenario(transactional: bool, seed: u64) -> WordcountScenario {
    WordcountScenario {
        workers: 4,
        transactional,
        seed,
        workload: TweetWorkload {
            batches: 6,
            tweets_per_batch: 12,
            vocabulary: 40,
            ..TweetWorkload::default()
        },
        ..WordcountScenario::default()
    }
}

#[test]
fn runtime_confirms_the_analysis_verdict() {
    // The analysis says the *sealed* topology is deterministic (Async): the
    // committed counts must be identical across delivery interleavings.
    let counts: Vec<_> = (0..4)
        .map(|seed| run_wordcount(&scenario(false, seed)).counts())
        .collect();
    for c in &counts[1..] {
        assert_eq!(
            &counts[0], c,
            "sealed topology must be interleaving-insensitive"
        );
    }
}

#[test]
fn transactional_pays_for_equivalent_outputs() {
    let sealed = run_wordcount(&scenario(false, 11));
    let tx = run_wordcount(&scenario(true, 11));
    assert_eq!(sealed.counts(), tx.counts(), "identical committed outputs");
    assert!(
        end_time(&tx) > end_time(&sealed),
        "the transactional topology must take longer ({} vs {})",
        end_time(&tx),
        end_time(&sealed)
    );
}
