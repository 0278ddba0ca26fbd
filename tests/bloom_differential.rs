//! Differential tests for the Bloom evaluation engine: the optimized
//! semi-naive mode must produce **bit-identical** tick outputs and table
//! state to the naive oracle, on every example module shipped with the
//! repo. This is the Bloom-engine analogue of `par_differential`: the
//! optimizations exploit monotonicity (CALM) inside a stratum, and
//! collections are ordered sets, so digests must never depend on the
//! engine.

use blazes::bloom::interp::{EvalMode, ModuleInstance, TickOutput};
use blazes::bloom::parse_module;
use blazes::dataflow::value::{Tuple, Value};
use std::collections::BTreeMap;

/// Every engine variant a module must agree under.
fn engine_variants() -> [(&'static str, EvalMode); 2] {
    [
        ("naive", EvalMode::Naive),
        ("semi-naive", EvalMode::SemiNaive),
    ]
}

/// Load one of the checked-in example modules.
fn example(name: &str) -> String {
    let path = format!("{}/examples/blz/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn pairs(values: &[(i64, i64)]) -> Vec<Tuple> {
    values
        .iter()
        .map(|&(a, b)| Tuple(vec![Value::Int(a), Value::Int(b)]))
        .collect()
}

fn singles(values: &[i64]) -> Vec<Tuple> {
    values.iter().map(|&a| Tuple(vec![Value::Int(a)])).collect()
}

/// Run a module under one mode over a scripted sequence of ticks; return
/// the digest: every tick's full output map plus the final contents of
/// every persistent table.
fn digest(
    text: &str,
    mode: EvalMode,
    ticks: &[BTreeMap<String, Vec<Tuple>>],
) -> (Vec<TickOutput>, BTreeMap<String, Vec<Tuple>>) {
    let m = parse_module(text).expect("example must parse");
    let tables: Vec<String> = m
        .collections
        .iter()
        .filter(|c| c.kind.is_persistent())
        .map(|c| c.name.clone())
        .collect();
    let mut inst = ModuleInstance::with_mode(m, mode).expect("example must stratify");
    let outs: Vec<TickOutput> = ticks
        .iter()
        .map(|inp| inst.tick(inp.clone()).expect("tick must succeed"))
        .collect();
    let finals = tables
        .into_iter()
        .map(|t| {
            let rows = inst.table(&t);
            (t, rows)
        })
        .collect();
    (outs, finals)
}

/// Assert all engine variants agree on a module/workload, and that the
/// optimized modes do not derive more than the oracle.
fn assert_all_modes_agree(label: &str, text: &str, ticks: &[BTreeMap<String, Vec<Tuple>>]) {
    // A new evaluation mode joins the differential on purpose, not by accident.
    assert_eq!(engine_variants().map(|v| v.0), ["naive", "semi-naive"]);
    let reference = digest(text, EvalMode::Naive, ticks);
    for (name, mode) in engine_variants() {
        let got = digest(text, mode, ticks);
        assert_eq!(
            reference, got,
            "{label}: engine {name} diverged from the naive oracle"
        );
    }
}

#[test]
fn transitive_closure_digests_are_engine_independent() {
    // Chain + extra chords, split across two ticks so the table-backed
    // edge relation accumulates.
    let text = example("transitive_closure.blz");
    let tick1: Vec<(i64, i64)> = (0..30).map(|i| (i, i + 1)).collect();
    let tick2: Vec<(i64, i64)> = (0..10).map(|i| (i * 3, i * 2 + 5)).collect();
    let ticks = vec![
        BTreeMap::from([("edge".to_string(), pairs(&tick1))]),
        BTreeMap::from([("edge".to_string(), pairs(&tick2))]),
    ];
    assert_all_modes_agree("transitive_closure", &text, &ticks);
}

#[test]
fn triangle_digests_are_engine_independent() {
    let text = example("triangle.blz");
    // A clustered random-ish graph with actual triangles.
    let edges: Vec<(i64, i64)> = (0..120)
        .map(|i| (i % 20, (i * 7 + 3) % 20))
        .chain([(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)])
        .collect();
    let ticks = vec![BTreeMap::from([("edge".to_string(), pairs(&edges))])];
    assert_all_modes_agree("triangle", &text, &ticks);
}

#[test]
fn ad_report_digests_are_engine_independent() {
    let text = example("ad_report.blz");
    let clicks: Vec<(i64, i64)> = (0..60).map(|i| (i % 12, i % 5)).collect();
    let ticks = vec![
        BTreeMap::from([
            ("click".to_string(), pairs(&clicks)),
            ("request".to_string(), singles(&[1, 3, 5])),
        ]),
        BTreeMap::from([("request".to_string(), singles(&[2, 4, 11]))]),
    ];
    assert_all_modes_agree("ad_report", &text, &ticks);
}

#[test]
fn stratified_negation_digests_are_engine_independent() {
    // Negation + aggregation above a recursive stratum — the hardest mix:
    // the optimized engines must still evaluate nonmonotonic rules exactly
    // once per stratum over complete lower strata.
    let text = r#"
module Strat {
  input edge(src, dst)
  input probe(src, dst)
  output unreached(src, dst)
  output fanout(src, n)
  table e(src, dst)
  scratch p(src, dst)
  e <= edge
  p <= e
  p <= (p * e) on (p.dst = e.src) -> (p.src, e.dst)
  unreached <= probe not in p on (probe.src = p.src, probe.dst = p.dst)
  fanout <= p group by (p.src) agg count(*) as n having n < 50
}
"#;
    let edges: Vec<(i64, i64)> = (0..25).map(|i| (i, i + 1)).collect();
    let probes: Vec<(i64, i64)> = vec![(0, 10), (10, 0), (3, 26), (24, 25)];
    let ticks = vec![BTreeMap::from([
        ("edge".to_string(), pairs(&edges)),
        ("probe".to_string(), pairs(&probes)),
    ])];
    assert_all_modes_agree("stratified_negation", text, &ticks);
}

#[test]
fn semi_naive_counters_beat_naive_on_recursion() {
    let text = example("transitive_closure.blz");
    let edges: Vec<(i64, i64)> = (0..60).map(|i| (i, i + 1)).collect();
    let inputs = BTreeMap::from([("edge".to_string(), pairs(&edges))]);

    let mut naive =
        ModuleInstance::with_mode(parse_module(&text).unwrap(), EvalMode::Naive).unwrap();
    naive.tick(inputs.clone()).unwrap();
    let mut semi =
        ModuleInstance::with_mode(parse_module(&text).unwrap(), EvalMode::SemiNaive).unwrap();
    semi.tick(inputs).unwrap();

    let (n, s) = (naive.last_tick_stats(), semi.last_tick_stats());
    assert!(
        s.derivations * 10 < n.derivations,
        "semi-naive should derive >10x fewer tuples: naive {} vs semi {}",
        n.derivations,
        s.derivations
    );
    assert!(
        s.join_probes * 100 < n.join_probes,
        "hash joins should probe >100x fewer pairs: naive {} vs semi {}",
        n.join_probes,
        s.join_probes
    );
}
