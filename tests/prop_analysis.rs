//! Property-based tests for the Blazes analysis: invariants that must hold
//! on *arbitrary* annotated dataflows, checked with proptest.

use blazes::core::analysis::Analyzer;
use blazes::core::annotation::{ComponentAnnotation, Gate};
use blazes::core::graph::DataflowGraph;
use blazes::core::label::Label;
use blazes::core::placement::{CoordDirective, CoordinationSpec};
use blazes::core::severity::Severity;
use blazes::core::strategy::residual_labels;
use proptest::prelude::*;

const ATTRS: [&str; 4] = ["a", "b", "c", "d"];

#[derive(Debug, Clone)]
struct RandomChain {
    annotations: Vec<ComponentAnnotation>,
    seal: Option<Vec<&'static str>>,
    rep_mask: u8,
}

fn arb_annotation() -> impl Strategy<Value = ComponentAnnotation> {
    prop_oneof![
        Just(ComponentAnnotation::cr()),
        Just(ComponentAnnotation::cw()),
        proptest::sample::subsequence(ATTRS.to_vec(), 1..=3).prop_map(ComponentAnnotation::or),
        proptest::sample::subsequence(ATTRS.to_vec(), 1..=3).prop_map(ComponentAnnotation::ow),
        Just(ComponentAnnotation::OR(Gate::Wildcard)),
        Just(ComponentAnnotation::ow_star()),
    ]
}

fn arb_chain() -> impl Strategy<Value = RandomChain> {
    (
        proptest::collection::vec(arb_annotation(), 1..6),
        proptest::option::of(proptest::sample::subsequence(ATTRS.to_vec(), 1..=2)),
        any::<u8>(),
    )
        .prop_map(|(annotations, seal, rep_mask)| RandomChain {
            annotations,
            seal,
            rep_mask,
        })
}

/// Build a linear dataflow from a chain description.
fn build(chain: &RandomChain, with_seal: bool) -> DataflowGraph {
    let mut g = DataflowGraph::new("prop-chain");
    let src = g.add_source("src", &ATTRS);
    if with_seal {
        if let Some(seal) = &chain.seal {
            g.seal_source(src, seal.iter().copied());
        }
    }
    let mut prev = None;
    for (i, ann) in chain.annotations.iter().enumerate() {
        let c = g.add_component(format!("C{i}"));
        g.set_rep(c, chain.rep_mask & (1 << (i % 8)) != 0);
        g.add_path(c, "in", "out", ann.clone());
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
    g.connect_sink(prev.expect("non-empty"), "out", sink);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The analysis never fails on well-formed graphs and always produces a
    /// publishable (non-internal) sink label.
    #[test]
    fn analysis_total_and_labels_publishable(chain in arb_chain()) {
        let g = build(&chain, true);
        let out = Analyzer::new(&g).run().expect("analysis must succeed");
        let sink = g.sink_by_name("sink").unwrap();
        let label = out.sink_label(sink).expect("sink labeled");
        prop_assert!(!label.is_internal(), "published label must not be internal: {label}");
    }

    /// Determinism: analyzing the same graph twice gives identical labels.
    #[test]
    fn analysis_is_deterministic(chain in arb_chain()) {
        let g = build(&chain, true);
        let a = Analyzer::new(&g).run().unwrap();
        let b = Analyzer::new(&g).run().unwrap();
        let sink = g.sink_by_name("sink").unwrap();
        prop_assert_eq!(a.sink_label(sink), b.sink_label(sink));
    }

    /// Monotonicity of seals: adding a seal annotation never makes the
    /// verdict *worse* (sealing can only rule out anomalies).
    #[test]
    fn seals_never_hurt(chain in arb_chain()) {
        let sealed = build(&chain, true);
        let unsealed = build(&chain, false);
        let sink_s = sealed.sink_by_name("sink").unwrap();
        let sink_u = unsealed.sink_by_name("sink").unwrap();
        let ls = Analyzer::new(&sealed).run().unwrap().sink_label(sink_s).cloned().unwrap();
        let lu = Analyzer::new(&unsealed).run().unwrap().sink_label(sink_u).cloned().unwrap();
        prop_assert!(
            ls.severity() <= lu.severity(),
            "seal worsened the label: sealed {ls} vs unsealed {lu}"
        );
    }

    /// Confluent-only dataflows never require coordination (CALM).
    #[test]
    fn confluent_chains_are_calm(n in 1usize..6, writes in any::<u8>()) {
        let chain = RandomChain {
            annotations: (0..n)
                .map(|i| if writes & (1 << (i % 8)) != 0 {
                    ComponentAnnotation::cw()
                } else {
                    ComponentAnnotation::cr()
                })
                .collect(),
            seal: None,
            rep_mask: writes,
        };
        let g = build(&chain, false);
        let out = Analyzer::new(&g).run().unwrap();
        prop_assert!(!out.program_label().is_anomalous());
        prop_assert!(out.program_label().severity() <= Severity::ASYNC);
    }

    /// Plan soundness: after deploying the synthesized plan (with *static*
    /// ordering), no sink remains anomalous.
    #[test]
    fn plans_restore_consistency(chain in arb_chain()) {
        let g = build(&chain, true);
        let plan = CoordinationSpec::derive(&g, false).unwrap();
        let residual = residual_labels(&g, &plan).unwrap();
        for (name, label) in residual {
            prop_assert!(!label.is_anomalous(), "sink {name} still {label} after plan");
        }
    }

    /// Plan soundness under *dynamic* ordering: the per-run order leaves at
    /// most cross-run nondeterminism, so no sink is above `Run`.
    #[test]
    fn dynamic_plans_leave_at_most_run(chain in arb_chain()) {
        let g = build(&chain, true);
        let plan = CoordinationSpec::derive(&g, true).unwrap();
        let residual = residual_labels(&g, &plan).unwrap();
        for (name, label) in residual {
            prop_assert!(
                label.severity() <= Severity::RUN,
                "sink {name} still {label} after a dynamic plan"
            );
        }
    }

    /// Plan necessity: a graph whose analysis is clean gets an empty plan.
    #[test]
    fn clean_graphs_get_empty_plans(chain in arb_chain()) {
        let g = build(&chain, true);
        let out = Analyzer::new(&g).run().unwrap();
        let plan = CoordinationSpec::derive(&g, false).unwrap();
        if !out.program_label().is_anomalous() {
            prop_assert!(
                !plan.directives.iter().any(|d| matches!(d, CoordDirective::Order { .. })),
                "consistent graph must not be ordered"
            );
        }
    }

    /// Replication monotonicity: marking components replicated never
    /// *lowers* severity.
    #[test]
    fn replication_never_helps(chain in arb_chain()) {
        let base = build(&RandomChain { rep_mask: 0, ..chain.clone() }, true);
        let replicated = build(&RandomChain { rep_mask: 0xFF, ..chain }, true);
        let lb = Analyzer::new(&base).run().unwrap().program_label();
        let lr = Analyzer::new(&replicated).run().unwrap().program_label();
        prop_assert!(lb.severity() <= lr.severity(), "rep lowered severity: {lb} vs {lr}");
    }
}

// ---------------------------------------------------------------------
// Bloom engine properties: the optimized evaluation modes must be
// observationally identical to the naive oracle on arbitrary stratifiable
// modules.
// ---------------------------------------------------------------------

mod bloom_engine {
    use blazes_bloom::interp::{EvalMode, ModuleInstance};
    use blazes_bloom::parse_module;
    use blazes_dataflow::value::{Tuple, Value};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// A random module plus the inputs fed on each tick.
    #[derive(Debug, Clone)]
    pub struct RandomModule {
        pub text: String,
        pub ticks: Vec<Vec<(i64, i64)>>,
    }

    /// Render a random layered module. Layer `i` derives scratch `c{i}`
    /// from collections of lower (or, for monotonic bodies, equal) layers,
    /// so the module is stratifiable **by construction**: nonmonotonic
    /// bodies (group-by, antijoin) only ever read strictly lower layers.
    /// Group values are clamped by a `having n < 3` bound so the value
    /// domain stays small under recursion.
    ///
    /// Three tables carry state across ticks: `t` (fed by the input and,
    /// deferred, by the last layer), `v` (accumulates layer `side.0`) and
    /// `u` (their join — a table derived from two tables, so both of its
    /// indexes persist). With `side.1` set, deletion rules drawn from that
    /// layer remove tuples from all three, so heads lose tuples their
    /// sources still derive and running aggregates over `t` count down.
    fn module_text(layers: &[(u8, u8, u8)], side: (u8, Option<u8>)) -> String {
        let mut s = String::from(
            "module P {\n  input inp(x, y)\n  output out(x, y)\n  output uview(x, y)\n  \
             table t(x, y)\n  table v(x, y)\n  table u(x, y)\n",
        );
        for i in 0..layers.len() {
            let _ = writeln!(s, "  scratch c{i}(x, y)");
        }
        s.push_str("  t <= inp\n");
        for (i, &(body, src_a, src_b)) in layers.iter().enumerate() {
            // Monotonic bodies may read the layer itself (recursion);
            // nonmonotonic bodies only strictly lower layers (or `t`).
            let mono = |b: u8| match (b as usize) % (i + 2) {
                0 => "t".to_string(),
                k => format!("c{}", k - 1),
            };
            let lower = |b: u8| match (b as usize) % (i + 1) {
                0 => "t".to_string(),
                k => format!("c{}", k - 1),
            };
            let head = format!("c{i}");
            match body % 6 {
                0 => {
                    let _ = writeln!(s, "  {head} <= {}", mono(src_a));
                }
                1 => {
                    let _ = writeln!(s, "  {head} <= {} where {0}.x > 1", mono(src_a));
                }
                2 | 3 => {
                    let (l, r) = (mono(src_a), mono(src_b));
                    let _ = writeln!(
                        s,
                        "  {head} <= ({l} * {r}) on ({l}.y = {r}.x) -> ({l}.x, {r}.y)"
                    );
                }
                4 => {
                    let (src, neg) = (lower(src_a), lower(src_b));
                    let _ = writeln!(s, "  {head} <= {src} not in {neg} on ({src}.x = {neg}.x)");
                }
                _ => {
                    let src = lower(src_a);
                    let _ = writeln!(
                        s,
                        "  {head} <= {src} group by ({src}.x) agg count(*) as n having n < 3"
                    );
                }
            }
        }
        let last = layers.len() - 1;
        let _ = writeln!(s, "  out <= c{last}");
        // Feed one derived layer back into the table next tick, so the
        // ticks exercise cross-timestep state too.
        let _ = writeln!(s, "  t <+ c{last}");
        let _ = writeln!(s, "  v <= c{}", side.0 as usize % layers.len());
        s.push_str("  u <= (t * v) on (t.y = v.x) -> (t.x, v.y)\n  uview <= u\n");
        if let Some(d) = side.1 {
            let d = d as usize % layers.len();
            let _ = writeln!(s, "  t <- c{d} where c{d}.x > 2");
            let _ = writeln!(s, "  v <- c{d} where c{d}.y < 3");
            let _ = writeln!(s, "  u <- c{d}");
        }
        s.push_str("}\n");
        s
    }

    fn arb_module() -> impl Strategy<Value = RandomModule> {
        (
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
            (any::<u8>(), proptest::option::of(any::<u8>())),
            proptest::collection::vec(proptest::collection::vec((0i64..6, 0i64..6), 0..6), 6..10),
        )
            .prop_map(|(layers, side, ticks)| RandomModule {
                text: module_text(&layers, side),
                ticks,
            })
    }

    type Digest = (Vec<BTreeMap<String, Vec<Tuple>>>, [Vec<Tuple>; 3]);

    fn run(rm: &RandomModule, mode: EvalMode) -> Digest {
        let m = parse_module(&rm.text).expect("generated module must parse");
        let mut inst = ModuleInstance::with_mode(m, mode).expect("stratifiable by construction");
        let mut outs = Vec::new();
        for tick in &rm.ticks {
            let tuples: Vec<Tuple> = tick
                .iter()
                .map(|&(x, y)| Tuple(vec![Value::Int(x), Value::Int(y)]))
                .collect();
            let mut inputs = BTreeMap::new();
            inputs.insert("inp".to_string(), tuples);
            outs.push(inst.tick(inputs).expect("tick must succeed").outputs);
        }
        (outs, ["t", "v", "u"].map(|name| inst.table(name)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Semi-naive evaluation is oracle-equivalent to naive
        /// evaluation: bit-identical tick outputs and final table
        /// state on arbitrary stratifiable modules.
        #[test]
        fn optimized_modes_match_naive_oracle(rm in arb_module()) {
            let (naive_outs, naive_tables) = run(&rm, EvalMode::Naive);
            let (outs, tables) = run(&rm, EvalMode::SemiNaive);
            prop_assert_eq!(&naive_outs, &outs, "outputs diverged\n{}", rm.text);
            prop_assert_eq!(&naive_tables, &tables, "tables diverged\n{}", rm.text);
        }

        /// Semi-naive evaluation never performs more derivations than the
        /// naive oracle on the same module and inputs.
        #[test]
        fn semi_naive_never_rederives_more(rm in arb_module()) {
            let m = parse_module(&rm.text).expect("generated module must parse");
            let mut naive = ModuleInstance::with_mode(m.clone(), EvalMode::Naive).unwrap();
            let mut semi = ModuleInstance::with_mode(m, EvalMode::SemiNaive).unwrap();
            for tick in &rm.ticks {
                let tuples: Vec<Tuple> = tick
                    .iter()
                    .map(|&(x, y)| Tuple(vec![Value::Int(x), Value::Int(y)]))
                    .collect();
                let mut inputs = BTreeMap::new();
                inputs.insert("inp".to_string(), tuples);
                naive.tick(inputs.clone()).unwrap();
                semi.tick(inputs).unwrap();
            }
            prop_assert!(
                semi.cumulative_stats().derivations <= naive.cumulative_stats().derivations,
                "semi-naive derived more than naive on\n{}",
                rm.text
            );
        }
    }
}

/// Severity lattice laws for the full label set (exhaustive, not random).
#[test]
fn label_join_is_a_semilattice() {
    let labels = [
        Label::Taint,
        Label::nd_read(["a"]),
        Label::seal(["a"]),
        Label::Async,
        Label::Run,
        Label::Inst,
        Label::Diverge,
    ];
    for a in &labels {
        assert_eq!(
            a.clone().join(a.clone()).severity(),
            a.severity(),
            "idempotent"
        );
        for b in &labels {
            let ab = a.clone().join(b.clone());
            let ba = b.clone().join(a.clone());
            assert_eq!(ab.severity(), ba.severity(), "commutative severity");
            for c in &labels {
                let l = a.clone().join(b.clone()).join(c.clone());
                let r = a.clone().join(b.clone().join(c.clone()));
                assert_eq!(l.severity(), r.severity(), "associative severity");
            }
        }
    }
}
