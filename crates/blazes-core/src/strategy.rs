//! Coordination synthesis — the paper's Section V-B.
//!
//! Blazes repairs dataflows that are not confluent by constraining message
//! delivery:
//!
//! * **Sealing** (cheap, local): when an input stream's seal key is
//!   compatible with a non-confluent component's gate, the consumer only
//!   needs to delay each partition until its seal (plus, with multiple
//!   producers per partition, a unanimous-vote round). No global service is
//!   involved.
//! * **Ordering** (expensive, global): otherwise, deliver the component's
//!   inputs in a total order decided by an ordering service (Zookeeper in
//!   the paper; the simulated sequencer of `blazes-coord` here).
//!
//! [`CoordinationSpec::derive`] runs the synthesis to a fixpoint. Each
//! round, `synthesize` adds what one [`AnalysisOutcome`] calls for to the
//! plan — a seal [`CoordDirective`] for every compatible sealed input the
//! analysis recognized, an order for every component whose reconciliation
//! still escalated an anomaly — and `apply_plan` rewrites the graph as if
//! the plan were deployed. [`residual_labels`] verifies a plan on that
//! rewritten graph.

use crate::analysis::{AnalysisOutcome, Analyzer};
use crate::annotation::ComponentAnnotation;
use crate::error::Result;
use crate::graph::{ComponentId, DataflowGraph, Endpoint};
use crate::inference::Rule;
use crate::label::Label;
use crate::placement::{CoordDirective, CoordinationSpec};
use std::collections::{BTreeMap, BTreeSet};

/// A plan under construction: one directive per component, by name.
pub(crate) type Plan = BTreeMap<String, CoordDirective>;

/// Add `directive` to `plan`, keeping one directive per component: an order
/// subsumes a seal (the total order already serializes the sealed input),
/// and of two seals the smaller is kept. Returns whether `plan` changed.
fn add(plan: &mut Plan, directive: CoordDirective) -> bool {
    let changes = match (plan.get(directive.component()), &directive) {
        (None, _) | (Some(CoordDirective::Seal { .. }), CoordDirective::Order { .. }) => true,
        (Some(old @ CoordDirective::Seal { .. }), CoordDirective::Seal { .. }) => directive < *old,
        (Some(CoordDirective::Order { .. }), _) => false,
    };
    if changes {
        plan.insert(directive.component().to_string(), directive);
    }
    changes
}

/// Add the coordination `outcome` calls for on `graph` to `plan`;
/// `dynamic_ordering` selects the ordering flavor where sealing is
/// unavailable. Returns whether `plan` changed.
pub(crate) fn synthesize(
    graph: &DataflowGraph,
    outcome: &AnalysisOutcome,
    dynamic_ordering: bool,
    plan: &mut Plan,
) -> bool {
    // Seal protocols: every compatible seal consumption recognized by
    // inference, plus every seal that protected an NDRead. The seals that
    // protected reads arrived on sibling paths into the same output
    // interface; the consumer must still run the seal protocol on those
    // inputs (delay reads until the referenced partition is sealed). The
    // *input* label carries the seal even when the path's projection drops
    // the key from its output.
    let derivations = outcome.derivations();
    let consumed = derivations.iter().filter(|d| d.rule == Rule::SealConsume);
    let protecting = (outcome.reports().iter())
        .filter(|r| !r.reconciliation.protected.is_empty())
        .flat_map(|r| derivations.iter().filter(move |d| d.to == r.iface));
    let seals = consumed.chain(protecting).filter_map(|d| match &d.input {
        Label::Seal(key) => Some(CoordDirective::Seal {
            component: graph.component(d.from.component).name.clone(),
            input: d.from.iface.clone(),
            key: key.clone(),
        }),
        _ => None,
    });

    // Ordering: any output interface whose reconciliation escalated an
    // anomaly means seals were absent or incompatible for some path.
    let orders = (outcome.reports().iter())
        .filter(|r| !r.reconciliation.added.is_empty())
        .map(|r| {
            let c = graph.component(r.iface.component);
            CoordDirective::Order {
                component: c.name.clone(),
                inputs: c
                    .input_interfaces()
                    .into_iter()
                    .map(str::to_string)
                    .collect(),
                dynamic: dynamic_ordering,
            }
        });

    let mut changed = false;
    for directive in seals.chain(orders) {
        changed |= add(plan, directive);
    }
    changed
}

/// Rewrite `graph` as if `plan` were deployed:
///
/// * ordered components become confluent (their inputs now arrive in an
///   agreed total order, so order-sensitivity is moot);
/// * sealed inputs stay as they are (the analysis already recognizes
///   compatible seals).
///
/// Fails if a directive names no component of `graph`.
pub(crate) fn apply_plan<'a>(
    graph: &DataflowGraph,
    plan: impl IntoIterator<Item = &'a CoordDirective>,
) -> Result<DataflowGraph> {
    let mut g = graph.clone();
    for directive in plan {
        if let CoordDirective::Order { component, .. } = directive {
            let id = g.component_by_name(component)?;
            let mut paths = g.component(id).paths.clone();
            for p in &mut paths {
                match p.annotation {
                    ComponentAnnotation::OR(_) => p.annotation = ComponentAnnotation::CR,
                    ComponentAnnotation::OW(_) => p.annotation = ComponentAnnotation::CW,
                    ComponentAnnotation::CR | ComponentAnnotation::CW => {}
                }
            }
            g.replace_component_paths(id, paths);
        }
    }
    Ok(g)
}

/// Compute the sink labels of `graph` after deploying `spec`.
///
/// Dynamic ordering still admits cross-run nondeterminism, so sinks
/// downstream of a dynamically ordered component are floored at `Run`.
/// Fails if a directive names no component of `graph`.
pub fn residual_labels(
    graph: &DataflowGraph,
    spec: &CoordinationSpec,
) -> Result<Vec<(String, Label)>> {
    let transformed = apply_plan(graph, &spec.directives)?;
    let outcome = Analyzer::new(&transformed).run()?;

    // Sinks reachable from dynamically ordered components get the Run floor.
    let dynamic_roots = (spec.directives.iter())
        .filter_map(|d| match d {
            CoordDirective::Order {
                component,
                dynamic: true,
                ..
            } => Some(transformed.component_by_name(component)),
            _ => None,
        })
        .collect::<Result<Vec<ComponentId>>>()?;
    let tainted_sinks = reachable_sinks(&transformed, &dynamic_roots);

    let mut out = Vec::new();
    for (i, sink) in transformed.sinks().iter().enumerate() {
        let sid = crate::graph::SinkId(i);
        let mut label = outcome.sink_label(sid).cloned().unwrap_or(Label::Async);
        if tainted_sinks.contains(&sid) {
            label = label.join(Label::Run);
        }
        out.push((sink.name.clone(), label));
    }
    Ok(out)
}

fn reachable_sinks(g: &DataflowGraph, roots: &[ComponentId]) -> BTreeSet<crate::graph::SinkId> {
    let mut seen: BTreeSet<ComponentId> = roots.iter().copied().collect();
    let mut frontier: Vec<ComponentId> = roots.to_vec();
    let mut sinks = BTreeSet::new();
    while let Some(c) = frontier.pop() {
        for stream in g.streams() {
            if let Endpoint::Component(from, _) = &stream.from {
                if *from != c {
                    continue;
                }
                match &stream.to {
                    Endpoint::Component(to, _) => {
                        if seen.insert(*to) {
                            frontier.push(*to);
                        }
                    }
                    Endpoint::Sink(s) => {
                        sinks.insert(*s);
                    }
                    Endpoint::Source(_) => {}
                }
            }
        }
    }
    sinks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::ComponentAnnotation as CA;
    use crate::keys::KeySet;

    fn wordcount(sealed: bool) -> DataflowGraph {
        let mut g = DataflowGraph::new("wordcount");
        let tweets = g.add_source("tweets", &["word", "batch"]);
        if sealed {
            g.seal_source(tweets, ["batch"]);
        }
        let splitter = g.add_component("Splitter");
        g.add_path(splitter, "tweets", "words", CA::cr());
        let count = g.add_component("Count");
        g.add_path(count, "words", "counts", CA::ow(["word", "batch"]));
        let commit = g.add_component("Commit");
        g.add_path(commit, "counts", "db", CA::cw());
        let sink = g.add_sink("store");
        g.connect_source(tweets, splitter, "tweets");
        g.connect(splitter, "words", count, "words");
        g.connect(count, "counts", commit, "counts");
        g.connect_sink(commit, "db", sink);
        g
    }

    #[test]
    fn unsealed_wordcount_needs_ordering() {
        let spec = CoordinationSpec::derive(&wordcount(false), false).unwrap();
        assert_eq!(
            spec.directives,
            [CoordDirective::Order {
                component: "Count".to_string(),
                inputs: vec!["words".to_string()],
                dynamic: false,
            }]
        );
    }

    #[test]
    fn sealed_wordcount_needs_only_seal_protocol() {
        let spec = CoordinationSpec::derive(&wordcount(true), false).unwrap();
        assert_eq!(
            spec.directives,
            [CoordDirective::Seal {
                component: "Count".to_string(),
                input: "words".to_string(),
                key: KeySet::from_attrs(["batch"]),
            }]
        );
    }

    #[test]
    fn ordering_plan_restores_consistency() {
        let g = wordcount(false);
        // Static ordering (Storm transactional topologies): Async residual.
        let spec = CoordinationSpec::derive(&g, false).unwrap();
        let residual = residual_labels(&g, &spec).unwrap();
        assert_eq!(residual, vec![("store".to_string(), Label::Async)]);
    }

    #[test]
    fn dynamic_ordering_leaves_run_floor() {
        let g = wordcount(false);
        let spec = CoordinationSpec::derive(&g, true).unwrap();
        let residual = residual_labels(&g, &spec).unwrap();
        assert_eq!(residual, vec![("store".to_string(), Label::Run)]);
    }

    #[test]
    fn sealed_plan_residual_is_async() {
        let g = wordcount(true);
        let spec = CoordinationSpec::derive(&g, true).unwrap();
        let residual = residual_labels(&g, &spec).unwrap();
        assert_eq!(residual, vec![("store".to_string(), Label::Async)]);
    }

    #[test]
    fn confluent_dataflow_needs_nothing() {
        let mut g = DataflowGraph::new("confluent");
        let s = g.add_source("s", &["a"]);
        let c = g.add_component("C");
        g.add_path(c, "in", "out", CA::cw());
        let k = g.add_sink("k");
        g.connect_source(s, c, "in");
        g.connect_sink(c, "out", k);
        assert!(CoordinationSpec::derive(&g, true).unwrap().is_empty());
    }

    #[test]
    fn apply_plan_converts_annotations() {
        let g = wordcount(false);
        let spec = CoordinationSpec::derive(&g, false).unwrap();
        let t = apply_plan(&g, &spec.directives).unwrap();
        let count = t.component_by_name("Count").unwrap();
        assert!(t
            .component(count)
            .paths
            .iter()
            .all(|p| p.annotation == CA::cw()));
    }

    #[test]
    fn a_directive_naming_no_component_is_an_error() {
        let spec = CoordinationSpec {
            directives: vec![CoordDirective::Order {
                component: "Nowhere".to_string(),
                inputs: vec!["in".to_string()],
                dynamic: true,
            }],
        };
        assert!(residual_labels(&wordcount(false), &spec).is_err());
    }

    /// Round one seals X's `in1` while the replicated, unordered U still
    /// masks X's unsealed `in2`; once U is ordered, round two upgrades X's
    /// seal to an order, leaving the plan's length as it was. Only a third
    /// round, on the graph with X ordered, finds that Y downstream needs an
    /// order too, so the fixpoint must take the upgrade as progress.
    #[test]
    fn a_seal_upgraded_to_an_order_is_progress() {
        let mut g = DataflowGraph::new("upgrade");
        let sealed = g.add_source("sealed", &["a", "b"]);
        g.seal_source(sealed, ["a"]);
        let unsealed = g.add_source("unsealed", &["a", "b"]);
        let u = g.add_component("U");
        g.set_rep(u, true);
        g.add_path(u, "in", "out", CA::ow_star());
        let x = g.add_component("X");
        g.set_rep(x, true);
        g.add_path(x, "in1", "out", CA::ow(["a"]));
        g.add_path(x, "in2", "out", CA::ow(["b"]));
        let y = g.add_component("Y");
        g.add_path(y, "in", "out", CA::ow_star());
        let k = g.add_sink("k");
        g.connect_source(sealed, x, "in1");
        g.connect_source(unsealed, u, "in");
        g.connect(u, "out", x, "in2");
        g.connect(x, "out", y, "in");
        g.connect_sink(y, "out", k);

        let order = |component: &str, inputs: &[&str]| CoordDirective::Order {
            component: component.to_string(),
            inputs: inputs.iter().map(|i| (*i).to_string()).collect(),
            dynamic: false,
        };
        let mut round_one = Plan::new();
        let outcome = Analyzer::new(&g).run().unwrap();
        assert!(synthesize(&g, &outcome, false, &mut round_one));
        let seal_x = CoordDirective::Seal {
            component: "X".to_string(),
            input: "in1".to_string(),
            key: KeySet::from_attrs(["a"]),
        };
        assert_eq!(
            round_one.into_values().collect::<Vec<_>>(),
            [order("U", &["in"]), seal_x]
        );
        let spec = CoordinationSpec::derive(&g, false).unwrap();
        assert_eq!(
            spec.directives,
            [
                order("U", &["in"]),
                order("X", &["in1", "in2"]),
                order("Y", &["in"])
            ]
        );
    }
}
