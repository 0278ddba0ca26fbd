//! Coordination selection and synthesis — the paper's Section V-B.
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
//! `synthesize` inspects an [`AnalysisOutcome`] and produces a
//! [`CoordinationPlan`]: seal protocols for every compatible sealed input it
//! recognized, and ordering for every component whose reconciliation still
//! escalated an anomaly. `apply_plan` rewrites the graph as if the plan
//! were deployed so the *residual* label can be verified.

use crate::analysis::{AnalysisOutcome, Analyzer};
use crate::annotation::ComponentAnnotation;
use crate::error::Result;
use crate::graph::{ComponentId, DataflowGraph, Endpoint};
use crate::inference::Rule;
use crate::keys::KeySet;
use crate::label::Label;
use std::collections::BTreeSet;

/// One synthesized coordination mechanism.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Strategy {
    /// Delay processing of each partition of `input` until its seal is
    /// known: the consumer buffers per-partition input, collects the
    /// producers' seal punctuations (a unanimous vote when a partition has
    /// several producers) and only then releases the partition (paper
    /// Section V-B1).
    SealProtocol {
        /// The consuming component.
        component: ComponentId,
        /// The sealed input interface.
        input: String,
        /// The seal key.
        key: KeySet,
    },
    /// Deliver all listed inputs of `component` in a single total order
    /// decided by an ordering service (paper Section V-B2).
    Ordering {
        /// The component whose inputs must be ordered.
        component: ComponentId,
        /// The input interfaces to order (all of them: the order must cover
        /// every rendezvous).
        inputs: Vec<String>,
        /// `true` for a *dynamic* ordering service (Paxos/Zookeeper): the
        /// order is agreed per run, preventing `Inst`/`Diverge` but not
        /// `Run`. `false` for a *static* sequence (e.g. Storm transactional
        /// batch ids), which also prevents cross-run nondeterminism.
        dynamic: bool,
    },
}

/// A full coordination plan for a dataflow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordinationPlan {
    /// The synthesized strategies, deduplicated and sorted.
    pub strategies: Vec<Strategy>,
}

impl CoordinationPlan {
    /// Does the plan involve any global ordering?
    #[must_use]
    pub fn needs_ordering(&self) -> bool {
        self.strategies
            .iter()
            .any(|s| matches!(s, Strategy::Ordering { .. }))
    }

    /// Does the plan involve any seal protocol?
    #[must_use]
    pub fn needs_sealing(&self) -> bool {
        self.strategies
            .iter()
            .any(|s| matches!(s, Strategy::SealProtocol { .. }))
    }

    /// Render the plan as human-readable text.
    #[must_use]
    pub fn render(&self, graph: &DataflowGraph) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if self.strategies.is_empty() {
            let _ = writeln!(s, "no coordination required");
            return s;
        }
        for strat in &self.strategies {
            match strat {
                Strategy::SealProtocol {
                    component,
                    input,
                    key,
                } => {
                    let _ = writeln!(
                        s,
                        "seal-protocol at {}.{}: buffer partitions keyed {{{key}}}, release on seal + unanimous producer vote",
                        graph.component(*component).name,
                        input
                    );
                }
                Strategy::Ordering {
                    component,
                    inputs,
                    dynamic,
                } => {
                    let _ = writeln!(
                        s,
                        "{} ordering at {}: totally order delivery on [{}]",
                        if *dynamic { "dynamic" } else { "static" },
                        graph.component(*component).name,
                        inputs.join(", ")
                    );
                }
            }
        }
        s
    }
}

/// Synthesize a coordination plan from an analysis outcome.
///
/// `dynamic_ordering` selects the flavor of ordering service to synthesize
/// where sealing is unavailable (see [`Strategy::Ordering::dynamic`]).
#[must_use]
fn synthesize(
    graph: &DataflowGraph,
    outcome: &AnalysisOutcome,
    dynamic_ordering: bool,
) -> CoordinationPlan {
    let mut strategies: BTreeSet<Strategy> = BTreeSet::new();

    // Seal protocols: every compatible seal consumption recognized by
    // inference, plus every seal that protected an NDRead.
    for d in outcome.derivations() {
        if d.rule == Rule::SealConsume {
            if let Label::Seal(key) = &d.input {
                strategies.insert(Strategy::SealProtocol {
                    component: d.from.component,
                    input: d.from.iface.clone(),
                    key: key.clone(),
                });
            }
        }
    }
    for r in outcome.reports() {
        if r.reconciliation.protected.is_empty() {
            continue;
        }
        // The seals that protected reads arrived on sibling paths into the
        // same output interface; the consumer must still run the seal
        // protocol on those inputs (delay reads until the referenced
        // partition is sealed). The *input* label carries the seal even
        // when the path's projection drops the key from its output.
        for d in outcome.derivations() {
            if d.to == r.iface {
                if let Label::Seal(key) = &d.input {
                    strategies.insert(Strategy::SealProtocol {
                        component: d.from.component,
                        input: d.from.iface.clone(),
                        key: key.clone(),
                    });
                }
            }
        }
    }

    // Ordering: any output interface whose reconciliation escalated an
    // anomaly means seals were absent or incompatible for some path.
    for r in outcome.reports() {
        if r.reconciliation.added.is_empty() {
            continue;
        }
        let component = r.iface.component;
        let inputs: Vec<String> = graph
            .component(component)
            .input_interfaces()
            .into_iter()
            .map(str::to_string)
            .collect();
        strategies.insert(Strategy::Ordering {
            component,
            inputs,
            dynamic: dynamic_ordering,
        });
    }

    CoordinationPlan {
        strategies: strategies.into_iter().collect(),
    }
}

/// Analyze `graph` and synthesize a plan, iterating to a fixpoint.
///
/// A single pass can under-approximate: an already-`Diverge` input masks a
/// downstream component's own order-sensitivity (the Fig. 9 rules fire on
/// `Async`/`Run`/`Inst`, and `Diverge` merely propagates). We therefore
/// repair, re-analyze the repaired graph, and repeat until no new
/// strategies appear — bounded by the component count.
pub fn plan_for(graph: &DataflowGraph, dynamic_ordering: bool) -> Result<CoordinationPlan> {
    let mut strategies: BTreeSet<Strategy> = BTreeSet::new();
    let mut current = graph.clone();
    for _ in 0..=graph.components().len() {
        let outcome = Analyzer::new(&current).run()?;
        let increment = synthesize(&current, &outcome, dynamic_ordering);
        let before = strategies.len();
        strategies.extend(increment.strategies);
        if strategies.len() == before {
            break;
        }
        let plan = CoordinationPlan {
            strategies: strategies.iter().cloned().collect(),
        };
        current = apply_plan(graph, &plan);
    }
    Ok(CoordinationPlan {
        strategies: strategies.into_iter().collect(),
    })
}

/// Rewrite `graph` as if `plan` were deployed:
///
/// * ordered components become confluent (their inputs now arrive in an
///   agreed total order, so order-sensitivity is moot);
/// * sealed inputs stay as they are (the analysis already recognizes
///   compatible seals).
///
/// Returns the transformed graph. Use [`residual_labels`] to obtain the
/// post-plan sink labels (which accounts for the `Run` floor of *dynamic*
/// ordering).
#[must_use]
fn apply_plan(graph: &DataflowGraph, plan: &CoordinationPlan) -> DataflowGraph {
    let mut g = graph.clone();
    for strat in &plan.strategies {
        if let Strategy::Ordering { component, .. } = strat {
            let comp_name = graph.component(*component).name.clone();
            let id = g
                .component_by_name(&comp_name)
                .expect("component preserved by clone");
            // Convert order-sensitive annotations to their confluent
            // counterparts in place.
            let paths: Vec<_> = g.component(id).paths.clone();
            let mut rewritten = Vec::with_capacity(paths.len());
            for mut p in paths {
                p.annotation = match p.annotation {
                    ComponentAnnotation::OR(_) => ComponentAnnotation::CR,
                    ComponentAnnotation::OW(_) => ComponentAnnotation::CW,
                    other => other,
                };
                rewritten.push(p);
            }
            replace_paths(&mut g, id, rewritten);
        }
    }
    g
}

/// Compute the sink labels of `graph` after deploying `plan`.
///
/// Dynamic ordering still admits cross-run nondeterminism, so sinks
/// downstream of a dynamically ordered component are floored at `Run`.
pub fn residual_labels(
    graph: &DataflowGraph,
    plan: &CoordinationPlan,
) -> Result<Vec<(String, Label)>> {
    let transformed = apply_plan(graph, plan);
    let outcome = Analyzer::new(&transformed).run()?;

    // Sinks reachable from dynamically ordered components get the Run floor.
    let dynamic_roots: Vec<ComponentId> = plan
        .strategies
        .iter()
        .filter_map(|s| match s {
            Strategy::Ordering {
                component,
                dynamic: true,
                ..
            } => Some(*component),
            _ => None,
        })
        .collect();
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

fn replace_paths(g: &mut DataflowGraph, id: ComponentId, paths: Vec<crate::graph::PathSpec>) {
    // DataflowGraph has no direct path-replacement API (paths are append
    // only); rebuild the component's paths through a small local rebuild.
    // We rely on `Component` being reachable mutably via internal access.
    g.replace_component_paths(id, paths);
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
        let g = wordcount(false);
        let plan = plan_for(&g, false).unwrap();
        assert!(plan.needs_ordering());
        assert!(!plan.needs_sealing());
        let count = g.component_by_name("Count").unwrap();
        assert!(plan
            .strategies
            .iter()
            .any(|s| matches!(s, Strategy::Ordering { component, .. } if *component == count)));
    }

    #[test]
    fn sealed_wordcount_needs_only_seal_protocol() {
        let g = wordcount(true);
        let plan = plan_for(&g, false).unwrap();
        assert!(!plan.needs_ordering());
        assert!(plan.needs_sealing());
        let count = g.component_by_name("Count").unwrap();
        assert!(plan.strategies.iter().any(|s| matches!(
            s,
            Strategy::SealProtocol { component, input, key }
                if *component == count && input == "words" && key == &KeySet::from_attrs(["batch"])
        )));
    }

    #[test]
    fn ordering_plan_restores_consistency() {
        let g = wordcount(false);
        // Static ordering (Storm transactional topologies): Async residual.
        let plan = plan_for(&g, false).unwrap();
        let residual = residual_labels(&g, &plan).unwrap();
        assert_eq!(residual, vec![("store".to_string(), Label::Async)]);
    }

    #[test]
    fn dynamic_ordering_leaves_run_floor() {
        let g = wordcount(false);
        let plan = plan_for(&g, true).unwrap();
        let residual = residual_labels(&g, &plan).unwrap();
        assert_eq!(residual, vec![("store".to_string(), Label::Run)]);
    }

    #[test]
    fn sealed_plan_residual_is_async() {
        let g = wordcount(true);
        let plan = plan_for(&g, true).unwrap();
        let residual = residual_labels(&g, &plan).unwrap();
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
        let plan = plan_for(&g, true).unwrap();
        assert!(plan.strategies.is_empty());
        assert!(plan.render(&g).contains("no coordination required"));
    }

    #[test]
    fn plan_renders_human_readable() {
        let g = wordcount(true);
        let plan = plan_for(&g, false).unwrap();
        let text = plan.render(&g);
        assert!(text.contains("seal-protocol at Count.words"), "{text}");
        assert!(text.contains("{batch}"), "{text}");
    }

    #[test]
    fn apply_plan_converts_annotations() {
        let g = wordcount(false);
        let plan = plan_for(&g, false).unwrap();
        let t = apply_plan(&g, &plan);
        let count = t.component_by_name("Count").unwrap();
        assert!(t
            .component(count)
            .paths
            .iter()
            .all(|p| p.annotation == CA::cw()));
    }
}
