//! The strategy→placement API: turning a [`CoordinationPlan`] into a
//! runtime-facing [`CoordinationSpec`].
//!
//! [`crate::strategy`] reasons in graph ids ([`ComponentId`](crate::graph::ComponentId), derivation
//! endpoints); execution engines reason in *names* (topology nodes,
//! instance labels). A [`CoordinationSpec`] is the bridge: one directive
//! per coordinated component, keyed by component name, stating which
//! mechanism the analysis selected and where it must sit. It is pure data
//! — `blazes-autocoord` (and the Storm topology builder) consume it to
//! rewrite a running dataflow, injecting seal gates or an ordering service
//! exactly where the analysis demands and nothing anywhere else.

use crate::error::Result;
use crate::graph::DataflowGraph;
use crate::keys::KeySet;
use crate::strategy::{plan_for, CoordinationPlan, Strategy};
use std::collections::BTreeMap;

/// One coordination requirement, resolved to component/interface names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoordDirective {
    /// Run the seal protocol on `component`'s `input`: buffer each
    /// partition keyed by `key`, release on seal plus a unanimous producer
    /// vote (paper Section V-B1).
    Seal {
        /// Consuming component name.
        component: String,
        /// Sealed input interface name.
        input: String,
        /// The seal key.
        key: KeySet,
    },
    /// Deliver all of `component`'s inputs in one total order decided by an
    /// ordering service (paper Section V-B2).
    Order {
        /// Component name whose inputs must be ordered.
        component: String,
        /// The input interfaces covered by the order.
        inputs: Vec<String>,
        /// `true` for a dynamic (per-run) ordering service, `false` for a
        /// static sequence that also removes cross-run nondeterminism.
        dynamic: bool,
    },
}

impl CoordDirective {
    /// The coordinated component's name.
    #[must_use]
    pub fn component(&self) -> &str {
        match self {
            CoordDirective::Seal { component, .. } | CoordDirective::Order { component, .. } => {
                component
            }
        }
    }
}

/// A complete, name-resolved coordination spec for one dataflow: what the
/// injection pass must add, per component. An empty spec certifies the
/// dataflow confluent — the pass must leave it untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordinationSpec {
    /// One directive per coordinated component, sorted by component name.
    pub directives: Vec<CoordDirective>,
}

impl CoordinationSpec {
    /// Resolve a [`CoordinationPlan`] against the graph it was synthesized
    /// for. When a component draws both an ordering and seal strategies,
    /// ordering subsumes sealing (the total order already serializes the
    /// sealed input), so only the `Order` directive is kept.
    #[must_use]
    fn from_plan(graph: &DataflowGraph, plan: &CoordinationPlan) -> Self {
        let mut by_component: BTreeMap<String, CoordDirective> = BTreeMap::new();
        // Seals first so a later Order directive overwrites them.
        for strat in &plan.strategies {
            if let Strategy::SealProtocol {
                component,
                input,
                key,
            } = strat
            {
                let name = graph.component(*component).name.clone();
                by_component
                    .entry(name.clone())
                    .or_insert(CoordDirective::Seal {
                        component: name,
                        input: input.clone(),
                        key: key.clone(),
                    });
            }
        }
        for strat in &plan.strategies {
            if let Strategy::Ordering {
                component,
                inputs,
                dynamic,
            } = strat
            {
                let name = graph.component(*component).name.clone();
                by_component.insert(
                    name.clone(),
                    CoordDirective::Order {
                        component: name,
                        inputs: inputs.clone(),
                        dynamic: *dynamic,
                    },
                );
            }
        }
        CoordinationSpec {
            directives: by_component.into_values().collect(),
        }
    }

    /// Analyze `graph`, synthesize the minimal plan and resolve it —
    /// the full annotate→analyze→inject front half in one call.
    pub fn derive(graph: &DataflowGraph, dynamic_ordering: bool) -> Result<Self> {
        let plan = plan_for(graph, dynamic_ordering)?;
        Ok(CoordinationSpec::from_plan(graph, &plan))
    }

    /// No coordination required anywhere?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// Number of directives.
    #[must_use]
    pub fn len(&self) -> usize {
        self.directives.len()
    }

    /// The directive applying to `component`, if any.
    #[must_use]
    pub fn directive_for(&self, component: &str) -> Option<&CoordDirective> {
        self.directives.iter().find(|d| d.component() == component)
    }

    /// Human-readable rendering for logs and reports.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        if self.directives.is_empty() {
            return "confluent: no coordination to inject\n".to_string();
        }
        let mut s = String::new();
        for d in &self.directives {
            match d {
                CoordDirective::Seal {
                    component,
                    input,
                    key,
                } => {
                    let _ = writeln!(s, "inject seal-gate at {component}.{input} keyed {{{key}}}");
                }
                CoordDirective::Order {
                    component,
                    inputs,
                    dynamic,
                } => {
                    let _ = writeln!(
                        s,
                        "inject {} ordering service before {component} on [{}]",
                        if *dynamic { "dynamic" } else { "static" },
                        inputs.join(", ")
                    );
                }
            }
        }
        s
    }
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
    fn sealed_wordcount_resolves_to_seal_directive() {
        let g = wordcount(true);
        let spec = CoordinationSpec::derive(&g, false).unwrap();
        assert_eq!(spec.len(), 1);
        match spec.directive_for("Count") {
            Some(CoordDirective::Seal { input, key, .. }) => {
                assert_eq!(input, "words");
                assert_eq!(key, &KeySet::from_attrs(["batch"]));
            }
            other => panic!("expected seal directive, got {other:?}"),
        }
    }

    #[test]
    fn unsealed_wordcount_resolves_to_order_directive() {
        let g = wordcount(false);
        let spec = CoordinationSpec::derive(&g, false).unwrap();
        assert_eq!(spec.len(), 1);
        match spec.directive_for("Count") {
            Some(CoordDirective::Order {
                inputs, dynamic, ..
            }) => {
                assert_eq!(inputs, &["words".to_string()]);
                assert!(!dynamic);
            }
            other => panic!("expected order directive, got {other:?}"),
        }
    }

    #[test]
    fn confluent_graph_resolves_empty() {
        let mut g = DataflowGraph::new("confluent");
        let s = g.add_source("s", &["a"]);
        let c = g.add_component("C");
        g.add_path(c, "in", "out", CA::cw());
        let k = g.add_sink("k");
        g.connect_source(s, c, "in");
        g.connect_sink(c, "out", k);
        let spec = CoordinationSpec::derive(&g, true).unwrap();
        assert!(spec.is_empty());
        assert!(spec.render().contains("confluent"));
    }

    #[test]
    fn ordering_subsumes_sealing_on_the_same_component() {
        let g = wordcount(true);
        let count = g.component_by_name("Count").unwrap();
        let plan = CoordinationPlan {
            strategies: vec![
                Strategy::SealProtocol {
                    component: count,
                    input: "words".to_string(),
                    key: KeySet::from_attrs(["batch"]),
                },
                Strategy::Ordering {
                    component: count,
                    inputs: vec!["words".to_string()],
                    dynamic: false,
                },
            ],
        };
        let spec = CoordinationSpec::from_plan(&g, &plan);
        assert_eq!(spec.len(), 1);
        assert!(matches!(
            spec.directive_for("Count"),
            Some(CoordDirective::Order { .. })
        ));
    }

    #[test]
    fn render_names_the_mechanisms() {
        let sealed = CoordinationSpec::derive(&wordcount(true), false).unwrap();
        assert!(sealed.render().contains("seal-gate at Count.words"));
        let ordered = CoordinationSpec::derive(&wordcount(false), false).unwrap();
        assert!(ordered.render().contains("static ordering service"));
    }
}
