//! The end-to-end Blazes analysis (paper Section V-A).
//!
//! The [`Analyzer`] walks the condensed dataflow in topological order. For
//! every output interface of every node it:
//!
//! 1. runs the **inference** step ([`crate::inference::infer_path`]) once per
//!    (inbound stream label × component path), producing the `Labels` list;
//! 2. runs the **reconciliation** procedure
//!    ([`crate::reconcile::reconcile`]), which escalates `Taint` and
//!    unprotected `NDRead` labels to `Run`/`Inst`/`Diverge`;
//! 3. **merges** to a single output label (highest severity, internal labels
//!    stripped) and publishes it on all outgoing streams.
//!
//! The resulting [`AnalysisOutcome`] records the label of every stream,
//! interface and sink, along with the full derivation history used to render
//! the paper-style proof trees ([`crate::derivation`]).

use crate::error::{BlazesError, Result};
use crate::graph::{DataflowGraph, Endpoint, PathSpec, SinkId, StreamId};
use crate::inference::{infer_path, Rule};
use crate::label::Label;
use crate::paths::{condense, Condensation, IfaceNode, InterfaceRef};
use crate::reconcile::{reconcile, Derived, Reconciliation};
use std::collections::BTreeMap;

/// One inference-step record: an input label rewritten through a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathDerivation {
    /// Name of the (possibly collapsed) node.
    pub node: String,
    /// Consuming interface of the path.
    pub from: InterfaceRef,
    /// Producing interface of the path.
    pub to: InterfaceRef,
    /// The annotation on the path, rendered (e.g. `OW_{batch,word}`).
    pub annotation: String,
    /// Input stream label.
    pub input: Label,
    /// Derived label.
    pub derived: Label,
    /// Rule that fired.
    pub rule: Rule,
}

/// The reconciliation record for one output interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceReport {
    /// Node name.
    pub node: String,
    /// Whether the node is replicated.
    pub rep: bool,
    /// The output interface.
    pub iface: InterfaceRef,
    /// Full reconciliation detail.
    pub reconciliation: Reconciliation,
}

/// The result of analyzing a dataflow graph.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    graph_name: String,
    stream_labels: Vec<Label>,
    interface_labels: BTreeMap<InterfaceRef, Label>,
    sink_labels: BTreeMap<SinkId, Label>,
    derivations: Vec<PathDerivation>,
    reports: Vec<InterfaceReport>,
    warnings: Vec<String>,
}

impl AnalysisOutcome {
    /// The analyzed graph's name.
    #[must_use]
    pub fn graph_name(&self) -> &str {
        &self.graph_name
    }

    /// Label assigned to a stream.
    #[must_use]
    pub fn stream_label(&self, id: StreamId) -> &Label {
        &self.stream_labels[id.0]
    }

    /// Merged label of all streams arriving at a sink.
    #[must_use]
    pub fn sink_label(&self, sink: SinkId) -> Option<&Label> {
        self.sink_labels.get(&sink)
    }

    /// All sink labels.
    #[must_use]
    pub fn sink_labels(&self) -> &BTreeMap<SinkId, Label> {
        &self.sink_labels
    }

    /// Every inference step, in processing order.
    #[must_use]
    pub fn derivations(&self) -> &[PathDerivation] {
        &self.derivations
    }

    /// Every reconciliation, in processing order.
    #[must_use]
    pub fn reports(&self) -> &[InterfaceReport] {
        &self.reports
    }

    /// Warnings (e.g. unfed input interfaces).
    #[must_use]
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The most severe label among all sinks (the "program label").
    #[must_use]
    pub fn program_label(&self) -> Label {
        self.sink_labels
            .values()
            .fold(Label::Async, |acc, l| acc.join(l.clone()))
    }
}

/// The Blazes analyzer: borrows a graph, produces an [`AnalysisOutcome`].
#[derive(Debug)]
pub struct Analyzer<'g> {
    graph: &'g DataflowGraph,
}

impl<'g> Analyzer<'g> {
    /// Create an analyzer for `graph`.
    #[must_use]
    pub fn new(graph: &'g DataflowGraph) -> Self {
        Analyzer { graph }
    }

    /// Run the full analysis.
    pub fn run(&self) -> Result<AnalysisOutcome> {
        self.graph.validate()?;
        let cond = condense(self.graph);
        let mut out = AnalysisOutcome {
            graph_name: self.graph.name.clone(),
            stream_labels: vec![Label::Async; self.graph.streams().len()],
            interface_labels: BTreeMap::new(),
            sink_labels: BTreeMap::new(),
            derivations: Vec::new(),
            reports: Vec::new(),
            warnings: Vec::new(),
        };
        let mut labeled = vec![false; self.graph.streams().len()];

        // Source streams get their initial labels.
        for (i, stream) in self.graph.streams().iter().enumerate() {
            if let Endpoint::Source(sid) = &stream.from {
                let src = self.graph.source(*sid);
                let seal = stream
                    .annotation
                    .seal
                    .as_ref()
                    .or(src.annotation.seal.as_ref());
                out.stream_labels[i] = match seal {
                    Some(key) => Label::Seal(key.clone()),
                    None => Label::Async,
                };
                labeled[i] = true;
            }
        }

        // Process interface SCCs in topological order.
        for &si in &cond.topo {
            self.process_scc(&cond, si, &mut out, &mut labeled)?;
        }

        // Sinks: merge arriving stream labels.
        for (sid, _) in self.graph.sinks().iter().enumerate() {
            let sink = SinkId(sid);
            let mut label: Option<Label> = None;
            for (stream_id, _) in self.graph.streams_into_sink(sink) {
                if !labeled[stream_id.0] {
                    return Err(BlazesError::Analysis(format!(
                        "stream #{} into sink {:?} was never labeled",
                        stream_id.0,
                        self.graph.sink(sink).name
                    )));
                }
                let l = out.stream_labels[stream_id.0].clone();
                label = Some(match label {
                    None => l,
                    Some(cur) => cur.join(l),
                });
            }
            match label {
                Some(l) => {
                    out.sink_labels.insert(sink, l);
                }
                None => out.warnings.push(format!(
                    "sink {:?} receives no streams",
                    self.graph.sink(sink).name
                )),
            }
        }

        Ok(out)
    }

    fn process_scc(
        &self,
        cond: &Condensation,
        si: usize,
        out: &mut AnalysisOutcome,
        labeled: &mut [bool],
    ) -> Result<()> {
        let scc = &cond.sccs[si];
        if scc.collapsed {
            return self.process_collapsed(cond, si, out, labeled);
        }
        // Trivial SCC: only Out nodes need work.
        let IfaceNode::Out(oref) = &scc.nodes[0] else {
            return Ok(());
        };
        let comp = self.graph.component(oref.component);
        let mut derived_labels: Vec<Derived> = Vec::new();
        for path in comp.paths_to(&oref.iface) {
            let from_ref = InterfaceRef {
                component: oref.component,
                iface: path.from.clone(),
            };
            let mut fed = false;
            for (stream_id, _) in self.graph.streams_into(oref.component, &path.from) {
                fed = true;
                if !labeled[stream_id.0] {
                    return Err(BlazesError::Analysis(format!(
                        "stream into {}.{} not labeled before use (topological order bug)",
                        comp.name, path.from
                    )));
                }
                let input = out.stream_labels[stream_id.0].clone();
                let (derived, rule) = infer_path(&input, path);
                let input_seal = match &input {
                    Label::Seal(k) => Some(k.clone()),
                    _ => None,
                };
                out.derivations.push(PathDerivation {
                    node: scc.name.clone(),
                    from: from_ref.clone(),
                    to: oref.clone(),
                    annotation: path.annotation.to_string(),
                    input: input.clone(),
                    derived: derived.clone(),
                    rule,
                });
                derived_labels.push(Derived {
                    label: derived,
                    input_seal,
                });
                // A Run input's *content* nondeterminism survives an
                // order-sensitive read: the NDRead models the racing reads,
                // but no seal can protect contents that differ across runs
                // (a Run stream is never punctuated). Keep the Run label in
                // the entry list so protection cannot mask it.
                if input == Label::Run && rule == Rule::R1 {
                    derived_labels.push(Derived {
                        label: Label::Run,
                        input_seal: None,
                    });
                }
            }
            if !fed {
                out.warnings.push(format!(
                    "input interface {}.{} is not fed by any stream",
                    comp.name, path.from
                ));
            }
        }
        self.finish_interface(
            scc.name.clone(),
            scc.rep,
            oref.clone(),
            derived_labels,
            out,
            labeled,
        );
        Ok(())
    }

    /// Process a collapsed cycle: every path arriving at an Out node of the
    /// cycle is analyzed with the cycle's most severe annotation and an
    /// empty lineage (seals are dropped), over the streams entering the
    /// cycle from outside. The merged label is published on every stream
    /// leaving the cycle.
    fn process_collapsed(
        &self,
        cond: &Condensation,
        si: usize,
        out: &mut AnalysisOutcome,
        labeled: &mut [bool],
    ) -> Result<()> {
        let scc = &cond.sccs[si];
        let annotation = scc
            .collapsed_annotation
            .clone()
            .expect("collapsed SCC carries an annotation");
        let mut derived_labels: Vec<Derived> = Vec::new();
        let out_refs: Vec<InterfaceRef> = scc
            .nodes
            .iter()
            .filter_map(|n| match n {
                IfaceNode::Out(r) => Some(r.clone()),
                IfaceNode::In(_) => None,
            })
            .collect();

        for oref in &out_refs {
            let comp = self.graph.component(oref.component);
            for path in comp.paths_to(&oref.iface) {
                let from_ref = InterfaceRef {
                    component: oref.component,
                    iface: path.from.clone(),
                };
                // Synthesize the collapsed path: cycle annotation, empty
                // lineage so chased seals are dropped.
                let collapsed_spec = PathSpec {
                    from: path.from.clone(),
                    to: path.to.clone(),
                    annotation: annotation.clone(),
                    lineage: Some(BTreeMap::new()),
                };
                for (stream_id, stream) in self.graph.streams_into(oref.component, &path.from) {
                    // Skip intra-cycle streams: collapsed away.
                    if let Endpoint::Component(pc, piface) = &stream.from {
                        let producer = IfaceNode::Out(InterfaceRef {
                            component: *pc,
                            iface: piface.clone(),
                        });
                        if cond.scc_of.get(&producer) == Some(&si) {
                            continue;
                        }
                    }
                    if !labeled[stream_id.0] {
                        return Err(BlazesError::Analysis(format!(
                            "stream into cycle {} not labeled before use",
                            scc.name
                        )));
                    }
                    let input = out.stream_labels[stream_id.0].clone();
                    let (derived, rule) = infer_path(&input, &collapsed_spec);
                    let input_seal = match &input {
                        Label::Seal(k) => Some(k.clone()),
                        _ => None,
                    };
                    out.derivations.push(PathDerivation {
                        node: scc.name.clone(),
                        from: from_ref.clone(),
                        to: oref.clone(),
                        annotation: annotation.to_string(),
                        input: input.clone(),
                        derived: derived.clone(),
                        rule,
                    });
                    derived_labels.push(Derived {
                        label: derived,
                        input_seal,
                    });
                    if input == Label::Run && rule == Rule::R1 {
                        derived_labels.push(Derived {
                            label: Label::Run,
                            input_seal: None,
                        });
                    }
                }
            }
        }

        let rec = reconcile(derived_labels, scc.rep);
        let merged = rec.merged.clone();
        for oref in &out_refs {
            out.reports.push(InterfaceReport {
                node: scc.name.clone(),
                rep: scc.rep,
                iface: oref.clone(),
                reconciliation: rec.clone(),
            });
            out.interface_labels.insert(oref.clone(), merged.clone());
            for (stream_id, stream) in self.graph.streams_out_of(oref.component, &oref.iface) {
                let mut label = merged.clone();
                if let Some(key) = &stream.annotation.seal {
                    if label.severity() <= crate::severity::Severity::ASYNC {
                        label = Label::Seal(key.clone());
                    }
                }
                out.stream_labels[stream_id.0] = label;
                labeled[stream_id.0] = true;
            }
        }
        Ok(())
    }

    /// Reconcile, record and publish the merged label of one trivial output
    /// interface.
    fn finish_interface(
        &self,
        node_name: String,
        rep: bool,
        oref: InterfaceRef,
        derived_labels: Vec<Derived>,
        out: &mut AnalysisOutcome,
        labeled: &mut [bool],
    ) {
        let rec = reconcile(derived_labels, rep);
        let merged = rec.merged.clone();
        out.reports.push(InterfaceReport {
            node: node_name,
            rep,
            iface: oref.clone(),
            reconciliation: rec,
        });
        out.interface_labels.insert(oref.clone(), merged.clone());
        for (stream_id, stream) in self.graph.streams_out_of(oref.component, &oref.iface) {
            let mut label = merged.clone();
            if let Some(key) = &stream.annotation.seal {
                if label.severity() <= crate::severity::Severity::ASYNC {
                    label = Label::Seal(key.clone());
                }
            }
            out.stream_labels[stream_id.0] = label;
            labeled[stream_id.0] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::{ComponentAnnotation as CA, StreamAnnotation};
    use crate::graph::SourceId;
    use crate::keys::KeySet;

    /// Build the Storm wordcount dataflow of Section VI-A.
    fn wordcount(sealed: bool) -> (DataflowGraph, SinkId) {
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
        (g, sink)
    }

    /// Build the ad-reporting dataflow of Section VI-B with the given query
    /// annotation on the Report request path.
    fn ad_network(query: CA, seal: Option<&[&str]>) -> (DataflowGraph, SinkId, SourceId) {
        let mut g = DataflowGraph::new("ad-report");
        let clicks = g.add_source("clicks", &["id", "campaign", "window"]);
        if let Some(key) = seal {
            g.seal_source(clicks, key.iter().copied());
        }
        let requests = g.add_source("requests", &["id", "campaign", "window"]);

        let report = g.add_component("Report");
        g.set_rep(report, true);
        g.add_path(report, "click", "response", CA::cw());
        g.add_path(report, "request", "response", query);

        let cache = g.add_component("Cache");
        g.set_rep(cache, true);
        g.add_path(cache, "request", "response", CA::cr());
        g.add_path(cache, "response", "response", CA::cw());
        g.add_path(cache, "request", "request", CA::cr());

        let analyst = g.add_sink("analyst");
        g.connect_source(clicks, report, "click");
        g.connect_source(requests, cache, "request");
        g.connect(cache, "request", report, "request");
        g.connect(report, "response", cache, "response");
        g.connect(cache, "response", cache, "response"); // cache gossip
        g.connect_sink(cache, "response", analyst);
        (g, analyst, clicks)
    }

    #[test]
    fn wordcount_unsealed_is_run() {
        // Section VI-A2: without seals the topology label is Run.
        let (g, sink) = wordcount(false);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Run));
        assert!(out.program_label().is_anomalous());
    }

    #[test]
    fn wordcount_sealed_on_batch_is_async() {
        // Section VI-A2: sealing on batch makes the topology Async.
        let (g, sink) = wordcount(true);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
        assert!(!out.program_label().is_anomalous());
    }

    #[test]
    fn wordcount_sealed_on_word_also_async() {
        // Count is OW_{word,batch}: a seal on `word` is compatible too.
        let (mut g, sink) = wordcount(false);
        let tweets = SourceId(0);
        assert_eq!(g.source(tweets).name, "tweets");
        g.seal_source(tweets, ["word"]);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
    }

    #[test]
    fn thresh_is_async_without_coordination() {
        // Section VI-B2: THRESH is confluent end to end.
        let (g, sink, _) = ad_network(CA::cr(), None);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
        assert!(!out.program_label().is_anomalous());
    }

    #[test]
    fn poor_diverges_without_coordination() {
        // Section VI-B2: POOR taints the replicated cache -> Diverge.
        let (g, sink, _) = ad_network(CA::or(["id"]), None);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Diverge));
    }

    #[test]
    fn poor_sealed_on_campaign_still_diverges() {
        // Sealing on campaign does not help POOR (gate is {id}).
        let (g, sink, _) = ad_network(CA::or(["id"]), Some(&["campaign"]));
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Diverge));
    }

    #[test]
    fn campaign_sealed_on_campaign_is_async() {
        // Section VI-B2: CAMPAIGN + Seal_campaign reduces to Async.
        let (g, sink, _) = ad_network(CA::or(["id", "campaign"]), Some(&["campaign"]));
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
        assert!(!out.program_label().is_anomalous());
    }

    #[test]
    fn window_sealed_on_window_is_async() {
        let (g, sink, _) = ad_network(CA::or(["id", "window"]), Some(&["window"]));
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
    }

    #[test]
    fn campaign_unsealed_diverges() {
        // Without the seal the nonmonotonic CAMPAIGN query behaves like POOR.
        let (g, sink, _) = ad_network(CA::or(["id", "campaign"]), None);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Diverge));
    }

    #[test]
    fn report_interface_labels_match_paper() {
        // In POOR, Report's response interface is Inst (cross-instance ND).
        let (g, _, _) = ad_network(CA::or(["id"]), None);
        let report = g.component_by_name("Report").unwrap();
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(
            out.interface_labels.get(&InterfaceRef {
                component: report,
                iface: "response".into()
            }),
            Some(&Label::Inst)
        );
    }

    #[test]
    fn non_replicated_report_gives_run_not_inst() {
        let (mut g, _, _) = ad_network(CA::or(["id"]), None);
        let report = g.component_by_name("Report").unwrap();
        g.set_rep(report, false);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(
            out.interface_labels.get(&InterfaceRef {
                component: report,
                iface: "response".into()
            }),
            Some(&Label::Run)
        );
    }

    #[test]
    fn derivations_are_recorded() {
        let (g, _) = wordcount(false);
        let out = Analyzer::new(&g).run().unwrap();
        // Splitter, Count, Commit each derive at least one label.
        assert!(out.derivations().len() >= 3);
        assert!(out
            .derivations()
            .iter()
            .any(|d| d.node == "Count" && d.derived == Label::Taint));
    }

    #[test]
    fn stream_seal_annotation_upgrades_label() {
        // An intermediate stream with a declared seal is labeled Seal.
        let (mut g, _) = wordcount(false);
        let splitter = g.component_by_name("Splitter").unwrap();
        let count = g.component_by_name("Count").unwrap();
        let sid = g.connect(splitter, "words", count, "words");
        let sealed = StreamAnnotation {
            seal: Some(KeySet::from_attrs(["batch"])),
            rep: false,
        };
        g.annotate_stream(sid, sealed);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.stream_label(sid), &Label::seal(["batch"]));
    }

    #[test]
    fn program_label_is_max_over_sinks() {
        let (g, _) = wordcount(false);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.program_label(), Label::Run);
    }

    #[test]
    fn unfed_interface_warns_but_completes() {
        let mut g = DataflowGraph::new("unfed");
        let s = g.add_source("src", &["a"]);
        let c = g.add_component("C");
        g.add_path(c, "in", "out", CA::cr());
        g.add_path(c, "other", "out", CA::cr()); // never connected
        let k = g.add_sink("sink");
        g.connect_source(s, c, "in");
        g.connect_sink(c, "out", k);
        let out = Analyzer::new(&g).run().unwrap();
        assert!(!out.warnings().is_empty());
        assert_eq!(out.sink_label(k), Some(&Label::Async));
    }
}
