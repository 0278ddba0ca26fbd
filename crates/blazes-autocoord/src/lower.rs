//! The analysed graph is read off the executed one: [`lower`] turns a
//! recorded [`Topology`] plus an [`Annotations`] table into the logical
//! [`DataflowGraph`] the Blazes analysis runs on.
//!
//! Engines name the instances of one logical component `Name[k]`. Each
//! [`family`] becomes one node ([`Role`]), so parallelism is erased; an
//! unlisted family is a component with one `in` → `out` path annotated
//! `OW_*`, the conservative choice for unreviewed code. The lowering
//! walks instances and wires, never injections: a stream injected
//! straight into a component is declared with [`Annotations::inject`].

use blazes_core::annotation::ComponentAnnotation;
use blazes_core::error::{BlazesError, Result};
use blazes_core::graph::{ComponentId, DataflowGraph, PathSpec, SinkId, SourceId};
use blazes_dataflow::backend::Topology;
use std::collections::BTreeSet;

/// The family of an instance name: the prefix before `[` (`Count[2]` →
/// `Count`).
#[must_use]
pub fn family(instance: &str) -> &str {
    instance.split('[').next().unwrap_or(instance)
}

/// A stream entering the dataflow from outside.
#[derive(Debug, Clone)]
pub struct StreamDecl {
    /// The source's name in the graph.
    pub name: String,
    /// The attributes of its records, in column order.
    pub attrs: Vec<String>,
    /// The key its punctuations seal partitions on, if it emits any.
    pub seal: Option<Vec<String>>,
    /// The input interface of its consumer it enters.
    pub enters: String,
}

impl StreamDecl {
    /// Stream `name` of records `attrs`, sealed on `seal` if given,
    /// entering its consumer's `enters` interface.
    #[must_use]
    pub fn new(name: &str, attrs: &[&str], seal: Option<&[&str]>, enters: &str) -> Self {
        let owned = |v: &[&str]| v.iter().map(ToString::to_string).collect();
        StreamDecl {
            name: name.to_string(),
            attrs: owned(attrs),
            seal: seal.map(owned),
            enters: enters.to_string(),
        }
    }
}

/// A logical component.
#[derive(Debug, Clone)]
pub struct ComponentDecl {
    /// Its name in the graph (what coordination directives name).
    pub name: String,
    /// Replicated: its instances consume the same logical input.
    pub rep: bool,
    /// Its annotated paths.
    pub paths: Vec<PathSpec>,
    /// The interface a wire from another component enters.
    pub input: String,
    /// The interface its wires leave by.
    pub output: String,
    /// A sink its output feeds that no recorded instance stands for.
    pub sink: Option<String>,
}

impl ComponentDecl {
    /// An unreplicated component `name`, entered at `input` and left by
    /// `output`, with one path between them annotated `ann`: a
    /// Storm bolt, or (`in` → `out`, `OW_*`) an unlisted family.
    #[must_use]
    pub fn one_path(name: &str, input: &str, output: &str, ann: ComponentAnnotation) -> Self {
        ComponentDecl {
            name: name.to_string(),
            rep: false,
            paths: vec![PathSpec {
                from: input.to_string(),
                to: output.to_string(),
                annotation: ann,
                lineage: None,
            }],
            input: input.to_string(),
            output: output.to_string(),
            sink: None,
        }
    }
}

/// What a family's node is.
#[derive(Debug, Clone)]
pub enum Role {
    /// Its instances relay an injected stream (a spout, an ad server).
    Source(StreamDecl),
    /// It is a component.
    Component(ComponentDecl),
    /// It only collects: the sink of this name.
    Sink(String),
}

/// What the analysis is told about a recorded topology, keyed by
/// instance family (matched case-insensitively, as directives are).
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    graph: String,
    roles: Vec<(String, Role)>,
    injected: Vec<(String, StreamDecl)>,
}

impl Annotations {
    /// An empty table for the graph named `graph`.
    #[must_use]
    pub fn new(graph: impl Into<String>) -> Self {
        Annotations {
            graph: graph.into(),
            ..Annotations::default()
        }
    }

    /// Family `family` plays `role`.
    #[must_use]
    pub fn with(mut self, family: &str, role: Role) -> Self {
        self.roles.push((family.to_string(), role));
        self
    }

    /// `stream` is injected straight into family `family`'s instances.
    #[must_use]
    pub fn inject(mut self, family: &str, stream: StreamDecl) -> Self {
        self.injected.push((family.to_string(), stream));
        self
    }

    fn role(&self, family: &str) -> Option<&Role> {
        let mut roles = self.roles.iter();
        roles
            .find(|(f, _)| f.eq_ignore_ascii_case(family))
            .map(|(_, r)| r)
    }
}

/// One family, lowered.
enum Node {
    Source(SourceId, String),
    Component(ComponentId, ComponentDecl),
    Sink(SinkId),
}

/// Lower `topology` to the logical dataflow graph `table` describes: one
/// node per instance family, one stream per pair of families a recorded
/// wire joins, plus the table's injected streams. A source enters its
/// consumer at the stream's `enters` interface where the consumer has a
/// path from it, else at the consumer's `input` (an unlisted family's
/// `in`); a component's wires leave by its `output` and enter the next
/// component at its `input`.
///
/// # Errors
/// [`BlazesError::MalformedGraph`] when a wire leaves a sink, enters a
/// source or joins a source to a sink, or an injected stream's family has
/// no component instance; any error of [`DataflowGraph::validate`].
pub fn lower(topology: &Topology, table: &Annotations) -> Result<DataflowGraph> {
    let mut g = DataflowGraph::new(table.graph.clone());
    let mut nodes: Vec<(&str, Node)> = Vec::new();
    let mut node_of = Vec::with_capacity(topology.instance_names().len());
    for f in topology.instance_names().map(family) {
        node_of.push(nodes.iter().position(|(n, _)| *n == f).unwrap_or_else(|| {
            nodes.push((f, add_node(&mut g, f, table.role(f))));
            nodes.len() - 1
        }));
    }
    let mut joined = BTreeSet::new();
    for w in topology.wires() {
        let (from, to) = (node_of[w.from.0], node_of[w.to.0]);
        if !joined.insert((from, to)) {
            continue;
        }
        match (&nodes[from].1, &nodes[to].1) {
            (Node::Source(s, enters), Node::Component(c, decl)) => {
                let has = decl.paths.iter().any(|p| p.from == *enters);
                g.connect_source(*s, *c, if has { enters } else { &decl.input });
            }
            (Node::Component(a, from), Node::Component(b, to)) => {
                g.connect(*a, &from.output, *b, &to.input);
            }
            (Node::Component(c, decl), Node::Sink(k)) => {
                g.connect_sink(*c, &decl.output, *k);
            }
            _ => {
                return Err(BlazesError::MalformedGraph(format!(
                    "a wire from {:?} to {:?} joins no component",
                    nodes[from].0, nodes[to].0
                )))
            }
        }
    }
    for (f, stream) in &table.injected {
        let Some((_, Node::Component(c, _))) =
            nodes.iter().find(|(n, _)| n.eq_ignore_ascii_case(f))
        else {
            return Err(BlazesError::MalformedGraph(format!(
                "stream {:?} is injected into {f:?}, which has no component instance",
                stream.name
            )));
        };
        let s = add_source(&mut g, stream);
        g.connect_source(s, *c, &stream.enters);
    }
    g.validate()?;
    Ok(g)
}

/// Add the node `role` makes of `family` to `g`.
fn add_node(g: &mut DataflowGraph, family: &str, role: Option<&Role>) -> Node {
    let decl = match role {
        Some(Role::Source(stream)) => {
            return Node::Source(add_source(g, stream), stream.enters.clone())
        }
        Some(Role::Sink(name)) => return Node::Sink(g.add_sink(name)),
        Some(Role::Component(decl)) => decl.clone(),
        None => ComponentDecl::one_path(family, "in", "out", ComponentAnnotation::ow_star()),
    };
    let c = g.add_component(&decl.name);
    g.set_rep(c, decl.rep);
    g.replace_component_paths(c, decl.paths.clone());
    if let Some(sink) = &decl.sink {
        let k = g.add_sink(sink);
        g.connect_sink(c, &decl.output, k);
    }
    Node::Component(c, decl)
}

fn add_source(g: &mut DataflowGraph, stream: &StreamDecl) -> SourceId {
    let attrs: Vec<&str> = stream.attrs.iter().map(String::as_str).collect();
    let s = g.add_source(&stream.name, &attrs);
    if let Some(key) = &stream.seal {
        g.seal_source(s, key.iter().cloned());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_dataflow::backend::{ExecutorBuilder, PortId};
    use blazes_dataflow::channel::ChannelConfig;
    use blazes_dataflow::component::{Component, Context, FnComponent};
    use blazes_dataflow::sim::InstanceId;

    fn relay(name: &str) -> Box<dyn Component> {
        Box::new(FnComponent::new(
            name.to_string(),
            |_, msg, ctx: &mut Context| ctx.emit(0, msg),
        ))
    }

    fn source(name: &str, seal: Option<&[&str]>) -> Role {
        Role::Source(StreamDecl::new(name, &["k"], seal, "in"))
    }

    /// `src[0..2]` → every `op[0..3]` → one `out`, all wired.
    fn fan() -> Topology {
        let mut t = Topology::new();
        let srcs: Vec<InstanceId> = (0..2)
            .map(|k| t.add_instance(relay(&format!("src[{k}]"))))
            .collect();
        let ops: Vec<InstanceId> = (0..3)
            .map(|k| t.add_instance(relay(&format!("op[{k}]"))))
            .collect();
        let out = t.add_instance(relay("out"));
        for &s in &srcs {
            for &o in &ops {
                t.connect_with(s, PortId(0), o, PortId(0), ChannelConfig::instant());
            }
        }
        for &o in &ops {
            t.connect_with(o, PortId(0), out, PortId(0), ChannelConfig::instant());
        }
        t
    }

    #[test]
    fn a_family_is_the_prefix_before_the_index() {
        assert_eq!(family("Count[12]"), "Count");
        assert_eq!(family("analyst"), "analyst");
        assert_eq!(family("report[3][1]"), "report");
    }

    #[test]
    fn each_family_is_one_node_and_each_family_pair_one_stream() {
        let op = ComponentDecl {
            rep: true,
            ..ComponentDecl::one_path("Op", "in", "out", ComponentAnnotation::cr())
        };
        let table = Annotations::new("fan")
            .with("src", source("s", Some(&["k"])))
            .with("OP", Role::Component(op))
            .with("out", Role::Sink("done".to_string()));
        let g = lower(&fan(), &table).unwrap();
        assert_eq!((g.sources().len(), g.components().len()), (1, 1));
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.streams().len(), 2, "6 + 3 wires, 2 family pairs");
        let op = g.component(g.component_by_name("Op").unwrap());
        assert!(op.rep);
        assert!(g.sources()[0].annotation.seal.is_some());
    }

    #[test]
    fn malformed_tables_are_errors() {
        // `out` declared a source: the ops' wires would enter it.
        let into_source = Annotations::new("fan")
            .with("src", source("s", None))
            .with("out", source("o", None));
        assert!(lower(&fan(), &into_source).is_err());
        // An injected stream into a family with no instance.
        let nowhere = Annotations::new("fan")
            .with("src", source("s", None))
            .inject("ghost", StreamDecl::new("g", &["k"], None, "in"));
        assert!(lower(&fan(), &nowhere).is_err());
    }
}
