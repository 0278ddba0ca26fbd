//! Logical dataflow graphs — the paper's Section II system model.
//!
//! A [`DataflowGraph`] is the *logical* dataflow: components with named input
//! and output interfaces, connected by streams. Sources model stream
//! producers outside the analyzed service (e.g. the tweet spout or the ad
//! servers' click logs); sinks model consumers of the service's outputs.
//!
//! Components carry one [`ComponentAnnotation`] per internal path from an
//! input interface to an output interface; streams optionally carry
//! [`StreamAnnotation`]s.

use crate::annotation::{ComponentAnnotation, StreamAnnotation};
use crate::error::{BlazesError, Result};
use crate::keys::KeySet;
use std::collections::BTreeMap;

/// Identifier of a component in a [`DataflowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub usize);

/// Identifier of an external stream source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub usize);

/// Identifier of an external sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SinkId(pub usize);

/// Identifier of a stream (edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub usize);

/// One annotated path through a component, from input interface `from` to
/// output interface `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpec {
    /// Input interface name.
    pub from: String,
    /// Output interface name.
    pub to: String,
    /// The C.O.W.R. annotation for this path.
    pub annotation: ComponentAnnotation,
    /// Injective attribute mapping from input attributes to output
    /// attributes, used to chase seal keys through the path. `None` means the
    /// identity mapping (attributes keep their names) — the common case.
    pub lineage: Option<BTreeMap<String, String>>,
}

impl PathSpec {
    /// Chase a seal key through this path: the image of `key` under the
    /// path's injective attribute mapping, or `None` if some attribute has
    /// no image (the seal does not survive).
    #[must_use]
    pub fn map_seal_key(&self, key: &KeySet) -> Option<KeySet> {
        match &self.lineage {
            None => Some(key.clone()),
            Some(map) => key.rename(map),
        }
    }
}

/// A logical component (paper Section II-A): a unit of computation and
/// storage with named input/output interfaces and annotated internal paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Human-readable name (unique within the graph).
    pub name: String,
    /// Whether the component is replicated (`Rep: true` in the spec file):
    /// multiple instances consume the same logical input streams.
    pub rep: bool,
    /// Annotated input→output paths.
    pub paths: Vec<PathSpec>,
}

impl Component {
    /// All input interface names, in declaration order, deduplicated.
    #[must_use]
    pub fn input_interfaces(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for p in &self.paths {
            if !seen.contains(&p.from.as_str()) {
                seen.push(p.from.as_str());
            }
        }
        seen
    }

    /// All output interface names, in declaration order, deduplicated.
    #[must_use]
    pub fn output_interfaces(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for p in &self.paths {
            if !seen.contains(&p.to.as_str()) {
                seen.push(p.to.as_str());
            }
        }
        seen
    }

    /// Paths arriving at output interface `out`.
    pub fn paths_to<'a>(&'a self, out: &str) -> impl Iterator<Item = &'a PathSpec> + 'a {
        let out = out.to_string();
        self.paths.iter().filter(move |p| p.to == out)
    }
}

/// An external stream source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Source {
    /// Name (unique within the graph).
    pub name: String,
    /// Attribute names of the records the source emits.
    pub attrs: KeySet,
    /// Stream annotation (seal/rep) for the emitted stream.
    pub annotation: StreamAnnotation,
}

/// An external sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sink {
    /// Name (unique within the graph).
    pub name: String,
}

/// One end of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// An external source (producing end only).
    Source(SourceId),
    /// A component interface: `(component, interface name)`.
    Component(ComponentId, String),
    /// An external sink (consuming end only).
    Sink(SinkId),
}

/// A stream: an edge between a producing endpoint and a consuming endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Producing end.
    pub from: Endpoint,
    /// Consuming end.
    pub to: Endpoint,
    /// Extra annotation on this particular stream. For source-emitted
    /// streams the source's annotation applies as well; a seal declared here
    /// on an intermediate stream records a programmer promise of
    /// punctuations.
    pub annotation: StreamAnnotation,
}

/// A logical dataflow graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataflowGraph {
    /// Graph name, used in reports.
    pub name: String,
    components: Vec<Component>,
    sources: Vec<Source>,
    sinks: Vec<Sink>,
    streams: Vec<Stream>,
}

impl DataflowGraph {
    /// An empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        DataflowGraph {
            name: name.into(),
            ..DataflowGraph::default()
        }
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Add a component with no paths yet.
    pub fn add_component(&mut self, name: impl Into<String>) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(Component {
            name: name.into(),
            rep: false,
            paths: Vec::new(),
        });
        id
    }

    /// Add an annotated path through `component` from input interface `from`
    /// to output interface `to`.
    pub fn add_path(
        &mut self,
        component: ComponentId,
        from: impl Into<String>,
        to: impl Into<String>,
        annotation: ComponentAnnotation,
    ) {
        self.components[component.0].paths.push(PathSpec {
            from: from.into(),
            to: to.into(),
            annotation,
            lineage: None,
        });
    }

    /// Mark a component replicated (`Rep: true`).
    pub fn set_rep(&mut self, component: ComponentId, rep: bool) {
        self.components[component.0].rep = rep;
    }

    /// Replace every path of a component (used by plan application, which
    /// rewrites order-sensitive annotations once ordering is deployed).
    pub fn replace_component_paths(&mut self, component: ComponentId, paths: Vec<PathSpec>) {
        self.components[component.0].paths = paths;
    }

    /// Add an external source emitting records with attributes `attrs`.
    pub fn add_source(&mut self, name: impl Into<String>, attrs: &[&str]) -> SourceId {
        let id = SourceId(self.sources.len());
        self.sources.push(Source {
            name: name.into(),
            attrs: KeySet::from_attrs(attrs.iter().copied()),
            annotation: StreamAnnotation::none(),
        });
        id
    }

    /// Declare that `source` emits punctuations sealing partitions keyed on
    /// `key`.
    pub fn seal_source<I, S>(&mut self, source: SourceId, key: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.sources[source.0].annotation.seal = Some(KeySet::from_attrs(key));
    }

    /// Mark a source stream as replicated.
    pub fn set_source_rep(&mut self, source: SourceId, rep: bool) {
        self.sources[source.0].annotation.rep = rep;
    }

    /// Add an external sink.
    pub fn add_sink(&mut self, name: impl Into<String>) -> SinkId {
        let id = SinkId(self.sinks.len());
        self.sinks.push(Sink { name: name.into() });
        id
    }

    /// Connect a source to a component input interface.
    pub fn connect_source(
        &mut self,
        source: SourceId,
        component: ComponentId,
        input: impl Into<String>,
    ) -> StreamId {
        self.push_stream(Stream {
            from: Endpoint::Source(source),
            to: Endpoint::Component(component, input.into()),
            annotation: StreamAnnotation::none(),
        })
    }

    /// Connect an output interface of one component to an input interface of
    /// another (or the same — a self-edge, as in the paper's `Cache`).
    pub fn connect(
        &mut self,
        from: ComponentId,
        output: impl Into<String>,
        to: ComponentId,
        input: impl Into<String>,
    ) -> StreamId {
        self.push_stream(Stream {
            from: Endpoint::Component(from, output.into()),
            to: Endpoint::Component(to, input.into()),
            annotation: StreamAnnotation::none(),
        })
    }

    /// Connect a component output interface to a sink.
    pub fn connect_sink(
        &mut self,
        from: ComponentId,
        output: impl Into<String>,
        sink: SinkId,
    ) -> StreamId {
        self.push_stream(Stream {
            from: Endpoint::Component(from, output.into()),
            to: Endpoint::Sink(sink),
            annotation: StreamAnnotation::none(),
        })
    }

    /// Set the extra annotation on an existing stream.
    pub fn annotate_stream(&mut self, stream: StreamId, annotation: StreamAnnotation) {
        self.streams[stream.0].annotation = annotation;
    }

    fn push_stream(&mut self, stream: Stream) -> StreamId {
        let id = StreamId(self.streams.len());
        self.streams.push(stream);
        id
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// All components.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// All sources.
    #[must_use]
    pub fn sources(&self) -> &[Source] {
        &self.sources
    }

    /// All sinks.
    #[must_use]
    pub fn sinks(&self) -> &[Sink] {
        &self.sinks
    }

    /// All streams.
    #[must_use]
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// The component with the given id.
    #[must_use]
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.components[id.0]
    }

    /// The source with the given id.
    #[must_use]
    pub fn source(&self, id: SourceId) -> &Source {
        &self.sources[id.0]
    }

    /// The sink with the given id.
    #[must_use]
    pub fn sink(&self, id: SinkId) -> &Sink {
        &self.sinks[id.0]
    }

    /// Find a component by name.
    pub fn component_by_name(&self, name: &str) -> Result<ComponentId> {
        self.components
            .iter()
            .position(|c| c.name == name)
            .map(ComponentId)
            .ok_or_else(|| BlazesError::UnknownEntity {
                kind: "component",
                name: name.to_string(),
            })
    }

    /// Find a sink by name.
    pub fn sink_by_name(&self, name: &str) -> Result<SinkId> {
        self.sinks
            .iter()
            .position(|s| s.name == name)
            .map(SinkId)
            .ok_or_else(|| BlazesError::UnknownEntity {
                kind: "sink",
                name: name.to_string(),
            })
    }

    /// Streams consumed by a given component input interface.
    pub fn streams_into<'a>(
        &'a self,
        component: ComponentId,
        input: &str,
    ) -> impl Iterator<Item = (StreamId, &'a Stream)> + 'a {
        let input = input.to_string();
        self.streams
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| match &s.to {
                Endpoint::Component(c, iface) if *c == component && *iface == input => {
                    Some((StreamId(i), s))
                }
                _ => None,
            })
    }

    /// Streams produced by a given component output interface.
    pub fn streams_out_of<'a>(
        &'a self,
        component: ComponentId,
        output: &str,
    ) -> impl Iterator<Item = (StreamId, &'a Stream)> + 'a {
        let output = output.to_string();
        self.streams
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| match &s.from {
                Endpoint::Component(c, iface) if *c == component && *iface == output => {
                    Some((StreamId(i), s))
                }
                _ => None,
            })
    }

    /// Streams arriving at a sink.
    pub fn streams_into_sink(&self, sink: SinkId) -> impl Iterator<Item = (StreamId, &Stream)> {
        self.streams
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| match &s.to {
                Endpoint::Sink(k) if *k == sink => Some((StreamId(i), s)),
                _ => None,
            })
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Structural validation: interface references resolve, names are
    /// unique, every source feeds something, every declared seal key is a
    /// subset of the source's attributes.
    pub fn validate(&self) -> Result<()> {
        let mut names = std::collections::BTreeSet::new();
        for c in &self.components {
            if !names.insert(c.name.clone()) {
                return Err(BlazesError::Duplicate {
                    kind: "component",
                    name: c.name.clone(),
                });
            }
            if c.paths.is_empty() {
                return Err(BlazesError::MalformedGraph(format!(
                    "component {:?} has no annotated paths",
                    c.name
                )));
            }
        }
        for s in &self.sources {
            if !names.insert(s.name.clone()) {
                return Err(BlazesError::Duplicate {
                    kind: "source",
                    name: s.name.clone(),
                });
            }
            if let Some(seal) = &s.annotation.seal {
                if !seal.is_subset(&s.attrs) {
                    return Err(BlazesError::MalformedGraph(format!(
                        "source {:?} sealed on {{{seal}}}, not a subset of its attributes {{{}}}",
                        s.name, s.attrs
                    )));
                }
            }
            let feeds_any = self.streams.iter().any(
                |st| matches!(&st.from, Endpoint::Source(id) if self.sources[id.0].name == s.name),
            );
            if !feeds_any {
                return Err(BlazesError::MalformedGraph(format!(
                    "source {:?} feeds no component",
                    s.name
                )));
            }
        }
        for s in &self.sinks {
            if !names.insert(s.name.clone()) {
                return Err(BlazesError::Duplicate {
                    kind: "sink",
                    name: s.name.clone(),
                });
            }
        }
        for stream in &self.streams {
            self.validate_endpoint(&stream.from, /*producing=*/ true)?;
            self.validate_endpoint(&stream.to, /*producing=*/ false)?;
        }
        Ok(())
    }

    fn validate_endpoint(&self, ep: &Endpoint, producing: bool) -> Result<()> {
        match ep {
            Endpoint::Source(id) => {
                if !producing {
                    return Err(BlazesError::MalformedGraph(
                        "a source cannot consume a stream".to_string(),
                    ));
                }
                if id.0 >= self.sources.len() {
                    return Err(BlazesError::UnknownEntity {
                        kind: "source",
                        name: format!("#{}", id.0),
                    });
                }
            }
            Endpoint::Sink(id) => {
                if producing {
                    return Err(BlazesError::MalformedGraph(
                        "a sink cannot produce a stream".to_string(),
                    ));
                }
                if id.0 >= self.sinks.len() {
                    return Err(BlazesError::UnknownEntity {
                        kind: "sink",
                        name: format!("#{}", id.0),
                    });
                }
            }
            Endpoint::Component(id, iface) => {
                if id.0 >= self.components.len() {
                    return Err(BlazesError::UnknownEntity {
                        kind: "component",
                        name: format!("#{}", id.0),
                    });
                }
                let c = &self.components[id.0];
                let known = if producing {
                    c.output_interfaces().contains(&iface.as_str())
                } else {
                    c.input_interfaces().contains(&iface.as_str())
                };
                if !known {
                    return Err(BlazesError::UnknownEntity {
                        kind: if producing {
                            "output interface"
                        } else {
                            "input interface"
                        },
                        name: format!("{}.{}", c.name, iface),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::ComponentAnnotation as CA;

    fn wordcount() -> (
        DataflowGraph,
        SourceId,
        ComponentId,
        ComponentId,
        ComponentId,
        SinkId,
    ) {
        let mut g = DataflowGraph::new("wordcount");
        let tweets = g.add_source("tweets", &["word", "batch"]);
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
        (g, tweets, splitter, count, commit, sink)
    }

    #[test]
    fn build_and_validate_wordcount() {
        let (g, ..) = wordcount();
        g.validate().unwrap();
        assert_eq!(g.components().len(), 3);
        assert_eq!(g.streams().len(), 4);
    }

    #[test]
    fn interfaces_are_discovered_from_paths() {
        let (g, _, splitter, ..) = wordcount();
        let c = g.component(splitter);
        assert_eq!(c.input_interfaces(), vec!["tweets"]);
        assert_eq!(c.output_interfaces(), vec!["words"]);
    }

    #[test]
    fn lookup_by_name() {
        let (g, ..) = wordcount();
        assert!(g.component_by_name("Count").is_ok());
        assert!(g.component_by_name("Missing").is_err());
        assert!(g.sink_by_name("store").is_ok());
    }

    #[test]
    fn seal_must_be_subset_of_source_attrs() {
        let (mut g, tweets, ..) = wordcount();
        g.seal_source(tweets, ["batch"]);
        g.validate().unwrap();
        g.seal_source(tweets, ["campaign"]);
        assert!(matches!(g.validate(), Err(BlazesError::MalformedGraph(_))));
    }

    #[test]
    fn duplicate_component_names_rejected() {
        let mut g = DataflowGraph::new("dup");
        let a = g.add_component("X");
        g.add_path(a, "i", "o", CA::cr());
        let b = g.add_component("X");
        g.add_path(b, "i", "o", CA::cr());
        assert!(matches!(g.validate(), Err(BlazesError::Duplicate { .. })));
    }

    #[test]
    fn dangling_source_rejected() {
        let mut g = DataflowGraph::new("dangling");
        g.add_source("s", &["a"]);
        let c = g.add_component("C");
        g.add_path(c, "i", "o", CA::cr());
        assert!(matches!(g.validate(), Err(BlazesError::MalformedGraph(_))));
    }

    #[test]
    fn unknown_interface_rejected() {
        let mut g = DataflowGraph::new("bad-iface");
        let s = g.add_source("s", &["a"]);
        let c = g.add_component("C");
        g.add_path(c, "in", "out", CA::cr());
        g.connect_source(s, c, "not-an-input");
        assert!(matches!(
            g.validate(),
            Err(BlazesError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn component_with_no_paths_rejected() {
        let mut g = DataflowGraph::new("no-paths");
        let s = g.add_source("s", &["a"]);
        let c = g.add_component("C");
        g.connect_source(s, c, "in");
        assert!(matches!(g.validate(), Err(BlazesError::MalformedGraph(_))));
    }

    #[test]
    fn streams_into_and_out_of() {
        let (g, _, splitter, count, ..) = wordcount();
        let into: Vec<_> = g.streams_into(count, "words").collect();
        assert_eq!(into.len(), 1);
        let out: Vec<_> = g.streams_out_of(splitter, "words").collect();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn seal_key_chase_through_identity_lineage() {
        let p = PathSpec {
            from: "in".into(),
            to: "out".into(),
            annotation: CA::cr(),
            lineage: None,
        };
        let key = KeySet::from_attrs(["batch"]);
        assert_eq!(p.map_seal_key(&key), Some(key.clone()));
    }

    #[test]
    fn seal_key_chase_through_renaming_lineage() {
        let mut lineage = BTreeMap::new();
        lineage.insert("batch".to_string(), "epoch".to_string());
        let p = PathSpec {
            from: "in".into(),
            to: "out".into(),
            annotation: CA::cr(),
            lineage: Some(lineage),
        };
        assert_eq!(
            p.map_seal_key(&KeySet::from_attrs(["batch"])),
            Some(KeySet::from_attrs(["epoch"]))
        );
        // An attribute projected away kills the seal.
        assert_eq!(p.map_seal_key(&KeySet::from_attrs(["word"])), None);
    }

    #[test]
    fn self_edge_allowed() {
        let mut g = DataflowGraph::new("cache");
        let s = g.add_source("resp", &["k"]);
        let cache = g.add_component("Cache");
        g.add_path(cache, "response", "response", CA::cw());
        g.connect_source(s, cache, "response");
        g.connect(cache, "response", cache, "response");
        g.validate().unwrap();
    }
}
