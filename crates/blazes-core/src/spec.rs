//! Parser for the Blazes annotation file — the "grey box" input format of
//! the paper's Section VI (a small YAML subset, parsed by hand so the crate
//! stays dependency-free).
//!
//! The component sections follow the paper exactly:
//!
//! ```yaml
//! Splitter:
//!   annotation:
//!     - { from: tweets, to: words, label: CR }
//! Count:
//!   annotation:
//!     - { from: words, to: counts, label: OW, subscript: [word, batch] }
//! Commit:
//!   annotation: { from: counts, to: db, label: CW }
//! Report:
//!   Rep: true
//!   annotation:
//!     - { from: request, to: response, label: OR, subscript: [id] }
//! ```
//!
//! Three optional sections extend the paper's format so a complete dataflow
//! can live in one file (the paper obtains topology from the host engine):
//!
//! ```yaml
//! streams:
//!   - { name: tweets, attrs: [word, batch], seal: [batch], to: Splitter.tweets }
//! connections:
//!   - { from: Splitter.words, to: Count.words }
//! sinks:
//!   - { name: store, from: Commit.db }
//! ```

use crate::annotation::{ComponentAnnotation, Gate};
use crate::error::{BlazesError, Result};
use crate::graph::DataflowGraph;
use crate::keys::KeySet;
use std::collections::BTreeMap;

/// A parsed `- { from: .., to: .., label: .., subscript: [..] }` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotationSpec {
    /// Input interface name.
    pub from: String,
    /// Output interface name.
    pub to: String,
    /// Parsed annotation.
    pub annotation: ComponentAnnotation,
}

/// A parsed component section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ComponentSpec {
    /// Component name.
    pub name: String,
    /// `Rep: true` flag.
    pub rep: bool,
    /// Path annotations.
    pub annotations: Vec<AnnotationSpec>,
}

/// A parsed `streams:` entry (external source).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSpec {
    /// Source name.
    pub name: String,
    /// Record attributes.
    pub attrs: Vec<String>,
    /// Optional seal key.
    pub seal: Option<Vec<String>>,
    /// Replicated delivery flag.
    pub rep: bool,
    /// Targets, as `Component.iface`.
    pub to: Vec<String>,
}

/// A parsed `connections:` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionSpec {
    /// Producer, as `Component.iface`.
    pub from: String,
    /// Consumer, as `Component.iface`.
    pub to: String,
    /// Optional declared seal on the intermediate stream.
    pub seal: Option<Vec<String>>,
}

/// A parsed `sinks:` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkSpec {
    /// Sink name.
    pub name: String,
    /// Producer, as `Component.iface`.
    pub from: String,
}

/// A fully parsed spec file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Spec {
    /// Component sections in file order.
    pub components: Vec<ComponentSpec>,
    /// `streams:` section.
    pub streams: Vec<StreamSpec>,
    /// `connections:` section.
    pub connections: Vec<ConnectionSpec>,
    /// `sinks:` section.
    pub sinks: Vec<SinkSpec>,
}

impl Spec {
    /// Parse a spec file.
    pub fn parse(input: &str) -> Result<Spec> {
        Parser::new(input).parse()
    }

    /// Build a complete dataflow graph (requires `streams:` and `sinks:`
    /// sections).
    pub fn to_graph(&self, name: impl Into<String>) -> Result<DataflowGraph> {
        let mut g = DataflowGraph::new(name);
        let mut comp_ids = BTreeMap::new();
        for comp in &self.components {
            let id = g.add_component(&comp.name);
            g.set_rep(id, comp.rep);
            for a in &comp.annotations {
                g.add_path(id, &a.from, &a.to, a.annotation.clone());
            }
            comp_ids.insert(comp.name.clone(), id);
        }
        for s in &self.streams {
            let attrs: Vec<&str> = s.attrs.iter().map(String::as_str).collect();
            let src = g.add_source(&s.name, &attrs);
            if let Some(seal) = &s.seal {
                g.seal_source(src, seal.iter().cloned());
            }
            if s.rep {
                g.set_source_rep(src, true);
            }
            for target in &s.to {
                let (comp, iface) = split_ref(target)?;
                let id = *comp_ids
                    .get(comp)
                    .ok_or_else(|| BlazesError::UnknownEntity {
                        kind: "component",
                        name: comp.to_string(),
                    })?;
                g.connect_source(src, id, iface);
            }
        }
        for c in &self.connections {
            let (fc, fi) = split_ref(&c.from)?;
            let (tc, ti) = split_ref(&c.to)?;
            let from = *comp_ids.get(fc).ok_or_else(|| BlazesError::UnknownEntity {
                kind: "component",
                name: fc.to_string(),
            })?;
            let to = *comp_ids.get(tc).ok_or_else(|| BlazesError::UnknownEntity {
                kind: "component",
                name: tc.to_string(),
            })?;
            let sid = g.connect(from, fi, to, ti);
            if let Some(seal) = &c.seal {
                g.annotate_stream(
                    sid,
                    crate::annotation::StreamAnnotation {
                        seal: Some(KeySet::from_attrs(seal.iter().cloned())),
                        rep: false,
                    },
                );
            }
        }
        for s in &self.sinks {
            let (fc, fi) = split_ref(&s.from)?;
            let from = *comp_ids.get(fc).ok_or_else(|| BlazesError::UnknownEntity {
                kind: "component",
                name: fc.to_string(),
            })?;
            let sink = g.add_sink(&s.name);
            g.connect_sink(from, fi, sink);
        }
        g.validate()?;
        Ok(g)
    }
}

fn split_ref(s: &str) -> Result<(&str, &str)> {
    s.split_once('.').ok_or_else(|| BlazesError::SpecParse {
        line: 0,
        message: format!("expected Component.iface reference, got {s:?}"),
    })
}

// ---------------------------------------------------------------------
// Parsing machinery
// ---------------------------------------------------------------------

/// A value inside a flow map: a bare scalar or a list of scalars.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FlowValue {
    Scalar(String),
    List(Vec<String>),
}

impl FlowValue {
    fn as_scalar(&self, line: usize, key: &str) -> Result<&str> {
        match self {
            FlowValue::Scalar(s) => Ok(s),
            FlowValue::List(_) => Err(BlazesError::SpecParse {
                line,
                message: format!("key {key:?} expects a scalar, found a list"),
            }),
        }
    }

    fn as_list(&self) -> Vec<String> {
        match self {
            FlowValue::Scalar(s) => vec![s.clone()],
            FlowValue::List(l) => l.clone(),
        }
    }
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>, // (1-based line number, content)
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let lines = input
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with('#')
            })
            .collect();
        Parser { lines, pos: 0 }
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<(usize, &'a str)> {
        let l = self.peek();
        self.pos += 1;
        l
    }

    fn parse(mut self) -> Result<Spec> {
        let mut spec = Spec::default();
        while let Some((line_no, line)) = self.peek() {
            let indent = indent_of(line);
            if indent != 0 {
                return Err(BlazesError::SpecParse {
                    line: line_no,
                    message: "expected a top-level section (no indentation)".to_string(),
                });
            }
            let trimmed = line.trim();
            let Some(head) = trimmed.strip_suffix(':') else {
                return Err(BlazesError::SpecParse {
                    line: line_no,
                    message: format!("expected `name:` header, got {trimmed:?}"),
                });
            };
            match head {
                "streams" => {
                    self.bump();
                    for (ln, map) in self.parse_list_items()? {
                        spec.streams.push(parse_stream_entry(ln, &map)?);
                    }
                }
                "connections" => {
                    self.bump();
                    for (ln, map) in self.parse_list_items()? {
                        spec.connections.push(parse_connection_entry(ln, &map)?);
                    }
                }
                "sinks" => {
                    self.bump();
                    for (ln, map) in self.parse_list_items()? {
                        spec.sinks.push(parse_sink_entry(ln, &map)?);
                    }
                }
                name => {
                    self.bump();
                    spec.components.push(self.parse_component(name)?);
                }
            }
        }
        Ok(spec)
    }

    /// Parse the indented body of a component section.
    fn parse_component(&mut self, name: &str) -> Result<ComponentSpec> {
        let mut comp = ComponentSpec {
            name: name.to_string(),
            ..ComponentSpec::default()
        };
        while let Some((line_no, line)) = self.peek() {
            if indent_of(line) == 0 {
                break;
            }
            let trimmed = line.trim();
            if let Some(value) = trimmed.strip_prefix("Rep:") {
                self.bump();
                comp.rep = match value.trim() {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(BlazesError::SpecParse {
                            line: line_no,
                            message: format!("Rep expects true/false, got {other:?}"),
                        })
                    }
                };
            } else if let Some(rest) = trimmed.strip_prefix("annotation:") {
                self.bump();
                let rest = rest.trim();
                if rest.is_empty() {
                    // Block form: list items and/or named-query lines follow.
                    for (ln, map) in self.parse_list_items()? {
                        comp.annotations.push(parse_annotation_entry(ln, &map)?);
                    }
                } else {
                    // Inline form: `annotation: { ... }`.
                    let map = parse_flow_map(line_no, rest)?;
                    comp.annotations
                        .push(parse_annotation_entry(line_no, &map)?);
                }
            } else if let Some((query, rest)) = trimmed.split_once(':') {
                // Named query alternative, as in the paper's Report section:
                //   POOR: { from: request, to: response, label: OR, subscript: [id] }
                self.bump();
                let rest = rest.trim();
                if rest.is_empty() {
                    return Err(BlazesError::SpecParse {
                        line: line_no,
                        message: format!("named entry {query:?} expects an inline {{...}} map"),
                    });
                }
                let map = parse_flow_map(line_no, rest)?;
                comp.annotations
                    .push(parse_annotation_entry(line_no, &map)?);
            } else {
                return Err(BlazesError::SpecParse {
                    line: line_no,
                    message: format!("unexpected line in component section: {trimmed:?}"),
                });
            }
        }
        Ok(comp)
    }

    /// Parse consecutive `- { ... }` items (more-indented lines).
    fn parse_list_items(&mut self) -> Result<Vec<(usize, BTreeMap<String, FlowValue>)>> {
        let mut items = Vec::new();
        while let Some((line_no, line)) = self.peek() {
            let trimmed = line.trim();
            if indent_of(line) == 0 || !trimmed.starts_with('-') {
                break;
            }
            self.bump();
            let body = trimmed.trim_start_matches('-').trim();
            items.push((line_no, parse_flow_map(line_no, body)?));
        }
        Ok(items)
    }
}

fn indent_of(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// Parse an inline flow map: `{ from: tweets, to: words, label: CR,
/// subscript: [word, batch] }`.
fn parse_flow_map(line: usize, s: &str) -> Result<BTreeMap<String, FlowValue>> {
    let s = s.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| BlazesError::SpecParse {
            line,
            message: format!("expected {{...}} map, got {s:?}"),
        })?;
    let mut map = BTreeMap::new();
    for pair in split_top_level(inner) {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair.split_once(':').ok_or_else(|| BlazesError::SpecParse {
            line,
            message: format!("expected `key: value` inside map, got {pair:?}"),
        })?;
        let key = key.trim().to_string();
        let value = value.trim();
        let parsed = if let Some(list) = value.strip_prefix('[') {
            let list = list
                .strip_suffix(']')
                .ok_or_else(|| BlazesError::SpecParse {
                    line,
                    message: format!("unterminated list in {pair:?}"),
                })?;
            FlowValue::List(
                list.split(',')
                    .map(|x| x.trim().to_string())
                    .filter(|x| !x.is_empty())
                    .collect(),
            )
        } else {
            FlowValue::Scalar(value.to_string())
        };
        map.insert(key, parsed);
    }
    Ok(map)
}

/// Split on commas that are not inside brackets.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' | '{' => depth += 1,
            ']' | '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

fn parse_annotation_entry(
    line: usize,
    map: &BTreeMap<String, FlowValue>,
) -> Result<AnnotationSpec> {
    let from = get_scalar(line, map, "from")?;
    let to = get_scalar(line, map, "to")?;
    let label = get_scalar(line, map, "label")?;
    let subscript = map.get("subscript").map(FlowValue::as_list);
    let annotation = match (label.as_str(), subscript) {
        ("CR", None) => ComponentAnnotation::CR,
        ("CW", None) => ComponentAnnotation::CW,
        ("CR" | "CW", Some(_)) => {
            return Err(BlazesError::SpecParse {
                line,
                message: "confluent labels take no subscript".to_string(),
            })
        }
        ("OR", Some(s)) => ComponentAnnotation::OR(Gate::Keys(KeySet::from_attrs(s))),
        ("OW", Some(s)) => ComponentAnnotation::OW(Gate::Keys(KeySet::from_attrs(s))),
        ("OR" | "OR*", None) => ComponentAnnotation::OR(Gate::Wildcard),
        ("OW" | "OW*", None) => ComponentAnnotation::OW(Gate::Wildcard),
        (other, _) => {
            return Err(BlazesError::SpecParse {
                line,
                message: format!("unknown label {other:?} (expected CR, CW, OR, OW)"),
            })
        }
    };
    Ok(AnnotationSpec {
        from,
        to,
        annotation,
    })
}

fn parse_stream_entry(line: usize, map: &BTreeMap<String, FlowValue>) -> Result<StreamSpec> {
    Ok(StreamSpec {
        name: get_scalar(line, map, "name")?,
        attrs: map.get("attrs").map(FlowValue::as_list).unwrap_or_default(),
        seal: map.get("seal").map(FlowValue::as_list),
        rep: map
            .get("rep")
            .map(|v| v.as_scalar(line, "rep").map(|s| s == "true"))
            .transpose()?
            .unwrap_or(false),
        to: map
            .get("to")
            .map(FlowValue::as_list)
            .ok_or_else(|| BlazesError::SpecParse {
                line,
                message: "stream entry requires `to:`".to_string(),
            })?,
    })
}

fn parse_connection_entry(
    line: usize,
    map: &BTreeMap<String, FlowValue>,
) -> Result<ConnectionSpec> {
    Ok(ConnectionSpec {
        from: get_scalar(line, map, "from")?,
        to: get_scalar(line, map, "to")?,
        seal: map.get("seal").map(FlowValue::as_list),
    })
}

fn parse_sink_entry(line: usize, map: &BTreeMap<String, FlowValue>) -> Result<SinkSpec> {
    Ok(SinkSpec {
        name: get_scalar(line, map, "name")?,
        from: get_scalar(line, map, "from")?,
    })
}

fn get_scalar(line: usize, map: &BTreeMap<String, FlowValue>, key: &str) -> Result<String> {
    map.get(key)
        .ok_or_else(|| BlazesError::SpecParse {
            line,
            message: format!("missing required key {key:?}"),
        })?
        .as_scalar(line, key)
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::label::Label;

    const WORDCOUNT_SPEC: &str = r#"
# The Storm wordcount topology (paper Section VI-A1).
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
    fn parse_wordcount_spec() {
        let spec = Spec::parse(WORDCOUNT_SPEC).unwrap();
        assert_eq!(spec.components.len(), 3);
        assert_eq!(spec.components[0].name, "Splitter");
        assert_eq!(
            spec.components[1].annotations[0].annotation,
            ComponentAnnotation::ow(["word", "batch"])
        );
        assert_eq!(spec.streams.len(), 1);
        assert_eq!(spec.connections.len(), 2);
        assert_eq!(spec.sinks.len(), 1);
    }

    #[test]
    fn spec_to_graph_analyzes_like_hand_built() {
        let spec = Spec::parse(WORDCOUNT_SPEC).unwrap();
        let g = spec.to_graph("wordcount").unwrap();
        let out = Analyzer::new(&g).run().unwrap();
        let sink = g.sink_by_name("store").unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Run));
    }

    #[test]
    fn sealed_stream_in_spec() {
        let sealed = WORDCOUNT_SPEC.replace(
            "attrs: [word, batch], to:",
            "attrs: [word, batch], seal: [batch], to:",
        );
        let spec = Spec::parse(&sealed).unwrap();
        assert_eq!(spec.streams[0].seal, Some(vec!["batch".to_string()]));
        let g = spec.to_graph("wordcount").unwrap();
        let out = Analyzer::new(&g).run().unwrap();
        let sink = g.sink_by_name("store").unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
    }

    #[test]
    fn rep_flag_and_named_queries() {
        let spec = Spec::parse(
            r#"
Report:
  Rep: true
  annotation:
    - { from: click, to: response, label: CW }
  POOR: { from: request, to: response, label: OR, subscript: [id] }
  THRESH: { from: request, to: response, label: CR }
"#,
        )
        .unwrap();
        let comp = &spec.components[0];
        assert!(comp.rep);
        assert_eq!(comp.annotations.len(), 3);
        assert_eq!(
            comp.annotations[1].annotation,
            ComponentAnnotation::or(["id"])
        );
        assert_eq!(comp.annotations[2].annotation, ComponentAnnotation::CR);
    }

    #[test]
    fn wildcard_subscript() {
        let spec = Spec::parse("C:\n  annotation: { from: a, to: b, label: OW }\n").unwrap();
        assert_eq!(
            spec.components[0].annotations[0].annotation,
            ComponentAnnotation::ow_star()
        );
    }

    #[test]
    fn unknown_label_rejected() {
        let err = Spec::parse("C:\n  annotation: { from: a, to: b, label: XX }\n").unwrap_err();
        assert!(matches!(err, BlazesError::SpecParse { .. }));
    }

    #[test]
    fn subscript_on_confluent_rejected() {
        let err = Spec::parse("C:\n  annotation: { from: a, to: b, label: CR, subscript: [x] }\n")
            .unwrap_err();
        assert!(matches!(err, BlazesError::SpecParse { .. }));
    }

    #[test]
    fn missing_required_key_rejected() {
        let err = Spec::parse("C:\n  annotation: { from: a, label: CR }\n").unwrap_err();
        assert!(matches!(err, BlazesError::SpecParse { .. }));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec = Spec::parse(
            "# header\n\nC:\n  # inner comment\n  annotation: { from: a, to: b, label: CW }\n\n",
        )
        .unwrap();
        assert_eq!(spec.components.len(), 1);
    }

    #[test]
    fn split_top_level_respects_brackets() {
        let parts = split_top_level("a: [1, 2], b: c");
        assert_eq!(parts, vec!["a: [1, 2]", " b: c"]);
    }
}
