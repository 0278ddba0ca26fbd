//! Component and stream annotations — the paper's Section IV-A.
//!
//! A *component annotation* describes one path from an input interface to an
//! output interface using the C.O.W.R. taxonomy of Fig. 7: the path is either
//! **C**onfluent or **O**rder-sensitive, and either a **W**rite path (its
//! inputs modify component state) or a **R**ead-only path.
//!
//! Order-sensitive annotations carry a *gate*: the set of attributes that
//! partitions the inputs the non-confluent logic ranges over. A stream sealed
//! on a key compatible with the gate lets Blazes replace global ordering with
//! per-partition sealing.
//!
//! Compatibility is the paper's `compatible(partition, seal)` (Section V-A1):
//! some attributes of the partition are an injective function of the seal
//! key. With identity as the only injective function this is a subset test:
//! [`Gate::admits`] holds when the seal key lies inside the gate. Renames,
//! the one other injective function an annotation can express, never reach
//! the test: a path's attribute lineage renames the seal key before the next
//! component sees it ([`crate::graph::PathSpec::map_seal_key`]).
//!
//! A *stream annotation* describes an input stream: `Seal_key` promises
//! punctuations on `key`, and `Rep` marks a replicated stream.

use crate::keys::KeySet;
use crate::severity::Severity;
use std::fmt;

/// The partition subscript of an order-sensitive annotation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Gate {
    /// `OR_gate` / `OW_gate` with an explicit attribute set.
    Keys(KeySet),
    /// `OR_*` / `OW_*`: "each record belongs to a different partition" — the
    /// finest partitioning (the full record), which any seal on the stream's
    /// own attributes refines (paper Section IV-A1).
    Wildcard,
}

impl Gate {
    /// Build a gate from attribute names.
    pub fn keys<I, S>(attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Gate::Keys(KeySet::from_attrs(attrs))
    }

    /// The explicit attribute set, if any.
    #[must_use]
    pub fn as_keys(&self) -> Option<&KeySet> {
        match self {
            Gate::Keys(k) => Some(k),
            Gate::Wildcard => None,
        }
    }

    /// The paper's `compatible(partition, seal)`: does a stream sealed on
    /// `seal` close whole partitions of this gate? It does when the seal key
    /// is a non-empty subset of the gate; a seal that also carries
    /// attributes outside the gate never completes one gate partition. A
    /// [`Gate::Wildcard`] (every record its own partition) admits any
    /// non-empty seal.
    #[must_use]
    pub fn admits(&self, seal: &KeySet) -> bool {
        !seal.is_empty()
            && match self {
                Gate::Wildcard => true,
                Gate::Keys(partition) => seal.is_subset(partition),
            }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Keys(k) => write!(f, "{k}"),
            Gate::Wildcard => write!(f, "*"),
        }
    }
}

/// A C.O.W.R. component-path annotation (paper Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ComponentAnnotation {
    /// Confluent, read-only (severity 1). Example: the wordcount `Splitter`.
    CR,
    /// Confluent, stateful write path (severity 2). Example: an append-only
    /// log or the wordcount `Commit` store.
    CW,
    /// Order-sensitive, read-only, over partitions `gate` (severity 3).
    /// Example: the `WINDOW` query path, `OR_{id,window}`.
    OR(Gate),
    /// Order-sensitive write path over partitions `gate` (severity 4).
    /// Example: the wordcount `Count`, `OW_{word,batch}`.
    OW(Gate),
}

impl ComponentAnnotation {
    /// Confluent read-only path.
    #[must_use]
    pub fn cr() -> Self {
        ComponentAnnotation::CR
    }

    /// Confluent write path.
    #[must_use]
    pub fn cw() -> Self {
        ComponentAnnotation::CW
    }

    /// Order-sensitive read path with an explicit gate.
    pub fn or<I, S>(gate: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ComponentAnnotation::OR(Gate::keys(gate))
    }

    /// Order-sensitive write path with an explicit gate.
    pub fn ow<I, S>(gate: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ComponentAnnotation::OW(Gate::keys(gate))
    }

    /// `OW_*`: order-sensitive write path, unknown partitions.
    #[must_use]
    pub fn ow_star() -> Self {
        ComponentAnnotation::OW(Gate::Wildcard)
    }

    /// Is the path confluent (produces the same output *set* for every input
    /// order)?
    #[must_use]
    pub fn is_confluent(&self) -> bool {
        matches!(self, ComponentAnnotation::CR | ComponentAnnotation::CW)
    }

    /// Does the path modify component state?
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self, ComponentAnnotation::CW | ComponentAnnotation::OW(_))
    }

    /// The gate of an order-sensitive annotation.
    #[must_use]
    pub fn gate(&self) -> Option<&Gate> {
        match self {
            ComponentAnnotation::OR(g) | ComponentAnnotation::OW(g) => Some(g),
            _ => None,
        }
    }

    /// Severity per the paper's Fig. 7 (1 = CR … 4 = OW). Used when
    /// collapsing cycles: the collapsed node takes the member annotation of
    /// highest severity.
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self {
            ComponentAnnotation::CR => Severity(1),
            ComponentAnnotation::CW => Severity(2),
            ComponentAnnotation::OR(_) => Severity(3),
            ComponentAnnotation::OW(_) => Severity(4),
        }
    }
}

impl fmt::Display for ComponentAnnotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentAnnotation::CR => write!(f, "CR"),
            ComponentAnnotation::CW => write!(f, "CW"),
            ComponentAnnotation::OR(g) => write!(f, "OR_{{{g}}}"),
            ComponentAnnotation::OW(g) => write!(f, "OW_{{{g}}}"),
        }
    }
}

/// Annotations attached to a stream (paper Section IV-A2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamAnnotation {
    /// `Seal_key`: the stream is punctuated on `key`, with at least one
    /// punctuation covering every record.
    pub seal: Option<KeySet>,
    /// `Rep`: the stream is replicated — the same contents are delivered to
    /// more than one consumer instance.
    pub rep: bool,
}

impl StreamAnnotation {
    /// No annotations: an ordinary asynchronous stream.
    #[must_use]
    pub fn none() -> Self {
        StreamAnnotation::default()
    }
}

impl fmt::Display for StreamAnnotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.seal, self.rep) {
            (Some(k), true) => write!(f, "Seal_{{{k}}},Rep"),
            (Some(k), false) => write!(f, "Seal_{{{k}}}"),
            (None, true) => write!(f, "Rep"),
            (None, false) => write!(f, "-"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks<const N: usize>(attrs: [&str; N]) -> KeySet {
        KeySet::from_attrs(attrs)
    }

    #[test]
    fn cowr_severity_ordering() {
        // Fig. 7: CR < CW < OR < OW.
        assert!(ComponentAnnotation::cr().severity() < ComponentAnnotation::cw().severity());
        assert!(ComponentAnnotation::cw().severity() < ComponentAnnotation::or(["x"]).severity());
        assert!(
            ComponentAnnotation::or(["x"]).severity() < ComponentAnnotation::ow(["x"]).severity()
        );
    }

    #[test]
    fn confluence_and_statefulness() {
        assert!(ComponentAnnotation::cr().is_confluent());
        assert!(ComponentAnnotation::cw().is_confluent());
        assert!(!ComponentAnnotation::or(["a"]).is_confluent());
        assert!(!ComponentAnnotation::ow_star().is_confluent());

        assert!(!ComponentAnnotation::cr().is_write());
        assert!(ComponentAnnotation::cw().is_write());
        assert!(!ComponentAnnotation::or(["a"]).is_write());
        assert!(ComponentAnnotation::ow(["a"]).is_write());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ComponentAnnotation::cr().to_string(), "CR");
        assert_eq!(
            ComponentAnnotation::ow(["word", "batch"]).to_string(),
            "OW_{batch,word}"
        );
        assert_eq!(
            ComponentAnnotation::OR(Gate::Wildcard).to_string(),
            "OR_{*}"
        );
    }

    #[test]
    fn stream_annotation_display() {
        assert_eq!(StreamAnnotation::none().to_string(), "-");
        let sealed = StreamAnnotation {
            seal: Some(ks(["campaign"])),
            rep: false,
        };
        assert_eq!(sealed.to_string(), "Seal_{campaign}");
        let replicated = StreamAnnotation {
            rep: true,
            ..sealed
        };
        assert_eq!(replicated.to_string(), "Seal_{campaign},Rep");
    }

    #[test]
    fn identity_seal_is_admitted() {
        assert!(Gate::keys(["a"]).admits(&ks(["a"])));
        assert!(Gate::keys(["a", "b"]).admits(&ks(["a", "b"])));
        assert!(!Gate::keys(["b"]).admits(&ks(["a"])));
    }

    #[test]
    fn window_query_compatibility() {
        // Paper Section IV-A1: WINDOW is OR_{id,window}; a stream sealed on
        // `id` or on `window` is compatible.
        let gate = Gate::keys(["id", "window"]);
        assert!(gate.admits(&ks(["window"])));
        assert!(gate.admits(&ks(["id"])));
        assert!(gate.admits(&ks(["id", "window"])));
        // Sealing on an unrelated attribute is not compatible.
        assert!(!gate.admits(&ks(["campaign"])));
    }

    #[test]
    fn campaign_query_compatibility() {
        // Seal_{campaign} is compatible only with CAMPAIGN (gate contains
        // `campaign`), not with POOR (gate = {id}) — Section V-A1.
        let seal = ks(["campaign"]);
        assert!(Gate::keys(["campaign", "id"]).admits(&seal));
        assert!(!Gate::keys(["id"]).admits(&seal));
    }

    #[test]
    fn composite_seal_not_projected() {
        // Seal on {campaign,id} must NOT be compatible with gate {campaign}:
        // the projection (campaign,id) -> campaign is not injective, so a
        // campaign partition is never known complete from composite seals.
        assert!(!Gate::keys(["campaign"]).admits(&ks(["campaign", "id"])));
    }

    #[test]
    fn wildcard_gate_is_finest_partitioning() {
        assert!(Gate::Wildcard.admits(&ks(["anything"])));
        assert!(!Gate::Wildcard.admits(&KeySet::new()));
    }

    #[test]
    fn empty_gate_or_seal_never_compatible() {
        assert!(!Gate::Keys(KeySet::new()).admits(&ks(["k"])));
        assert!(!Gate::keys(["g"]).admits(&KeySet::new()));
    }

    #[test]
    fn gate_accessors() {
        let g = Gate::keys(["id", "window"]);
        assert_eq!(g.as_keys().unwrap().len(), 2);
        assert!(Gate::Wildcard.as_keys().is_none());
        let ann = ComponentAnnotation::ow(["id"]);
        assert!(ann.gate().is_some());
        assert!(ComponentAnnotation::cw().gate().is_none());
    }
}
