//! Messages exchanged between component instances.
//!
//! Besides data tuples, streams may carry *punctuations* ([`Message::Seal`])
//! promising that no further records will arrive for a partition (paper
//! Section II-A), and end-of-stream markers used by finite runs.

use crate::value::{Tuple, Value};
use std::fmt;

/// The key of a sealed partition: attribute names with the partition's
/// values, e.g. `campaign = "shoes"`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SealKey {
    /// `(attribute, value)` pairs identifying the partition, sorted by
    /// attribute name.
    pub parts: Vec<(String, Value)>,
}

impl SealKey {
    /// Build a seal key from attribute/value pairs.
    pub fn new<I, S, V>(parts: I) -> SealKey
    where
        I: IntoIterator<Item = (S, V)>,
        S: Into<String>,
        V: Into<Value>,
    {
        let mut parts: Vec<(String, Value)> = parts
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect();
        parts.sort();
        SealKey { parts }
    }

    /// The sealed attribute names, in sorted order.
    pub fn attrs(&self) -> impl Iterator<Item = &str> {
        self.parts.iter().map(|(k, _)| k.as_str())
    }

    /// The value sealed for `attr`, if present.
    #[must_use]
    pub fn value_of(&self, attr: &str) -> Option<&Value> {
        self.parts.iter().find(|(k, _)| k == attr).map(|(_, v)| v)
    }
}

impl fmt::Display for SealKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seal{{")?;
        for (i, (k, v)) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// A message on a stream instance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Message {
    /// A data tuple.
    Data(Tuple),
    /// A punctuation: the producer will emit no more records matching `key`.
    Seal(SealKey),
    /// The producer will emit nothing further at all (finite runs).
    Eos,
}

impl Message {
    /// Build a data message.
    pub fn data<I, V>(values: I) -> Message
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Message::Data(Tuple::new(values))
    }

    /// The tuple payload, if this is a data message.
    #[must_use]
    pub fn as_data(&self) -> Option<&Tuple> {
        match self {
            Message::Data(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Data(t) => write!(f, "{t}"),
            Message::Seal(k) => write!(f, "{k}"),
            Message::Eos => write!(f, "eos"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_key_sorted_and_queryable() {
        let k = SealKey::new([("window", Value::Int(3)), ("campaign", Value::str("shoes"))]);
        let attrs: Vec<_> = k.attrs().collect();
        assert_eq!(attrs, vec!["campaign", "window"]);
        assert_eq!(k.value_of("campaign"), Some(&Value::str("shoes")));
        assert_eq!(k.value_of("missing"), None);
    }

    #[test]
    fn seal_keys_equal_regardless_of_insertion_order() {
        let a = SealKey::new([("a", 1i64), ("b", 2i64)]);
        let b = SealKey::new([("b", 2i64), ("a", 1i64)]);
        assert_eq!(a, b);
    }

    #[test]
    fn message_kinds() {
        let d = Message::data([1i64, 2]);
        assert_eq!(d.as_data().unwrap().arity(), 2);
        assert!(Message::Eos.as_data().is_none());
        assert!(Message::Seal(SealKey::new([("k", 1i64)]))
            .as_data()
            .is_none());
    }

    #[test]
    fn display_forms() {
        let k = SealKey::new([("campaign", Value::str("shoes"))]);
        assert_eq!(k.to_string(), "seal{campaign=shoes}");
        assert_eq!(Message::Eos.to_string(), "eos");
    }
}
