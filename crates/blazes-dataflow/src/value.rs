//! Values and tuples flowing through simulated streams.
//!
//! The runtime is schema-light: a [`Tuple`] is a positional vector of
//! [`Value`]s; components that need named access keep their own schema
//! (attribute name → position) as configuration.

use std::fmt;

/// A single attribute value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The integer payload, if this is an `Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A positional record.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// Build a tuple from anything convertible to values.
    pub fn new<I, V>(values: I) -> Tuple
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Tuple(values.into_iter().map(Into::into).collect())
    }

    /// Number of fields.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field at position `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Project positions into a new tuple.
    #[must_use]
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(
            positions
                .iter()
                .filter_map(|&i| self.0.get(i).cloned())
                .collect(),
        )
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<V: Into<Value>> FromIterator<V> for Tuple {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        Tuple::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::str("a").as_str(), Some("a"));
        assert_eq!(Value::Int(7).as_str(), None);
    }

    #[test]
    fn tuple_project() {
        let t = Tuple::new([Value::Int(1), Value::str("a"), Value::Int(3)]);
        assert_eq!(t.arity(), 3);
        assert_eq!(
            t.project(&[2, 0]),
            Tuple::new([Value::Int(3), Value::Int(1)])
        );
        // Out-of-range positions are dropped.
        assert_eq!(t.project(&[9]).arity(), 0);
    }

    #[test]
    fn display_forms() {
        let t = Tuple::new([Value::str("ad1"), Value::Int(42)]);
        assert_eq!(t.to_string(), "(ad1, 42)");
    }

    #[test]
    fn tuples_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(Tuple::new([1i64, 2]));
        s.insert(Tuple::new([1i64, 2]));
        s.insert(Tuple::new([2i64, 1]));
        assert_eq!(s.len(), 2);
    }
}
