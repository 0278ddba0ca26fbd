//! Attribute key sets.
//!
//! Streams carry named attributes (e.g. a click-log stream has `id`,
//! `campaign`, `window`). Seal keys, gate subscripts and functional-dependency
//! endpoints are all *sets* of attribute names. We use a [`BTreeSet`] so key
//! sets have a canonical order, which keeps analysis output and error
//! messages deterministic.

use std::collections::BTreeSet;
use std::fmt;

/// An ordered set of attribute names.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeySet(BTreeSet<String>);

impl KeySet {
    /// The empty key set.
    #[must_use]
    pub fn new() -> Self {
        KeySet(BTreeSet::new())
    }

    /// Build a key set from anything yielding attribute names.
    pub fn from_attrs<I, S>(attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        KeySet(attrs.into_iter().map(Into::into).collect())
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, attr: &str) -> bool {
        self.0.contains(attr)
    }

    /// Insert an attribute; returns `true` if it was not already present.
    pub fn insert(&mut self, attr: impl Into<String>) -> bool {
        self.0.insert(attr.into())
    }

    /// Subset test: is every attribute of `self` in `other`?
    #[must_use]
    pub fn is_subset(&self, other: &KeySet) -> bool {
        self.0.is_subset(&other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: &KeySet) -> KeySet {
        KeySet(self.0.intersection(&other.0).cloned().collect())
    }

    /// Iterate attributes in canonical (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(String::as_str)
    }

    /// Apply an attribute renaming. Returns `None` if any attribute has no
    /// image under `map` — the key set does not survive the projection, which
    /// for seal propagation means the seal must be dropped.
    #[must_use]
    pub fn rename(&self, map: &std::collections::BTreeMap<String, String>) -> Option<KeySet> {
        let mut out = BTreeSet::new();
        for attr in &self.0 {
            out.insert(map.get(attr)?.clone());
        }
        Some(KeySet(out))
    }
}

impl fmt::Display for KeySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for attr in &self.0 {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{attr}")?;
            first = false;
        }
        Ok(())
    }
}

impl<S: Into<String>> FromIterator<S> for KeySet {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        KeySet::from_attrs(iter)
    }
}

impl<'a> IntoIterator for &'a KeySet {
    type Item = &'a String;
    type IntoIter = std::collections::btree_set::Iter<'a, String>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn canonical_display_order() {
        let k = KeySet::from_attrs(["window", "id"]);
        assert_eq!(k.to_string(), "id,window");
    }

    #[test]
    fn duplicates_collapse() {
        let k = KeySet::from_attrs(["id", "id", "id"]);
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn subset_and_intersection() {
        let a = KeySet::from_attrs(["id"]);
        let b = KeySet::from_attrs(["id", "window"]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert_eq!(a.intersection(&b), a);
    }

    #[test]
    fn rename_total_mapping() {
        let k = KeySet::from_attrs(["id", "window"]);
        let mut map = BTreeMap::new();
        map.insert("id".to_string(), "ad_id".to_string());
        map.insert("window".to_string(), "hour".to_string());
        assert_eq!(k.rename(&map), Some(KeySet::from_attrs(["ad_id", "hour"])));
    }

    #[test]
    fn rename_partial_mapping_drops() {
        let k = KeySet::from_attrs(["id", "window"]);
        let mut map = BTreeMap::new();
        map.insert("id".to_string(), "ad_id".to_string());
        assert_eq!(k.rename(&map), None);
    }

    #[test]
    fn empty_keyset_is_subset_of_all() {
        let e = KeySet::new();
        assert!(e.is_empty());
        assert!(e.is_subset(&KeySet::from_attrs(["x"])));
    }
}
