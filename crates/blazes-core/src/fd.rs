//! Injective functional dependencies and the `compatible` predicate
//! (paper Section V-A1).
//!
//! Sealing is only sound when the sealed partitions of an input stream are
//! respected by the component's own partitioning (its *gate*). The paper
//! formalizes this with injective functional dependencies:
//!
//! > `injectivefd(A, B)` holds for attribute sets `A` and `B` if `A ↦ B` via
//! > some injective (distinctness-preserving) function.
//!
//! and defines
//!
//! > `compatible(partition, seal) ≡ ∃ attr ⊆ partition | injectivefd(seal, attr)`
//!
//! Identity is the ubiquitous injective function: projecting an attribute
//! without transformation preserves sealing, and compositions of injective
//! functions remain injective. [`FdStore`] keeps a set of declared injective
//! FDs, closes them under composition (a bounded chase in the spirit of
//! Maier–Mendelzon–Sagiv), and answers `injectivefd` / `compatible` queries.

use crate::annotation::Gate;
use crate::keys::KeySet;
use std::collections::BTreeSet;

/// One declared injective functional dependency `lhs ↦ rhs`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InjectiveFd {
    /// Determinant attribute set.
    pub lhs: KeySet,
    /// Determined attribute set (injectively).
    pub rhs: KeySet,
}

/// A store of injective functional dependencies, closed under composition.
///
/// The identity dependency `A ↦ A` is implicit for every attribute set `A`
/// and never needs declaring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FdStore {
    fds: BTreeSet<InjectiveFd>,
}

impl FdStore {
    /// An empty store: only identity dependencies hold.
    #[must_use]
    pub fn new() -> Self {
        FdStore::default()
    }

    /// Declare `lhs ↦ rhs` via an injective function (e.g. company name ↦
    /// stock symbol in the paper's example). Returns `&mut self` for
    /// chaining.
    pub fn declare<I, J, S, T>(&mut self, lhs: I, rhs: J) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        J: IntoIterator<Item = T>,
        S: Into<String>,
        T: Into<String>,
    {
        self.fds.insert(InjectiveFd {
            lhs: KeySet::from_attrs(lhs),
            rhs: KeySet::from_attrs(rhs),
        });
        self.close();
        self
    }

    /// Number of stored (explicit) dependencies after closure.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Whether no explicit dependencies are declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Iterate the stored dependencies.
    pub fn iter(&self) -> impl Iterator<Item = &InjectiveFd> {
        self.fds.iter()
    }

    /// Close the store under composition: if `A ↦ B` and `B ↦ C` then
    /// `A ↦ C` (injective ∘ injective = injective). Terminates because the
    /// candidate set is finite (pairs of declared endpoint sets).
    fn close(&mut self) {
        loop {
            let mut added = Vec::new();
            for a in &self.fds {
                for b in &self.fds {
                    if a.rhs == b.lhs {
                        let composed = InjectiveFd {
                            lhs: a.lhs.clone(),
                            rhs: b.rhs.clone(),
                        };
                        if !self.fds.contains(&composed) {
                            added.push(composed);
                        }
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            self.fds.extend(added);
        }
    }

    /// Does `lhs ↦ rhs` hold via an injective function?
    ///
    /// Sound but deliberately incomplete (like the paper's Section VII-B2):
    /// we recognize the identity (`rhs == lhs`), declared dependencies, and
    /// their compositions — not arbitrary implied dependencies.
    #[must_use]
    fn injectivefd(&self, lhs: &KeySet, rhs: &KeySet) -> bool {
        if rhs == lhs {
            return true; // identity function
        }
        self.fds.iter().any(|fd| &fd.lhs == lhs && &fd.rhs == rhs)
    }

    /// The paper's `compatible(partition, seal)` predicate: does some subset
    /// of the gate's attributes get injectively determined by the seal key?
    ///
    /// A [`Gate::Wildcard`] treats every record as its own partition (the
    /// finest partitioning), which every seal on the stream's own attributes
    /// refines, so it is compatible with any non-empty seal key.
    #[must_use]
    pub fn compatible(&self, gate: &Gate, seal: &KeySet) -> bool {
        if seal.is_empty() {
            return false;
        }
        match gate {
            Gate::Wildcard => true,
            Gate::Keys(partition) => {
                if partition.is_empty() {
                    return false;
                }
                // Identity on a subset: the seal key itself appears within
                // the partition attributes.
                if seal.is_subset(partition) {
                    return true;
                }
                // A single gate attribute injectively determined by the seal.
                if partition
                    .iter()
                    .any(|attr| self.injectivefd(seal, &KeySet::single(attr)))
                {
                    return true;
                }
                // A declared dependency whose image lands inside the gate.
                self.fds
                    .iter()
                    .any(|fd| &fd.lhs == seal && !fd.rhs.is_empty() && fd.rhs.is_subset(partition))
            }
        }
    }
}

/// Standalone convenience wrapper over [`FdStore::compatible`] matching the
/// paper's free-function notation.
#[must_use]
pub fn compatible(store: &FdStore, gate: &Gate, seal: &KeySet) -> bool {
    store.compatible(gate, seal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks<const N: usize>(attrs: [&str; N]) -> KeySet {
        KeySet::from_attrs(attrs)
    }

    #[test]
    fn identity_is_injective() {
        let store = FdStore::new();
        assert!(store.injectivefd(&ks(["a"]), &ks(["a"])));
        assert!(store.injectivefd(&ks(["a", "b"]), &ks(["a", "b"])));
        assert!(!store.injectivefd(&ks(["a"]), &ks(["b"])));
    }

    #[test]
    fn declared_fd_holds() {
        let mut store = FdStore::new();
        store.declare(["company"], ["symbol"]);
        assert!(store.injectivefd(&ks(["company"]), &ks(["symbol"])));
        // Not symmetric unless declared.
        assert!(!store.injectivefd(&ks(["symbol"]), &ks(["company"])));
    }

    #[test]
    fn composition_closure() {
        let mut store = FdStore::new();
        store.declare(["a"], ["b"]);
        store.declare(["b"], ["c"]);
        assert!(store.injectivefd(&ks(["a"]), &ks(["c"])));
        // Three-step chains close too.
        store.declare(["c"], ["d"]);
        assert!(store.injectivefd(&ks(["a"]), &ks(["d"])));
    }

    #[test]
    fn window_query_compatibility() {
        // Paper Section IV-A1: WINDOW is OR_{id,window}; a stream sealed on
        // `id` or on `window` is compatible.
        let store = FdStore::new();
        let gate = Gate::keys(["id", "window"]);
        assert!(store.compatible(&gate, &ks(["window"])));
        assert!(store.compatible(&gate, &ks(["id"])));
        assert!(store.compatible(&gate, &ks(["id", "window"])));
        // Sealing on an unrelated attribute is not compatible.
        assert!(!store.compatible(&gate, &ks(["campaign"])));
    }

    #[test]
    fn campaign_query_compatibility() {
        // Seal_{campaign} is compatible only with CAMPAIGN (gate contains
        // `campaign`), not with POOR (gate = {id}) — Section V-A1.
        let store = FdStore::new();
        let campaign_gate = Gate::keys(["campaign", "id"]);
        let poor_gate = Gate::keys(["id"]);
        let seal = ks(["campaign"]);
        assert!(store.compatible(&campaign_gate, &seal));
        assert!(!store.compatible(&poor_gate, &seal));
    }

    #[test]
    fn composite_seal_not_projected() {
        // Seal on {campaign,id} must NOT be compatible with gate {campaign}:
        // the projection (campaign,id) -> campaign is not injective, so a
        // campaign partition is never known complete from composite seals.
        let store = FdStore::new();
        let gate = Gate::keys(["campaign"]);
        assert!(!store.compatible(&gate, &ks(["campaign", "id"])));
    }

    #[test]
    fn declared_fd_enables_compatibility() {
        // Company name sealed; component partitioned by stock symbol.
        let mut store = FdStore::new();
        store.declare(["company"], ["symbol"]);
        let gate = Gate::keys(["symbol"]);
        assert!(store.compatible(&gate, &ks(["company"])));
        // But not by headquarters city (not injective, never declared).
        let city_gate = Gate::keys(["city"]);
        assert!(!store.compatible(&city_gate, &ks(["company"])));
    }

    #[test]
    fn wildcard_gate_is_finest_partitioning() {
        let store = FdStore::new();
        assert!(store.compatible(&Gate::Wildcard, &ks(["anything"])));
        assert!(!store.compatible(&Gate::Wildcard, &KeySet::new()));
    }

    #[test]
    fn empty_gate_or_seal_never_compatible() {
        let store = FdStore::new();
        assert!(!store.compatible(&Gate::Keys(KeySet::new()), &ks(["k"])));
        assert!(!store.compatible(&Gate::keys(["g"]), &KeySet::new()));
    }
}
