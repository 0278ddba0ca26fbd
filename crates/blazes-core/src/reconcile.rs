//! The reconciliation procedure — the paper's Fig. 10.
//!
//! After inference, each output interface carries a list `Labels` of derived
//! stream labels (one per path × inbound stream). Reconciliation resolves
//! the internal labels:
//!
//! ```text
//! Taint ∈ Labels
//! ----------------------------
//! Rep ? Diverge : Run
//!
//! ∃gate. NDRead_gate ∈ Labels   ¬protected(NDRead_gate)
//! -----------------------------------------------------
//! Rep ? Inst : Run
//! ```
//!
//! where
//!
//! ```text
//! protected(NDRead_gate) ≡ ∀l ∈ Labels. l = NDRead_gate ∨
//!                          ∃key. l = Seal_key ∧ compatible(gate, key)
//! ```
//!
//! Finally the labels are merged: internal labels are stripped (a *protected*
//! `NDRead` contributes the deterministic default `Async`) and the label of
//! highest severity remains.

use crate::keys::KeySet;
use crate::label::Label;

/// One inference result feeding reconciliation: the derived label plus the
/// seal key of the path's *input* stream (if it was sealed).
///
/// Protection is checked against input seals: a rendezvous path whose input
/// stream is sealed protects reads even when the seal key does not survive
/// the path's projection (the consumer delays reads per *input* partition,
/// regardless of what the path emits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derived {
    /// The label derived by inference.
    pub label: Label,
    /// The input stream's seal key, when the input was `Seal_key`.
    pub input_seal: Option<KeySet>,
}

impl From<Label> for Derived {
    fn from(label: Label) -> Self {
        let input_seal = match &label {
            Label::Seal(k) => Some(k.clone()),
            _ => None,
        };
        Derived { label, input_seal }
    }
}

/// The outcome of reconciling one output interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reconciliation {
    /// The labels derived by inference for this interface.
    pub derived: Vec<Label>,
    /// Labels added by the Fig. 10 rules.
    pub added: Vec<Label>,
    /// Which `NDRead` labels were protected by compatible seals.
    pub protected: Vec<Label>,
    /// The final merged label for the interface.
    pub merged: Label,
}

/// Is the given `NDRead_gate` protected within `entries`?
///
/// Every sibling entry must be the same `NDRead` or carry a seal (on its
/// input stream, or as its derived label) compatible with the gate.
/// (Vacuously true when the `NDRead` is the only entry: an order-sensitive
/// read path with no other inputs reads state no other stream perturbs.)
#[must_use]
pub fn protected(nd_read: &Label, entries: &[Derived]) -> bool {
    let Label::NDRead(gate) = nd_read else {
        return false;
    };
    entries.iter().all(|e| {
        if e.label == *nd_read {
            return true;
        }
        let seal = match (&e.input_seal, &e.label) {
            (Some(k), _) => Some(k),
            (None, Label::Seal(k)) => Some(k),
            _ => None,
        };
        seal.is_some_and(|k| gate.admits(k))
    })
}

/// Apply the Fig. 10 reconciliation rules and merge, returning the final
/// label for an output interface whose inference produced `entries`.
///
/// `rep` is the component's replication flag (`Rep: true`).
#[must_use]
pub fn reconcile(entries: Vec<Derived>, rep: bool) -> Reconciliation {
    let derived: Vec<Label> = entries.iter().map(|e| e.label.clone()).collect();
    let mut added = Vec::new();
    let mut protected_labels = Vec::new();

    // Rule: Taint ∈ Labels ⇒ Rep ? Diverge : Run.
    if derived.contains(&Label::Taint) {
        added.push(if rep { Label::Diverge } else { Label::Run });
    }

    // Rule: an unprotected NDRead ⇒ Rep ? Inst : Run.
    let mut seen_nd: Vec<&Label> = Vec::new();
    for l in derived.iter().filter(|l| matches!(l, Label::NDRead(_))) {
        if seen_nd.contains(&l) {
            continue;
        }
        seen_nd.push(l);
        if protected(l, &entries) {
            protected_labels.push(l.clone());
        } else {
            let escalation = if rep { Label::Inst } else { Label::Run };
            if !added.contains(&escalation) {
                added.push(escalation);
            }
        }
    }

    // Merge: strip internal labels; protected NDReads contribute Async
    // (deterministic contents, unordered); return the most severe survivor.
    // An interface with no surviving labels defaults to the conservative
    // Async (the caller records a warning if it was never fed at all).
    let mut merged: Option<Label> = None;
    for l in derived.iter().chain(added.iter()) {
        if l.is_internal() {
            continue;
        }
        merged = Some(match merged {
            None => l.clone(),
            Some(cur) => cur.join(l.clone()),
        });
    }
    if !protected_labels.is_empty() {
        merged = Some(match merged {
            None => Label::Async,
            Some(cur) => cur.join(Label::Async),
        });
    }
    let merged = merged.unwrap_or(Label::Async);

    Reconciliation {
        derived,
        added,
        protected: protected_labels,
        merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Gate;
    use crate::keys::KeySet;

    fn nd(gate: &[&str]) -> Label {
        Label::NDRead(Gate::Keys(KeySet::from_attrs(gate.iter().copied())))
    }

    /// Test helper: reconcile plain labels (input seals inferred from
    /// `Seal` labels via the `From` impl).
    fn rec(labels: Vec<Label>, rep: bool) -> Reconciliation {
        reconcile(labels.into_iter().map(Derived::from).collect(), rep)
    }

    #[test]
    fn taint_escalates_to_run_without_rep() {
        let r = rec(vec![Label::Taint, Label::Async], false);
        assert_eq!(r.added, vec![Label::Run]);
        assert_eq!(r.merged, Label::Run);
    }

    #[test]
    fn taint_escalates_to_diverge_with_rep() {
        let r = rec(vec![Label::Taint, Label::Async], true);
        assert_eq!(r.added, vec![Label::Diverge]);
        assert_eq!(r.merged, Label::Diverge);
    }

    #[test]
    fn unprotected_ndread_escalates_to_inst_with_rep() {
        // POOR at the replicated Report: {Async (click path), NDRead_id}.
        let r = rec(vec![Label::Async, nd(&["id"])], true);
        assert_eq!(r.added, vec![Label::Inst]);
        assert_eq!(r.merged, Label::Inst);
    }

    #[test]
    fn unprotected_ndread_escalates_to_run_without_rep() {
        let r = rec(vec![Label::Async, nd(&["id"])], false);
        assert_eq!(r.added, vec![Label::Run]);
        assert_eq!(r.merged, Label::Run);
    }

    #[test]
    fn protected_ndread_merges_to_async() {
        // CAMPAIGN at Report: {Seal_campaign (click path), NDRead_{campaign,id}}.
        let labels = vec![Label::seal(["campaign"]), nd(&["campaign", "id"])];
        let r = rec(labels, true);
        assert!(r.added.is_empty());
        assert_eq!(r.protected.len(), 1);
        // Merge: max severity of {Seal(1)} plus protected-NDRead's Async(2).
        assert_eq!(r.merged, Label::Async);
    }

    #[test]
    fn lone_ndread_is_vacuously_protected() {
        let r = rec(vec![nd(&["id"])], true);
        assert!(r.added.is_empty());
        assert_eq!(r.merged, Label::Async);
    }

    #[test]
    fn incompatible_seal_does_not_protect() {
        // Seal on campaign cannot protect NDRead over {id} (POOR).
        let labels = vec![Label::seal(["campaign"]), nd(&["id"])];
        let r = rec(labels, true);
        assert_eq!(r.added, vec![Label::Inst]);
        assert_eq!(r.merged, Label::Inst);
    }

    #[test]
    fn two_distinct_ndreads_do_not_protect_each_other() {
        let labels = vec![nd(&["a"]), nd(&["b"])];
        let r = rec(labels, false);
        assert_eq!(r.added, vec![Label::Run]);
        assert_eq!(r.merged, Label::Run);
    }

    #[test]
    fn identical_ndreads_protect_each_other() {
        let labels = vec![nd(&["a"]), nd(&["a"])];
        let r = rec(labels, false);
        assert!(r.added.is_empty());
        assert_eq!(r.merged, Label::Async);
    }

    #[test]
    fn seal_only_interface_keeps_seal_label() {
        let r = rec(vec![Label::seal(["batch"])], false);
        assert_eq!(r.merged, Label::seal(["batch"]));
    }

    #[test]
    fn mixed_seal_and_async_merges_to_async() {
        let r = rec(vec![Label::seal(["batch"]), Label::Async], false);
        assert_eq!(r.merged, Label::Async);
    }

    #[test]
    fn taint_and_protected_ndread_together() {
        // Taint dominates: even a protected read cannot save tainted state.
        let labels = vec![Label::Taint, Label::seal(["k"]), nd(&["k"])];
        let r = rec(labels, true);
        assert!(r.added.contains(&Label::Diverge));
        assert_eq!(r.merged, Label::Diverge);
    }

    #[test]
    fn empty_labels_default_async() {
        let r = rec(vec![], false);
        assert_eq!(r.merged, Label::Async);
    }

    #[test]
    fn diverge_input_dominates_merge() {
        let r = rec(vec![Label::Diverge, Label::Async], false);
        assert_eq!(r.merged, Label::Diverge);
    }
}
