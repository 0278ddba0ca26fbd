//! The inference (reduction) rules for component paths — the paper's Fig. 9.
//!
//! Each rule takes an input stream label and a component-path annotation and
//! produces a derived stream label for the path. In the paper's notation:
//!
//! ```text
//! {Async, Run}  OR_gate            {Async, Run}  OW_gate
//! ------------------------- (1)    ------------------------- (2)
//!       NDRead_gate                        Taint
//!
//! Inst  {CW, OW_gate}              Seal_key  OW_gate  ¬compatible(gate,key)
//! ------------------------- (3)    ------------------------------------- (4)
//!       Taint                              Taint
//! ```
//!
//! When no rule applies, the default rule `(p)` preserves the input label
//! (chasing seal keys through the path's injective attribute lineage). A
//! *compatible* seal flowing into an order-sensitive path is consumed: the
//! component can process each sealed partition once its contents are known,
//! yielding deterministic-but-unordered output — label `Async`.

use crate::annotation::ComponentAnnotation;
use crate::graph::PathSpec;
use crate::label::Label;
use std::fmt;

/// Which rule produced a derived label — used to render the derivation trees
/// of the paper's Section V-A4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Fig. 9 rule 1: unordered input into an order-sensitive read path.
    R1,
    /// Fig. 9 rule 2: unordered input into an order-sensitive write path.
    R2,
    /// Fig. 9 rule 3: cross-instance-nondeterministic input into a stateful
    /// path.
    R3,
    /// Fig. 9 rule 4: an incompatibly sealed input into an order-sensitive
    /// write path.
    R4,
    /// A compatible seal consumed by an order-sensitive path: the partition
    /// barrier makes the output deterministic (but unordered).
    SealConsume,
    /// A seal that could not be chased through the path's attribute lineage
    /// (some key attribute is projected away): downgraded to `Async`.
    SealDropped,
    /// The default preservation rule `(p)`.
    Preserve,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::R1 => write!(f, "(1)"),
            Rule::R2 => write!(f, "(2)"),
            Rule::R3 => write!(f, "(3)"),
            Rule::R4 => write!(f, "(4)"),
            Rule::SealConsume => write!(f, "(s)"),
            Rule::SealDropped => write!(f, "(d)"),
            Rule::Preserve => write!(f, "(p)"),
        }
    }
}

/// Apply the Fig. 9 rules to one `(input label, path)` pair, returning the
/// derived label and the rule that fired.
///
/// Exactly one rule applies to any pair; the internal labels `NDRead` and
/// `Taint` never appear as *input* labels because they are stripped before a
/// stream label is published (see [`crate::reconcile`]).
#[must_use]
pub fn infer_path(input: &Label, path: &PathSpec) -> (Label, Rule) {
    use ComponentAnnotation as CA;
    match (input, &path.annotation) {
        // Rule 1: {Async, Run} + OR_gate => NDRead_gate.
        (Label::Async | Label::Run, CA::OR(gate)) => (Label::NDRead(gate.clone()), Rule::R1),

        // Rule 2: {Async, Run} + OW_gate => Taint.
        (Label::Async | Label::Run, CA::OW(_)) => (Label::Taint, Rule::R2),

        // Rule 3: Inst + {CW, OW_gate} => Taint.
        (Label::Inst, CA::CW | CA::OW(_)) => (Label::Taint, Rule::R3),

        // Rule 4 and the compatible-seal case for OW.
        (Label::Seal(key), CA::OW(gate)) => {
            if gate.admits(key) {
                (Label::Async, Rule::SealConsume)
            } else {
                (Label::Taint, Rule::R4)
            }
        }

        // Sealed input into an order-sensitive read path: compatible seals
        // are consumed (deterministic once the partition closes); an
        // incompatible seal still allows transient nondeterministic reads.
        (Label::Seal(key), CA::OR(gate)) => {
            if gate.admits(key) {
                (Label::Async, Rule::SealConsume)
            } else {
                (Label::NDRead(gate.clone()), Rule::R1)
            }
        }

        // Seals survive confluent paths, chased through the lineage.
        (Label::Seal(key), CA::CR | CA::CW) => match path.map_seal_key(key) {
            Some(mapped) => (Label::Seal(mapped), Rule::Preserve),
            None => (Label::Async, Rule::SealDropped),
        },

        // Default rule (p): everything else preserves the input label.
        (other, _) => (other.clone(), Rule::Preserve),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::{ComponentAnnotation as CA, Gate};
    use std::collections::BTreeMap;

    fn path(ann: CA) -> PathSpec {
        PathSpec {
            from: "in".into(),
            to: "out".into(),
            annotation: ann,
            lineage: None,
        }
    }

    #[test]
    fn rule_1_async_or() {
        let (l, r) = infer_path(&Label::Async, &path(CA::or(["id"])));
        assert_eq!(l, Label::nd_read(["id"]));
        assert_eq!(r, Rule::R1);
    }

    #[test]
    fn rule_1_run_or() {
        let (l, r) = infer_path(&Label::Run, &path(CA::or(["id"])));
        assert_eq!(l, Label::nd_read(["id"]));
        assert_eq!(r, Rule::R1);
    }

    #[test]
    fn rule_2_async_ow() {
        let (l, r) = infer_path(&Label::Async, &path(CA::ow(["word", "batch"])));
        assert_eq!(l, Label::Taint);
        assert_eq!(r, Rule::R2);
    }

    #[test]
    fn rule_3_inst_cw() {
        let (l, r) = infer_path(&Label::Inst, &path(CA::cw()));
        assert_eq!(l, Label::Taint);
        assert_eq!(r, Rule::R3);
    }

    #[test]
    fn rule_3_inst_ow() {
        let (l, r) = infer_path(&Label::Inst, &path(CA::ow(["x"])));
        assert_eq!(l, Label::Taint);
        assert_eq!(r, Rule::R3);
    }

    #[test]
    fn rule_4_incompatible_seal_ow() {
        // Seal on campaign into OW over {id}: not compatible -> Taint.
        let (l, r) = infer_path(&Label::seal(["campaign"]), &path(CA::ow(["id"])));
        assert_eq!(l, Label::Taint);
        assert_eq!(r, Rule::R4);
    }

    #[test]
    fn compatible_seal_consumed_by_ow() {
        // The sealed wordcount: Seal_batch + OW_{word,batch} -> Async.
        let (l, r) = infer_path(&Label::seal(["batch"]), &path(CA::ow(["word", "batch"])));
        assert_eq!(l, Label::Async);
        assert_eq!(r, Rule::SealConsume);
    }

    #[test]
    fn compatible_seal_consumed_by_or() {
        let (l, r) = infer_path(&Label::seal(["window"]), &path(CA::or(["id", "window"])));
        assert_eq!(l, Label::Async);
        assert_eq!(r, Rule::SealConsume);
    }

    #[test]
    fn incompatible_seal_into_or_gives_ndread() {
        let (l, r) = infer_path(&Label::seal(["campaign"]), &path(CA::or(["id"])));
        assert_eq!(l, Label::NDRead(Gate::keys(["id"])));
        assert_eq!(r, Rule::R1);
    }

    #[test]
    fn seal_preserved_through_confluent_paths() {
        for ann in [CA::cr(), CA::cw()] {
            let (l, r) = infer_path(&Label::seal(["batch"]), &path(ann));
            assert_eq!(l, Label::seal(["batch"]));
            assert_eq!(r, Rule::Preserve);
        }
    }

    #[test]
    fn seal_chased_through_renaming_lineage() {
        let mut lineage = BTreeMap::new();
        lineage.insert("batch".to_string(), "epoch".to_string());
        let p = PathSpec {
            from: "in".into(),
            to: "out".into(),
            annotation: CA::cr(),
            lineage: Some(lineage),
        };
        let (l, r) = infer_path(&Label::seal(["batch"]), &p);
        assert_eq!(l, Label::seal(["epoch"]));
        assert_eq!(r, Rule::Preserve);
    }

    #[test]
    fn seal_dropped_when_key_projected_away() {
        let p = PathSpec {
            from: "in".into(),
            to: "out".into(),
            annotation: CA::cw(),
            lineage: Some(BTreeMap::new()),
        };
        let (l, r) = infer_path(&Label::seal(["batch"]), &p);
        assert_eq!(l, Label::Async);
        assert_eq!(r, Rule::SealDropped);
    }

    #[test]
    fn preservation_for_confluent_paths() {
        for input in [Label::Async, Label::Run, Label::Diverge] {
            let (l, r) = infer_path(&input, &path(CA::cr()));
            assert_eq!(l, input);
            assert_eq!(r, Rule::Preserve);
        }
        // Async through CW stays Async (confluence tolerates disorder).
        let (l, _) = infer_path(&Label::Async, &path(CA::cw()));
        assert_eq!(l, Label::Async);
        // Run through CW stays Run: contents were already nondeterministic.
        let (l, _) = infer_path(&Label::Run, &path(CA::cw()));
        assert_eq!(l, Label::Run);
    }

    #[test]
    fn diverge_propagates_through_everything() {
        for ann in [CA::cr(), CA::cw(), CA::or(["x"]), CA::ow(["x"])] {
            let (l, _) = infer_path(&Label::Diverge, &path(ann));
            assert_eq!(l, Label::Diverge);
        }
    }

    #[test]
    fn inst_preserved_through_read_paths() {
        // Rule 3 only fires for stateful paths; reads propagate Inst.
        let (l, r) = infer_path(&Label::Inst, &path(CA::cr()));
        assert_eq!((l, r), (Label::Inst, Rule::Preserve));
        let (l, r) = infer_path(&Label::Inst, &path(CA::or(["x"])));
        assert_eq!((l, r), (Label::Inst, Rule::Preserve));
    }

    #[test]
    fn wildcard_gate_accepts_any_seal() {
        let (l, r) = infer_path(&Label::seal(["anything"]), &path(CA::ow_star()));
        assert_eq!(l, Label::Async);
        assert_eq!(r, Rule::SealConsume);
    }
}
