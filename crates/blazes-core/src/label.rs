//! Stream labels — the paper's Fig. 8.
//!
//! A label describes the class of anomalies a stream instance may exhibit.
//! `NDRead_gate` and `Taint` are *internal*: the analysis uses them while
//! reducing component paths but they are never attached to an output stream.
//! The remaining labels are ranked by severity; the merge step returns the
//! most severe label derived for an output interface.

use crate::annotation::Gate;
use crate::keys::KeySet;
use crate::severity::Severity;
use std::fmt;

/// A stream label (paper Fig. 8).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Label {
    /// Internal (severity 0): the output may have *transient*
    /// nondeterministic contents from reads racing ahead of inputs, over
    /// partitions `gate`. Resolved by the reconciliation procedure.
    NDRead(Gate),
    /// Internal (severity 0): component state may be corrupted by unordered
    /// inputs. Resolved by the reconciliation procedure.
    Taint,
    /// Severity 1: deterministic contents, punctuated on `key`.
    Seal(KeySet),
    /// Severity 2: deterministic contents, nondeterministic order. The
    /// conservative default for inter-component communication.
    Async,
    /// Severity 3: cross-run nondeterminism — different contents across runs
    /// over the same inputs. Breaks replay-based fault tolerance.
    Run,
    /// Severity 4: cross-instance nondeterminism — replicas emit different
    /// contents within one run. Breaks replication-based fault tolerance.
    Inst,
    /// Severity 5: persistent replica divergence.
    Diverge,
}

impl Label {
    /// NDRead over an explicit gate key set.
    pub fn nd_read<I, S>(gate: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Label::NDRead(Gate::Keys(KeySet::from_attrs(gate)))
    }

    /// A seal label on `key`.
    pub fn seal<I, S>(key: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Label::Seal(KeySet::from_attrs(key))
    }

    /// The severity rank of this label (paper Fig. 8).
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self {
            Label::NDRead(_) | Label::Taint => Severity::INTERNAL,
            Label::Seal(_) => Severity::SEAL,
            Label::Async => Severity::ASYNC,
            Label::Run => Severity::RUN,
            Label::Inst => Severity::INST,
            Label::Diverge => Severity::DIVERGE,
        }
    }

    /// Internal labels are never attached to an output stream.
    #[must_use]
    pub fn is_internal(&self) -> bool {
        matches!(self, Label::NDRead(_) | Label::Taint)
    }

    /// Whether the label denotes one of Section III-A's anomalies
    /// (`Run`, `Inst`, `Diverge`).
    #[must_use]
    pub fn is_anomalous(&self) -> bool {
        self.severity().is_anomalous()
    }

    /// Pick the more severe of two labels (ties keep `self`).
    #[must_use]
    pub fn join(self, other: Label) -> Label {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::NDRead(gate) => write!(f, "NDRead_{{{gate}}}"),
            Label::Taint => write!(f, "Taint"),
            Label::Seal(key) => write!(f, "Seal_{{{key}}}"),
            Label::Async => write!(f, "Async"),
            Label::Run => write!(f, "Run"),
            Label::Inst => write!(f, "Inst"),
            Label::Diverge => write!(f, "Diverge"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_labels() -> Vec<Label> {
        vec![
            Label::nd_read(["g"]),
            Label::Taint,
            Label::seal(["k"]),
            Label::Async,
            Label::Run,
            Label::Inst,
            Label::Diverge,
        ]
    }

    #[test]
    fn severities_match_figure_8() {
        assert_eq!(Label::nd_read(["g"]).severity(), Severity(0));
        assert_eq!(Label::Taint.severity(), Severity(0));
        assert_eq!(Label::seal(["k"]).severity(), Severity(1));
        assert_eq!(Label::Async.severity(), Severity(2));
        assert_eq!(Label::Run.severity(), Severity(3));
        assert_eq!(Label::Inst.severity(), Severity(4));
        assert_eq!(Label::Diverge.severity(), Severity(5));
    }

    #[test]
    fn internal_labels_flagged() {
        assert!(Label::nd_read(["g"]).is_internal());
        assert!(Label::Taint.is_internal());
        for l in [
            Label::seal(["k"]),
            Label::Async,
            Label::Run,
            Label::Inst,
            Label::Diverge,
        ] {
            assert!(!l.is_internal(), "{l} must not be internal");
        }
    }

    #[test]
    fn join_picks_higher_severity() {
        assert_eq!(Label::Async.join(Label::Run), Label::Run);
        assert_eq!(Label::Diverge.join(Label::Async), Label::Diverge);
        // Tie keeps the receiver.
        assert_eq!(
            Label::seal(["a"]).join(Label::seal(["b"])),
            Label::seal(["a"])
        );
    }

    #[test]
    fn join_monotone_in_severity() {
        for a in all_labels() {
            for b in all_labels() {
                let j = a.clone().join(b.clone());
                assert!(j.severity() >= a.severity());
                assert!(j.severity() >= b.severity());
            }
        }
    }

    #[test]
    fn display_notation() {
        assert_eq!(
            Label::nd_read(["campaign"]).to_string(),
            "NDRead_{campaign}"
        );
        assert_eq!(Label::seal(["batch"]).to_string(), "Seal_{batch}");
        assert_eq!(Label::Async.to_string(), "Async");
    }
}
