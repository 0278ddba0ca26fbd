//! The severity lattice that orders stream labels (paper Fig. 8) and
//! component annotations (paper Fig. 7).
//!
//! Blazes' merge step picks the label of *highest severity* among the labels
//! accumulated for an output interface, so severities form a total order.
//! Internal labels (`NDRead`, `Taint`) share the lowest rank: they are
//! bookkeeping for the analysis and are never emitted as a stream label.

/// A point in the severity order of the paper's Fig. 8.
///
/// `Severity` is deliberately a plain integer newtype rather than an enum so
/// that future label families (e.g. user-defined lattice extensions) can slot
/// in between existing ranks without renumbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Severity(pub u8);

impl Severity {
    /// Internal labels: `NDRead_gate` and `Taint` (rank 0).
    pub const INTERNAL: Severity = Severity(0);
    /// `Seal_key` (rank 1): deterministic contents, punctuated partitions.
    pub const SEAL: Severity = Severity(1);
    /// `Async` (rank 2): deterministic contents, nondeterministic order.
    pub const ASYNC: Severity = Severity(2);
    /// `Run` (rank 3): cross-run nondeterminism.
    pub const RUN: Severity = Severity(3);
    /// `Inst` (rank 4): cross-instance nondeterminism.
    pub const INST: Severity = Severity(4);
    /// `Diverge` (rank 5): permanent replica divergence.
    pub const DIVERGE: Severity = Severity(5);

    /// Least upper bound: the more severe of the two.
    #[must_use]
    pub fn join(self, other: Severity) -> Severity {
        self.max(other)
    }

    /// Whether the severity corresponds to an anomaly the paper's Section
    /// III-A enumerates (`Run`, `Inst` or `Diverge`): coordination is
    /// required to remove it.
    #[must_use]
    pub fn is_anomalous(self) -> bool {
        self >= Severity::RUN
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_matches_figure_8() {
        assert!(Severity::INTERNAL < Severity::SEAL);
        assert!(Severity::SEAL < Severity::ASYNC);
        assert!(Severity::ASYNC < Severity::RUN);
        assert!(Severity::RUN < Severity::INST);
        assert!(Severity::INST < Severity::DIVERGE);
    }

    #[test]
    fn join_is_max() {
        assert_eq!(Severity::ASYNC.join(Severity::RUN), Severity::RUN);
        assert_eq!(Severity::RUN.join(Severity::ASYNC), Severity::RUN);
        assert_eq!(
            Severity::DIVERGE.join(Severity::INTERNAL),
            Severity::DIVERGE
        );
    }

    #[test]
    fn meet_is_min() {
        // The lattice order is `Ord`: the meet of two severities is `min`.
        assert_eq!(Severity::ASYNC.min(Severity::RUN), Severity::ASYNC);
        assert_eq!(Severity::SEAL.min(Severity::SEAL), Severity::SEAL);
    }

    #[test]
    fn anomalous_threshold() {
        assert!(!Severity::INTERNAL.is_anomalous());
        assert!(!Severity::SEAL.is_anomalous());
        assert!(!Severity::ASYNC.is_anomalous());
        assert!(Severity::RUN.is_anomalous());
        assert!(Severity::INST.is_anomalous());
        assert!(Severity::DIVERGE.is_anomalous());
    }

    #[test]
    fn join_lattice_laws() {
        let all = [
            Severity::INTERNAL,
            Severity::SEAL,
            Severity::ASYNC,
            Severity::RUN,
            Severity::INST,
            Severity::DIVERGE,
        ];
        for &a in &all {
            // idempotence
            assert_eq!(a.join(a), a);
            for &b in &all {
                // commutativity
                assert_eq!(a.join(b), b.join(a));
                for &c in &all {
                    // associativity
                    assert_eq!(a.join(b).join(c), a.join(b.join(c)));
                }
            }
        }
    }
}
