//! The seal protocol: per-partition buffering with unanimous producer
//! voting (paper Section V-B1).
//!
//! A consumer using sealing must
//!
//! 1. buffer each partition's records until the partition is known
//!    complete;
//! 2. for every producer contributing to the partition, collect that
//!    producer's seal punctuation (a *unanimous voting protocol* — "local,
//!    one-way coordination, limited to the stakeholders");
//! 3. release the partition for processing exactly once.
//!
//! When a partition has a single producer ("independent seal"), one seal
//! suffices and latency drops — the contrast measured in the paper's
//! Figure 14.

use crate::registry::{ProducerId, ProducerRegistry};
use blazes_dataflow::value::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Reserved seal-key attribute carrying the voting producer's id.
pub const PRODUCER_ATTR: &str = "producer";

/// Outcome of feeding the seal manager one seal punctuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealOutcome {
    /// The vote was recorded; the partition is still open.
    Buffered,
    /// The partition is now complete: process these tuples (in buffer
    /// order; the set is what matters — the partition is immutable now).
    Released(Vec<Tuple>),
    /// A seal arrived for a partition that was already released (a
    /// repeated vote after release). Late *records* are handed back by
    /// [`SealManager::on_data`] instead.
    LateArrival,
}

#[derive(Debug, Default)]
struct PartitionState {
    buffered: Vec<Tuple>,
    sealed_by: BTreeSet<ProducerId>,
    released: bool,
}

/// Tracks open partitions for one sealed input stream.
#[derive(Debug)]
pub struct SealManager {
    registry: ProducerRegistry,
    partitions: BTreeMap<Value, PartitionState>,
    /// Votes that repeated an already-recorded (partition, producer)
    /// pair. Benign by idempotence — and exactly what a crash-recovered
    /// producer re-running its seal vote produces, so the dist chaos
    /// suite asserts on it.
    revotes: u64,
}

impl SealManager {
    /// Create a manager over the given producer registry.
    #[must_use]
    pub fn new(registry: ProducerRegistry) -> Self {
        SealManager {
            registry,
            partitions: BTreeMap::new(),
            revotes: 0,
        }
    }

    /// Feed one data record belonging to `partition`. Returns `None` when
    /// it was buffered, and hands the record back as `Some(tuple)` when
    /// the partition was already released (a late arrival), so the caller
    /// can forward it without having kept a copy. Data never releases a
    /// partition; only [`SealManager::on_seal`] does.
    pub fn on_data(&mut self, partition: Value, tuple: Tuple) -> Option<Tuple> {
        let state = self.partitions.entry(partition).or_default();
        if state.released {
            return Some(tuple);
        }
        state.buffered.push(tuple);
        None
    }

    /// Feed one seal punctuation from `producer` for `partition`. Releases
    /// the partition when every registered producer has sealed it.
    pub fn on_seal(&mut self, partition: Value, producer: ProducerId) -> SealOutcome {
        let required = self.registry.producers_of(&partition);
        let state = self.partitions.entry(partition).or_default();
        if state.released {
            return SealOutcome::LateArrival;
        }
        if !state.sealed_by.insert(producer) {
            self.revotes += 1;
        }
        if !required.is_empty() && required.iter().all(|p| state.sealed_by.contains(p)) {
            state.released = true;
            blazes_obs::record(
                blazes_obs::EventKind::SealRelease,
                state.buffered.len() as u64,
                state.sealed_by.len() as u64,
            );
            SealOutcome::Released(std::mem::take(&mut state.buffered))
        } else {
            SealOutcome::Buffered
        }
    }

    /// Number of duplicate seal votes absorbed so far. Idempotence makes
    /// them harmless; a crash-recovered producer re-running its vote is
    /// the expected source.
    #[must_use]
    pub fn revotes(&self) -> u64 {
        self.revotes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: i64) -> Tuple {
        Tuple::new([v])
    }

    #[test]
    fn single_producer_releases_on_first_seal() {
        let mut reg = ProducerRegistry::new();
        reg.register(Value::str("c1"), [0]);
        let mut mgr = SealManager::new(reg);
        assert_eq!(mgr.on_data(Value::str("c1"), t(1)), None);
        assert_eq!(mgr.on_data(Value::str("c1"), t(2)), None);
        assert_eq!(
            mgr.on_seal(Value::str("c1"), 0),
            SealOutcome::Released(vec![t(1), t(2)])
        );
        assert_eq!(mgr.on_seal(Value::str("c1"), 0), SealOutcome::LateArrival);
    }

    #[test]
    fn unanimous_vote_required_with_multiple_producers() {
        let reg = ProducerRegistry::all_produce(0..3);
        let mut mgr = SealManager::new(reg);
        assert_eq!(mgr.on_data(Value::str("c1"), t(10)), None);
        assert_eq!(mgr.on_seal(Value::str("c1"), 0), SealOutcome::Buffered);
        assert_eq!(mgr.on_seal(Value::str("c1"), 1), SealOutcome::Buffered);
        // Data can still arrive between votes.
        assert_eq!(mgr.on_data(Value::str("c1"), t(11)), None);
        match mgr.on_seal(Value::str("c1"), 2) {
            SealOutcome::Released(tuples) => assert_eq!(tuples, vec![t(10), t(11)]),
            other => panic!("expected release, got {other:?}"),
        }
    }

    #[test]
    fn partitions_are_independent() {
        let reg = ProducerRegistry::all_produce(0..2);
        let mut mgr = SealManager::new(reg);
        assert_eq!(mgr.on_data(Value::str("a"), t(1)), None);
        assert_eq!(mgr.on_data(Value::str("b"), t(2)), None);
        mgr.on_seal(Value::str("a"), 0);
        assert_eq!(
            mgr.on_seal(Value::str("a"), 1),
            SealOutcome::Released(vec![t(1)])
        );
        // `b` is still open, holding its own record.
        assert_eq!(mgr.on_seal(Value::str("b"), 0), SealOutcome::Buffered);
        assert_eq!(
            mgr.on_seal(Value::str("b"), 1),
            SealOutcome::Released(vec![t(2)])
        );
    }

    #[test]
    fn late_data_after_release_flagged() {
        let mut reg = ProducerRegistry::new();
        reg.register(Value::Int(1), [0]);
        let mut mgr = SealManager::new(reg);
        mgr.on_seal(Value::Int(1), 0);
        assert_eq!(
            mgr.on_data(Value::Int(1), t(9)),
            Some(t(9)),
            "the late record is handed back"
        );
        assert_eq!(mgr.on_seal(Value::Int(1), 0), SealOutcome::LateArrival);
    }

    #[test]
    fn duplicate_votes_are_idempotent() {
        let reg = ProducerRegistry::all_produce(0..2);
        let mut mgr = SealManager::new(reg);
        assert_eq!(mgr.on_seal(Value::Int(1), 0), SealOutcome::Buffered);
        assert_eq!(mgr.revotes(), 0);
        assert_eq!(mgr.on_seal(Value::Int(1), 0), SealOutcome::Buffered);
        assert_eq!(mgr.revotes(), 1);
        assert!(matches!(
            mgr.on_seal(Value::Int(1), 1),
            SealOutcome::Released(_)
        ));
        assert_eq!(mgr.revotes(), 1);
    }

    #[test]
    fn no_producers_never_releases() {
        // An empty producer set means the partition can never be proven
        // complete; the manager conservatively holds it.
        let mut mgr = SealManager::new(ProducerRegistry::new());
        assert_eq!(mgr.on_seal(Value::Int(1), 0), SealOutcome::Buffered);
        assert_eq!(mgr.on_seal(Value::Int(1), 0), SealOutcome::Buffered);
    }

    #[test]
    fn votes_from_unregistered_producers_do_not_release_early() {
        let mut reg = ProducerRegistry::new();
        reg.register(Value::Int(1), [5, 6]);
        let mut mgr = SealManager::new(reg);
        assert_eq!(mgr.on_seal(Value::Int(1), 9), SealOutcome::Buffered);
        assert_eq!(mgr.on_seal(Value::Int(1), 5), SealOutcome::Buffered);
        assert!(matches!(
            mgr.on_seal(Value::Int(1), 6),
            SealOutcome::Released(_)
        ));
    }
}
