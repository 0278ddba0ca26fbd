//! Transactional-topology commit coordination (the paper's Storm baseline).
//!
//! Storm's "transactional topologies" ensure committers emit batches in a
//! strict total order: batch *b* commits only after batch *b−1* has been
//! committed by **every** committer. [`CommitCoordinator`] implements that
//! barrier as a component:
//!
//! * input port 0 receives readiness announcements
//!   `Data((batch_id, committer_id))` from committers that have finished
//!   processing a batch;
//! * output port 0 emits a commit grant `Data((batch_id,))` once the next
//!   in-order batch is ready at all committers. Committers apply the batch
//!   to the backing store only upon the grant.
//!
//! The serial, in-order grant stream is the coordination overhead that the
//! sealed (non-transactional) wordcount avoids in Figure 11.

use blazes_dataflow::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Batch-ordered commit barrier.
#[derive(Debug)]
pub struct CommitCoordinator {
    committers: usize,
    next_batch: i64,
    ready: BTreeMap<i64, BTreeSet<i64>>,
}

impl CommitCoordinator {
    /// A coordinator expecting `committers` distinct committer ids per
    /// batch, granting batches starting from 0.
    #[must_use]
    pub fn new(committers: usize) -> Self {
        assert!(committers > 0, "at least one committer required");
        CommitCoordinator {
            committers,
            next_batch: 0,
            ready: BTreeMap::new(),
        }
    }

    fn try_grant(&mut self, ctx: &mut Context) {
        while let Some(voters) = self.ready.get(&self.next_batch) {
            if voters.len() < self.committers {
                break;
            }
            self.ready.remove(&self.next_batch);
            ctx.emit(0, Message::data([self.next_batch]));
            self.next_batch += 1;
        }
    }
}

impl Component for CommitCoordinator {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        let Message::Data(t) = &msg else { return };
        let (Some(batch), Some(committer)) = (
            t.get(0).and_then(Value::as_int),
            t.get(1).and_then(Value::as_int),
        ) else {
            return;
        };
        if batch >= self.next_batch {
            self.ready.entry(batch).or_default().insert(committer);
            self.try_grant(ctx);
        }
    }

    fn name(&self) -> &str {
        "commit-coordinator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_dataflow::channel::ChannelConfig;
    use blazes_dataflow::sinks::CollectorSink;

    fn grants(readiness: Vec<(u64, i64, i64)>, committers: usize) -> Vec<i64> {
        let mut b = Topology::new();
        let coord = b.add_instance(Box::new(CommitCoordinator::new(committers)));
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(coord, PortId(0), s, PortId(0), ChannelConfig::ordered(0));
        for (at, batch, committer) in readiness {
            b.inject(at, coord, PortId(0), Message::data([batch, committer]));
        }
        Simulator::new(b, 0).run();
        sink.messages()
            .iter()
            .filter_map(|m| m.as_data().and_then(|t| t.get(0)).and_then(Value::as_int))
            .collect()
    }

    #[test]
    fn grants_in_batch_order() {
        // Batch 1 becomes ready before batch 0, but grants stay ordered.
        let g = grants(vec![(0, 1, 0), (10, 0, 0)], 1);
        assert_eq!(g, vec![0, 1]);
    }

    #[test]
    fn waits_for_all_committers() {
        let g = grants(vec![(0, 0, 0)], 2);
        assert!(g.is_empty());
        let g = grants(vec![(0, 0, 0), (5, 0, 1)], 2);
        assert_eq!(g, vec![0]);
    }

    #[test]
    fn cascade_grant_when_gap_fills() {
        // Batches 1..3 ready; everything flushes once batch 0 arrives.
        let g = grants(vec![(0, 1, 0), (0, 2, 0), (0, 3, 0), (20, 0, 0)], 1);
        assert_eq!(g, vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_readiness_is_idempotent() {
        let g = grants(vec![(0, 0, 0), (1, 0, 0), (2, 0, 1)], 2);
        assert_eq!(g, vec![0]);
    }

    #[test]
    fn stale_batches_ignored() {
        let g = grants(vec![(0, 0, 0), (1, 0, 0)], 1);
        // Batch 0 granted once; the duplicate (now stale) is dropped.
        assert_eq!(g, vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one committer")]
    fn zero_committers_rejected() {
        let _ = CommitCoordinator::new(0);
    }
}
