//! The engine-side host for bolts: routing, batch tracking and
//! transactional commit deferral.
//!
//! Every spout and bolt instance is wrapped in a [`BoltAdapter`], a
//! `blazes-dataflow` component that:
//!
//! * feeds data tuples to the user bolt and routes its emissions downstream
//!   per the topology's groupings (one output-port block per downstream
//!   node, one port per consumer instance);
//! * tracks batch completion: a batch is locally complete when a seal for
//!   it has arrived from **every distinct upstream producer** (duplicate
//!   seals from at-least-once channels are deduplicated by producer id);
//! * on completion, either finishes the batch immediately
//!   ([`BatchHandling::Streaming`] — the paper's sealed topology) or asks
//!   the commit coordinator and waits for an in-order grant
//!   ([`BatchHandling::Transactional`] — Storm's coordinated baseline);
//! * after finishing a batch, forwards its own seal downstream, stamped
//!   with this instance's producer id — the same punctuation-driven
//!   unanimous vote, repeated hop by hop.

use crate::bolt::{Bolt, BoltContext};
use crate::grouping::Grouping;
use blazes_coord::seal::PRODUCER_ATTR;
use blazes_dataflow::component::{Component, Context};
use blazes_dataflow::message::{Message, SealKey};
use blazes_dataflow::value::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Reserved seal-key attribute naming the batch.
pub const BATCH_ATTR: &str = "batch";
/// Producer id used for seals injected from outside the topology (spout
/// schedules).
pub const INJECTED_PRODUCER: i64 = -1;

/// Input port carrying upstream data and seals.
pub const PORT_UPSTREAM: usize = 0;
/// Input port carrying commit grants from the coordinator (transactional
/// bolts only).
pub const PORT_GRANT: usize = 1;

/// How the adapter treats batch completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchHandling {
    /// Finish the batch as soon as it is locally complete (sealed /
    /// uncoordinated topologies).
    Streaming,
    /// Announce readiness to the commit coordinator and finish only when
    /// the in-order grant arrives (transactional topologies).
    Transactional,
}

/// A downstream subscription of this node.
#[derive(Debug, Clone)]
pub struct Downstream {
    /// First output port of the block reserved for this subscription.
    pub base_port: usize,
    /// Number of consumer instances.
    pub fanout: usize,
    /// The grouping for data tuples.
    pub grouping: Grouping,
}

#[derive(Debug, Default)]
struct BatchState {
    sealed_by: BTreeSet<i64>,
    finished: bool,
    ready_sent: bool,
}

/// The engine component hosting one bolt instance.
pub struct BoltAdapter {
    bolt: Box<dyn Bolt>,
    name: String,
    /// Globally unique producer id of this instance.
    producer_id: i64,
    /// Index within this node's parallelism group.
    instance_index: usize,
    /// Number of distinct upstream producers whose seal is required per
    /// batch.
    expected_producers: usize,
    mode: BatchHandling,
    downstream: Vec<Downstream>,
    /// Output port for readiness messages (transactional only).
    coord_port: Option<usize>,
    rr: Vec<usize>,
    batches: BTreeMap<i64, BatchState>,
}

impl BoltAdapter {
    /// Wrap `bolt` for execution.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        bolt: Box<dyn Bolt>,
        name: impl Into<String>,
        producer_id: i64,
        instance_index: usize,
        expected_producers: usize,
        mode: BatchHandling,
        downstream: Vec<Downstream>,
        coord_port: Option<usize>,
    ) -> Self {
        let rr = vec![0; downstream.len()];
        BoltAdapter {
            bolt,
            name: name.into(),
            producer_id,
            instance_index,
            expected_producers,
            mode,
            downstream,
            coord_port,
            rr,
            batches: BTreeMap::new(),
        }
    }

    fn route_outputs(&mut self, bctx: BoltContext, ctx: &mut Context) {
        let BoltContext {
            emitted,
            emitted_seals,
            ..
        } = bctx;
        for tuple in emitted {
            for (di, d) in self.downstream.iter().enumerate() {
                match d.grouping.route(&tuple, d.fanout, &mut self.rr[di]) {
                    Some(target) => {
                        ctx.emit(d.base_port + target, Message::Data(tuple.clone()));
                    }
                    None => {
                        for t in 0..d.fanout {
                            ctx.emit(d.base_port + t, Message::Data(tuple.clone()));
                        }
                    }
                }
            }
        }
        for seal in emitted_seals {
            self.broadcast_seal(seal, ctx);
        }
    }

    fn broadcast_seal(&self, key: SealKey, ctx: &mut Context) {
        for d in &self.downstream {
            for t in 0..d.fanout {
                ctx.emit(d.base_port + t, Message::Seal(key.clone()));
            }
        }
    }

    /// Execute `finish_batch` on the user bolt and propagate the seal.
    fn finish_batch(&mut self, batch: i64, ctx: &mut Context) {
        let mut bctx = BoltContext::new(ctx.now, self.instance_index);
        self.bolt.finish_batch(batch, &mut bctx);
        self.route_outputs(bctx, ctx);
        self.broadcast_seal(
            SealKey::new([
                (BATCH_ATTR, Value::Int(batch)),
                (PRODUCER_ATTR, Value::Int(self.producer_id)),
            ]),
            ctx,
        );
    }

    fn on_seal(&mut self, key: &SealKey, ctx: &mut Context) {
        let Some(batch) = key.value_of(BATCH_ATTR).and_then(Value::as_int) else {
            // Non-batch seals are forwarded verbatim (rare).
            self.broadcast_seal(key.clone(), ctx);
            return;
        };
        let producer = key
            .value_of(PRODUCER_ATTR)
            .and_then(Value::as_int)
            .unwrap_or(INJECTED_PRODUCER);
        let expected = self.expected_producers;
        let state = self.batches.entry(batch).or_default();
        if state.finished {
            return; // duplicate seal after completion
        }
        state.sealed_by.insert(producer);
        if state.sealed_by.len() < expected {
            return;
        }
        match self.mode {
            BatchHandling::Streaming => {
                state.finished = true;
                self.finish_batch(batch, ctx);
            }
            BatchHandling::Transactional => {
                if !state.ready_sent {
                    state.ready_sent = true;
                    let port = self
                        .coord_port
                        .expect("transactional bolt requires a coordinator port");
                    ctx.emit(port, Message::data([batch, self.instance_index as i64]));
                }
            }
        }
    }

    fn on_grant(&mut self, msg: &Message, ctx: &mut Context) {
        let Some(batch) = msg.as_data().and_then(|t| t.get(0)).and_then(Value::as_int) else {
            return;
        };
        let state = self.batches.entry(batch).or_default();
        if state.finished {
            return;
        }
        state.finished = true;
        self.finish_batch(batch, ctx);
    }
}

impl Component for BoltAdapter {
    fn on_message(&mut self, port: usize, msg: Message, ctx: &mut Context) {
        match (port, &msg) {
            (PORT_GRANT, _) => self.on_grant(&msg, ctx),
            (_, Message::Data(tuple)) => {
                let mut bctx = BoltContext::new(ctx.now, self.instance_index);
                self.bolt.execute(tuple.clone(), &mut bctx);
                self.route_outputs(bctx, ctx);
            }
            (_, Message::Seal(key)) => {
                let key = key.clone();
                self.on_seal(&key, ctx);
            }
            (_, Message::Eos) => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Build a batch-completion seal for injection into spout schedules.
#[must_use]
pub fn batch_seal(batch: i64) -> Message {
    Message::Seal(SealKey::new([(BATCH_ATTR, Value::Int(batch))]))
}

/// A commit-gated spout for transactional topologies.
///
/// Storm's transactional spouts keep at most `max_pending` batches in
/// flight: batch `b + max_pending` is not emitted until batch `b` has
/// committed. This closed loop is what puts the coordination round-trip on
/// the critical path — the throughput cost Figure 11 measures.
///
/// Any message on a non-grant port starts emission; commit grants (from the
/// coordinator, on [`PORT_GRANT`]) advance the window.
pub struct GatedSpout {
    name: String,
    producer_id: i64,
    downstream: Vec<Downstream>,
    rr: Vec<usize>,
    /// Batches in emission order: `(batch id, tuples)`.
    batches: Vec<(i64, Vec<Tuple>)>,
    next_idx: usize,
    committed: usize,
    max_pending: usize,
    started: bool,
}

impl GatedSpout {
    /// Build a gated spout from an ordered batch list.
    pub fn new(
        name: impl Into<String>,
        producer_id: i64,
        downstream: Vec<Downstream>,
        batches: Vec<(i64, Vec<Tuple>)>,
        max_pending: usize,
    ) -> Self {
        let rr = vec![0; downstream.len()];
        GatedSpout {
            name: name.into(),
            producer_id,
            downstream,
            rr,
            batches,
            next_idx: 0,
            committed: 0,
            max_pending: max_pending.max(1),
            started: false,
        }
    }

    /// Group a flat spout schedule into batches: data tuples accumulate
    /// until a `batch_seal` closes the batch.
    #[must_use]
    pub fn group_schedule(
        schedule: &[(blazes_dataflow::sim::Time, Message)],
    ) -> Vec<(i64, Vec<Tuple>)> {
        let mut batches = Vec::new();
        let mut current: Vec<Tuple> = Vec::new();
        for (_, msg) in schedule {
            match msg {
                Message::Data(t) => current.push(t.clone()),
                Message::Seal(key) => {
                    if let Some(b) = key.value_of(BATCH_ATTR).and_then(Value::as_int) {
                        batches.push((b, std::mem::take(&mut current)));
                    }
                }
                Message::Eos => {}
            }
        }
        if !current.is_empty() {
            // Trailing unsealed data: close it as a final implicit batch.
            let next = batches.last().map_or(0, |(b, _)| b + 1);
            batches.push((next, current));
        }
        batches
    }

    fn pump(&mut self, ctx: &mut Context) {
        while self.next_idx < self.batches.len()
            && self.next_idx - self.committed < self.max_pending
        {
            let (batch, tuples) = self.batches[self.next_idx].clone();
            self.next_idx += 1;
            for tuple in tuples {
                for (di, d) in self.downstream.iter().enumerate() {
                    match d.grouping.route(&tuple, d.fanout, &mut self.rr[di]) {
                        Some(target) => {
                            ctx.emit(d.base_port + target, Message::Data(tuple.clone()));
                        }
                        None => {
                            for t in 0..d.fanout {
                                ctx.emit(d.base_port + t, Message::Data(tuple.clone()));
                            }
                        }
                    }
                }
            }
            let seal = SealKey::new([
                (BATCH_ATTR, Value::Int(batch)),
                (PRODUCER_ATTR, Value::Int(self.producer_id)),
            ]);
            for d in &self.downstream {
                for t in 0..d.fanout {
                    ctx.emit(d.base_port + t, Message::Seal(seal.clone()));
                }
            }
        }
    }
}

impl Component for GatedSpout {
    fn on_message(&mut self, port: usize, _msg: Message, ctx: &mut Context) {
        if port == PORT_GRANT {
            if self.started {
                self.committed = (self.committed + 1).min(self.next_idx);
                self.pump(ctx);
            }
        } else {
            self.started = true;
            self.pump(ctx);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bolt::IdentityBolt;
    use blazes_dataflow::sim::InstanceId;

    fn adapter(expected: usize, mode: BatchHandling, coord: Option<usize>) -> BoltAdapter {
        BoltAdapter::new(
            Box::new(IdentityBolt),
            "test",
            7,
            0,
            expected,
            mode,
            vec![Downstream {
                base_port: 0,
                fanout: 2,
                grouping: Grouping::All,
            }],
            coord,
        )
    }

    fn ctx() -> Context {
        Context::new(0, InstanceId(0))
    }

    // NOTE: Context's emission buffer is private to blazes-dataflow, so the
    // adapter's routing behavior is exercised through full simulations in
    // `topology.rs` tests. The tests here cover pure seal bookkeeping.

    #[test]
    fn seal_requires_all_producers() {
        let mut a = adapter(2, BatchHandling::Streaming, None);
        let mut c = ctx();
        a.on_seal(
            &SealKey::new([(BATCH_ATTR, Value::Int(0)), (PRODUCER_ATTR, Value::Int(1))]),
            &mut c,
        );
        assert!(!a.batches[&0].finished);
        a.on_seal(
            &SealKey::new([(BATCH_ATTR, Value::Int(0)), (PRODUCER_ATTR, Value::Int(2))]),
            &mut c,
        );
        assert!(a.batches[&0].finished);
    }

    #[test]
    fn duplicate_seals_from_same_producer_ignored() {
        let mut a = adapter(2, BatchHandling::Streaming, None);
        let mut c = ctx();
        for _ in 0..5 {
            a.on_seal(
                &SealKey::new([(BATCH_ATTR, Value::Int(0)), (PRODUCER_ATTR, Value::Int(1))]),
                &mut c,
            );
        }
        assert!(
            !a.batches[&0].finished,
            "one producer cannot complete a 2-producer batch"
        );
    }

    #[test]
    fn injected_seal_uses_sentinel_producer() {
        let mut a = adapter(1, BatchHandling::Streaming, None);
        let mut c = ctx();
        a.on_seal(&SealKey::new([(BATCH_ATTR, Value::Int(3))]), &mut c);
        assert!(a.batches[&3].finished);
    }

    #[test]
    fn transactional_defers_until_grant() {
        let mut a = adapter(1, BatchHandling::Transactional, Some(9));
        let mut c = ctx();
        a.on_seal(&SealKey::new([(BATCH_ATTR, Value::Int(0))]), &mut c);
        assert!(!a.batches[&0].finished, "must wait for the grant");
        assert!(a.batches[&0].ready_sent);
        a.on_grant(&Message::data([0i64]), &mut c);
        assert!(a.batches[&0].finished);
        // A duplicate grant is idempotent.
        a.on_grant(&Message::data([0i64]), &mut c);
        assert!(a.batches[&0].finished);
    }

    #[test]
    fn batch_seal_helper_shape() {
        let Message::Seal(k) = batch_seal(5) else {
            panic!()
        };
        assert_eq!(k.value_of(BATCH_ATTR), Some(&Value::Int(5)));
    }
}
