//! The engine-side host for bolts: routing, batch tracking and
//! transactional commit deferral.
//!
//! Every spout and bolt instance is wrapped in a [`BoltAdapter`], a
//! `blazes-dataflow` component that:
//!
//! * feeds data tuples to the user bolt and routes its emissions downstream
//!   per the topology's groupings (one output-port block per downstream
//!   node, one port per consumer instance);
//! * tracks batch completion with a [`SealManager`]: a batch is locally
//!   complete when a seal for it has arrived from **every upstream
//!   producer** (duplicate seals from at-least-once channels are
//!   deduplicated by producer id);
//! * on completion, either finishes the batch immediately
//!   ([`BatchHandling::Streaming`] — the paper's sealed topology) or asks
//!   the commit coordinator and waits for an in-order grant
//!   ([`BatchHandling::Transactional`] — Storm's coordinated baseline);
//! * after finishing a batch, forwards its own seal downstream, stamped
//!   with this instance's producer id — the same punctuation-driven
//!   unanimous vote, repeated hop by hop.

use crate::bolt::{Bolt, BoltContext};
use crate::grouping::Grouping;
use blazes_coord::registry::{ProducerId, ProducerRegistry};
use blazes_coord::seal::{SealManager, SealOutcome, PRODUCER_ATTR};
use blazes_dataflow::component::{Component, Context};
use blazes_dataflow::message::{Message, SealKey};
use blazes_dataflow::value::{Tuple, Value};
use std::collections::BTreeSet;
use std::ops::Range;

/// Reserved seal-key attribute naming the batch.
pub const BATCH_ATTR: &str = "batch";
/// The one producer a spout's seals count as: they are injected from
/// outside the topology (spout schedules) and carry no producer id.
pub(crate) const INJECTED_PRODUCER: ProducerId = ProducerId::MAX;

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

impl Downstream {
    /// The output ports a tuple routed to `target` goes out on: that one
    /// consumer's port, or the whole block when the grouping broadcasts.
    fn ports(&self, target: Option<usize>) -> Range<usize> {
        match target {
            Some(t) => self.base_port + t..self.base_port + t + 1,
            None => self.base_port..self.base_port + self.fanout,
        }
    }
}

/// Send `tuples` along every downstream subscription per its grouping
/// (`rr` holds one round-robin cursor per subscription), then broadcast
/// each of `seals` to every consumer instance. Each message goes out one
/// port behind the routing, so only real fan-out (a broadcast grouping,
/// or several subscriptions) copies it: the last destination takes the
/// original. Tuples come by value so each is freed right after its
/// copies go out — holding them all to the end measured ~15% slower on
/// the parallel wordcount.
fn send_downstream(
    downstream: &[Downstream],
    rr: &mut [usize],
    tuples: impl IntoIterator<Item = Tuple>,
    seals: impl IntoIterator<Item = SealKey>,
    ctx: &mut Context,
) {
    for tuple in tuples {
        let mut last = None;
        for (d, cursor) in downstream.iter().zip(rr.iter_mut()) {
            for port in d.ports(d.grouping.route(&tuple, d.fanout, cursor)) {
                if let Some(prev) = last.replace(port) {
                    ctx.emit(prev, Message::Data(tuple.clone()));
                }
            }
        }
        if let Some(port) = last {
            ctx.emit(port, Message::Data(tuple));
        }
    }
    for seal in seals {
        let mut last = None;
        for port in downstream.iter().flat_map(|d| d.ports(None)) {
            if let Some(prev) = last.replace(port) {
                ctx.emit(prev, Message::Seal(seal.clone()));
            }
        }
        if let Some(port) = last {
            ctx.emit(port, Message::Seal(seal));
        }
    }
}

/// The seal this producer forwards once it has finished `batch`.
fn batch_done(batch: i64, producer: ProducerId) -> SealKey {
    let producer = i64::try_from(producer).expect("producer ids are topology indices");
    SealKey::new([
        (BATCH_ATTR, Value::Int(batch)),
        (PRODUCER_ATTR, Value::Int(producer)),
    ])
}

/// The engine component hosting one bolt instance.
pub struct BoltAdapter {
    bolt: Box<dyn Bolt>,
    name: String,
    /// Globally unique producer id of this instance.
    producer_id: ProducerId,
    /// The unanimous vote over the upstream producers, one partition per
    /// batch.
    votes: SealManager,
    mode: BatchHandling,
    downstream: Vec<Downstream>,
    /// Output port for readiness messages (transactional only).
    coord_port: Option<usize>,
    rr: Vec<usize>,
    /// Batches granted and finished (transactional only; grants repeat).
    granted: BTreeSet<i64>,
    /// The context every bolt callback runs in (it carries this
    /// instance's index within its parallelism group); its emission
    /// buffer is drained after each callback and reused by the next.
    bctx: BoltContext,
}

impl BoltAdapter {
    /// Wrap `bolt` for execution. A batch completes once every producer
    /// id in `upstream` has sealed it; a spout's one upstream is the
    /// sentinel its injected, id-less seals count as.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        bolt: Box<dyn Bolt>,
        name: impl Into<String>,
        producer_id: ProducerId,
        instance_index: usize,
        upstream: Vec<ProducerId>,
        mode: BatchHandling,
        downstream: Vec<Downstream>,
        coord_port: Option<usize>,
    ) -> Self {
        let rr = vec![0; downstream.len()];
        BoltAdapter {
            bolt,
            name: name.into(),
            producer_id,
            votes: SealManager::new(ProducerRegistry::all_produce(upstream)),
            mode,
            downstream,
            coord_port,
            rr,
            granted: BTreeSet::new(),
            bctx: BoltContext::new(0, instance_index),
        }
    }

    /// Execute `finish_batch` on the user bolt, send what it emitted and
    /// then this instance's seal for the batch.
    fn finish_batch(&mut self, batch: i64, ctx: &mut Context) {
        self.bctx.now = ctx.now;
        self.bolt.finish_batch(batch, &mut self.bctx);
        let seal = batch_done(batch, self.producer_id);
        send_downstream(
            &self.downstream,
            &mut self.rr,
            self.bctx.emitted.drain(..),
            [seal],
            ctx,
        );
    }

    fn on_seal(&mut self, key: &SealKey, ctx: &mut Context) {
        let Some(batch) = key.value_of(BATCH_ATTR).and_then(Value::as_int) else {
            // Non-batch seals are forwarded verbatim (rare).
            send_downstream(&self.downstream, &mut self.rr, [], [key.clone()], ctx);
            return;
        };
        let producer = key
            .value_of(PRODUCER_ATTR)
            .and_then(Value::as_int)
            .and_then(|p| ProducerId::try_from(p).ok())
            .unwrap_or(INJECTED_PRODUCER);
        // Anything but a release is a vote still short of unanimity or a
        // duplicate seal after completion.
        if let SealOutcome::Released(_) = self.votes.on_seal(Value::Int(batch), producer) {
            match self.mode {
                BatchHandling::Streaming => self.finish_batch(batch, ctx),
                BatchHandling::Transactional => {
                    let port = self
                        .coord_port
                        .expect("transactional bolt requires a coordinator port");
                    ctx.emit(
                        port,
                        Message::data([batch, self.bctx.instance_index as i64]),
                    );
                }
            }
        }
    }

    fn on_grant(&mut self, msg: &Message, ctx: &mut Context) {
        let Some(batch) = msg.as_data().and_then(|t| t.get(0)).and_then(Value::as_int) else {
            return;
        };
        if self.granted.insert(batch) {
            self.finish_batch(batch, ctx);
        }
    }
}

impl Component for BoltAdapter {
    fn on_message(&mut self, port: usize, msg: Message, ctx: &mut Context) {
        match (port, msg) {
            (PORT_GRANT, msg) => self.on_grant(&msg, ctx),
            (_, Message::Data(tuple)) => {
                self.bctx.now = ctx.now;
                self.bolt.execute(tuple, &mut self.bctx);
                send_downstream(
                    &self.downstream,
                    &mut self.rr,
                    self.bctx.emitted.drain(..),
                    [],
                    ctx,
                );
            }
            (_, Message::Seal(key)) => self.on_seal(&key, ctx),
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
    producer_id: ProducerId,
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
        producer_id: ProducerId,
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
            // Each batch is pumped exactly once: move its tuples out.
            let (batch, tuples) = &mut self.batches[self.next_idx];
            let tuples = std::mem::take(tuples);
            self.next_idx += 1;
            let seal = batch_done(*batch, self.producer_id);
            send_downstream(&self.downstream, &mut self.rr, tuples, [seal], ctx);
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

    fn adapter(
        upstream: Vec<ProducerId>,
        mode: BatchHandling,
        coord: Option<usize>,
    ) -> BoltAdapter {
        BoltAdapter::new(
            Box::new(IdentityBolt),
            "test",
            7,
            0,
            upstream,
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

    fn seal_from(batch: i64, producer: i64) -> SealKey {
        SealKey::new([
            (BATCH_ATTR, Value::Int(batch)),
            (PRODUCER_ATTR, Value::Int(producer)),
        ])
    }

    /// The seals this adapter forwarded downstream (one per consumer
    /// instance per finished batch).
    fn forwarded(c: &Context) -> Vec<(usize, &SealKey)> {
        c.emitted()
            .iter()
            .filter_map(|(port, m)| match m {
                Message::Seal(k) => Some((*port, k)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn seal_requires_all_producers() {
        let mut a = adapter(vec![1, 2], BatchHandling::Streaming, None);
        let mut c = ctx();
        a.on_seal(&seal_from(0, 1), &mut c);
        assert!(forwarded(&c).is_empty());
        a.on_seal(&seal_from(0, 2), &mut c);
        let done = batch_done(0, 7);
        assert_eq!(forwarded(&c), vec![(0, &done), (1, &done)]);
    }

    #[test]
    fn duplicate_seals_from_same_producer_ignored() {
        let mut a = adapter(vec![1, 2], BatchHandling::Streaming, None);
        let mut c = ctx();
        for _ in 0..5 {
            a.on_seal(&seal_from(0, 1), &mut c);
        }
        assert!(
            forwarded(&c).is_empty(),
            "one producer cannot complete a 2-producer batch"
        );
        a.on_seal(&seal_from(0, 2), &mut c);
        a.on_seal(&seal_from(0, 2), &mut c);
        assert_eq!(forwarded(&c).len(), 2, "a finished batch finishes once");
    }

    #[test]
    fn injected_seal_uses_sentinel_producer() {
        let mut a = adapter(vec![INJECTED_PRODUCER], BatchHandling::Streaming, None);
        let mut c = ctx();
        a.on_seal(&SealKey::new([(BATCH_ATTR, Value::Int(3))]), &mut c);
        assert_eq!(forwarded(&c).len(), 2);
    }

    #[test]
    fn transactional_defers_until_grant() {
        let mut a = adapter(
            vec![INJECTED_PRODUCER],
            BatchHandling::Transactional,
            Some(9),
        );
        let mut c = ctx();
        a.on_seal(&SealKey::new([(BATCH_ATTR, Value::Int(0))]), &mut c);
        a.on_seal(&SealKey::new([(BATCH_ATTR, Value::Int(0))]), &mut c);
        assert!(forwarded(&c).is_empty(), "must wait for the grant");
        assert_eq!(
            c.emitted(),
            &[(9, Message::data([0i64, 0]))],
            "readiness is announced once"
        );
        a.on_grant(&Message::data([0i64]), &mut c);
        assert_eq!(forwarded(&c).len(), 2);
        // A duplicate grant is idempotent.
        a.on_grant(&Message::data([0i64]), &mut c);
        assert_eq!(forwarded(&c).len(), 2);
    }

    /// What `send_downstream` emitted before it moved into the last
    /// destination: a clone for every target, in routing order.
    fn clone_per_target(
        downstream: &[Downstream],
        rr: &mut [usize],
        tuples: &[Tuple],
        seals: &[SealKey],
    ) -> Vec<(usize, Message)> {
        let mut out = Vec::new();
        for tuple in tuples {
            for (d, cursor) in downstream.iter().zip(rr.iter_mut()) {
                match d.grouping.route(tuple, d.fanout, cursor) {
                    Some(target) => out.push((d.base_port + target, Message::Data(tuple.clone()))),
                    None => {
                        for t in 0..d.fanout {
                            out.push((d.base_port + t, Message::Data(tuple.clone())));
                        }
                    }
                }
            }
        }
        for seal in seals {
            for d in downstream {
                for t in 0..d.fanout {
                    out.push((d.base_port + t, Message::Seal(seal.clone())));
                }
            }
        }
        out
    }

    #[test]
    fn fan_out_emits_what_a_clone_per_target_emitted_in_the_same_order() {
        let subscription = |base_port, fanout, grouping| Downstream {
            base_port,
            fanout,
            grouping,
        };
        let mixed = vec![
            subscription(0, 3, Grouping::All),
            subscription(3, 4, Grouping::Fields(vec![0])),
            subscription(7, 2, Grouping::Shuffle),
        ];
        let words = ["apple", "fig", "pear", "kiwi", "apple", "plum", "fig"];
        let tuples: Vec<Tuple> = words
            .iter()
            .zip(0..)
            .map(|(w, i)| Tuple::new([Value::str(*w), Value::Int(i / 3)]))
            .collect();
        let seals = [batch_done(0, 7), batch_done(1, 7)];
        for downstream in [mixed.clone(), mixed[1..2].to_vec(), mixed[2..].to_vec()] {
            let mut rr = vec![0; downstream.len()];
            let mut expected_rr = rr.clone();
            let mut c = ctx();
            // Two calls: the shuffle cursor carries over between them.
            for (tuples, seals) in [(&tuples[..4], &seals[..1]), (&tuples[4..], &seals[1..])] {
                send_downstream(
                    &downstream,
                    &mut rr,
                    tuples.to_vec(),
                    seals.to_vec(),
                    &mut c,
                );
                let expected = clone_per_target(&downstream, &mut expected_rr, tuples, seals);
                let emitted = &c.emitted()[c.emitted().len() - expected.len()..];
                assert_eq!(emitted, expected.as_slice());
            }
            assert_eq!(rr, expected_rr);
        }
    }

    #[test]
    fn a_seal_without_a_batch_is_forwarded_to_every_port() {
        let mut a = adapter(vec![1], BatchHandling::Streaming, None);
        let mut c = ctx();
        let key = SealKey::new([("region", Value::Int(4))]);
        a.on_message(PORT_UPSTREAM, Message::Seal(key.clone()), &mut c);
        assert_eq!(forwarded(&c), vec![(0, &key), (1, &key)]);
        // Data goes out through the same reused buffer, once per call.
        for i in 0..2i64 {
            a.on_message(PORT_UPSTREAM, Message::data([i]), &mut c);
        }
        let data: Vec<_> = c
            .emitted()
            .iter()
            .filter(|(_, m)| m.as_data().is_some())
            .collect();
        assert_eq!(
            data,
            [
                &(0, Message::data([0i64])),
                &(1, Message::data([0i64])),
                &(0, Message::data([1i64])),
                &(1, Message::data([1i64])),
            ]
        );
    }

    #[test]
    fn batch_seal_helper_shape() {
        let Message::Seal(k) = batch_seal(5) else {
            panic!()
        };
        assert_eq!(k.value_of(BATCH_ATTR), Some(&Value::Int(5)));
    }
}
