//! The injected seal-protocol operator.
//!
//! A [`SealGate`] sits on the wires into one consumer instance whose input
//! the analysis proved sealable. It runs the paper's Section V-B1 protocol
//! *outside* the consumer, so the consumer itself stays the plain
//! uncoordinated component the programmer wrote:
//!
//! * covered records (recognized by arity) buffer per partition in a
//!   [`SealManager`] until every registered producer has sealed the
//!   partition (the unanimous vote), then release downstream in one burst,
//!   followed by the seal punctuation itself;
//! * queries (any other data tuple) are *delayed* until the partition they
//!   read has been released — the read-delay half of the protocol that
//!   makes answers functions of final partition contents only;
//! * duplicate seals after release are absorbed (idempotent votes);
//!   covered records arriving after their partition released — possible
//!   only on non-FIFO channels — are forwarded rather than lost, and
//!   counted in [`SealGateStats::late_forwards`].
//!
//! Seal keys may span several attributes: the gate then partitions on the
//! composite of all key values.
//!
//! [`SpeculativeSealGate`] is the time-warp variant for the parallel
//! backend's speculation mode: instead of buffering, it forwards covered
//! records and answers queries *ahead of* the unanimous vote, tagged with
//! a speculation epoch, and aborts the epoch when a straggler record
//! proves a speculative answer saw an incomplete partition.

use crate::rules::SealBinding;
use blazes_coord::seal::{SealManager, SealOutcome, PRODUCER_ATTR};
use blazes_dataflow::component::{Component, Context};
use blazes_dataflow::message::{Message, SealKey};
use blazes_dataflow::value::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Join key values into one partition identity. A single value stays
/// itself, so single-attribute seals keep their raw [`Value`] identity in
/// the producer registry; composites join the values' display forms with
/// the ASCII unit separator, which cannot occur in integer or boolean
/// renderings.
#[must_use]
fn composite_partition(values: Vec<Value>) -> Value {
    if values.len() == 1 {
        return values.into_iter().next().expect("one value");
    }
    let joined = values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\u{1f}");
    Value::str(joined)
}

/// Partition identity of a covered tuple under (possibly composite) key
/// columns; `None` when the tuple is too short.
#[must_use]
fn covered_partition(key_columns: &[usize], t: &Tuple) -> Option<Value> {
    if let &[column] = key_columns {
        // The common single-attribute seal: no intermediate `Vec`.
        return t.get(column).cloned();
    }
    key_columns
        .iter()
        .map(|&c| t.get(c).cloned())
        .collect::<Option<Vec<_>>>()
        .map(composite_partition)
}

/// Partition identity of a seal punctuation under (possibly composite)
/// key attributes; `None` when any attribute is missing — a seal for some
/// other key, not ours to gate.
#[must_use]
fn seal_partition(key_attrs: &[String], key: &SealKey) -> Option<Value> {
    key_attrs
        .iter()
        .map(|a| key.value_of(a).cloned())
        .collect::<Option<Vec<_>>>()
        .map(composite_partition)
}

/// Counters describing one gate's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealGateStats {
    /// Partitions released.
    pub released: u64,
    /// Covered records forwarded after their partition had released.
    pub late_forwards: u64,
    /// Queries that were delayed at least once.
    pub held_queries: u64,
    /// Duplicate seal votes absorbed by the underlying manager — the
    /// signature of a crash-recovered producer re-running its vote.
    pub revotes: u64,
}

/// The injected seal-protocol operator (one per coordinated consumer
/// instance and input port). All upstream wires converge on any input
/// port; everything leaves on output port 0, which the rewrite pass wires
/// to the consumer.
pub struct SealGate {
    mgr: SealManager,
    key_attrs: Vec<String>,
    binding: SealBinding,
    /// Queries delayed until their partition releases.
    held: BTreeMap<Value, Vec<Tuple>>,
    /// Seal punctuations collected per open partition, one per distinct
    /// producer (duplicated votes collapse), re-emitted after the
    /// partition's records on release so downstream hops running the
    /// protocol natively can complete their own unanimous votes.
    pending_seals: BTreeMap<Value, BTreeMap<usize, Message>>,
    released: BTreeSet<Value>,
    stats: SealGateStats,
    name: String,
}

impl SealGate {
    /// Build a gate enforcing `binding` for seal punctuations keyed by
    /// `key_attrs` in canonical (sorted) order, paired positionally with
    /// the binding's key columns.
    ///
    /// # Panics
    /// Panics when the attribute and column lists disagree in length.
    #[must_use]
    pub fn new(key_attrs: Vec<String>, binding: SealBinding, name: impl Into<String>) -> Self {
        assert_eq!(
            key_attrs.len(),
            binding.key_columns.len(),
            "seal key attributes and tuple key columns must pair up"
        );
        SealGate {
            mgr: SealManager::new(binding.registry.clone()),
            key_attrs,
            binding,
            held: BTreeMap::new(),
            pending_seals: BTreeMap::new(),
            released: BTreeSet::new(),
            stats: SealGateStats::default(),
            name: name.into(),
        }
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> SealGateStats {
        SealGateStats {
            revotes: self.mgr.revotes(),
            ..self.stats
        }
    }

    fn release(&mut self, partition: Value, tuples: Vec<Tuple>, ctx: &mut Context) {
        self.stats.released += 1;
        for t in tuples {
            ctx.emit(0, Message::Data(t));
        }
        // Every collected punctuation follows the records it covers, so a
        // downstream hop running the protocol natively can complete its
        // own unanimous vote (one seal per producer, none early).
        for (_, seal) in self.pending_seals.remove(&partition).unwrap_or_default() {
            ctx.emit(0, seal);
        }
        self.released.insert(partition.clone());
        for q in self.held.remove(&partition).unwrap_or_default() {
            ctx.emit(0, Message::Data(q));
        }
    }

    fn on_covered(&mut self, partition: Value, tuple: Tuple, ctx: &mut Context) {
        if let Some(late) = self.mgr.on_data(partition, tuple) {
            self.stats.late_forwards += 1;
            ctx.emit(0, Message::Data(late));
        }
    }

    fn on_query(&mut self, tuple: Tuple, ctx: &mut Context) {
        let partition = self
            .binding
            .query_partition
            .as_ref()
            .and_then(|f| f(&tuple));
        match partition {
            Some(p) if !self.released.contains(&p) => {
                self.stats.held_queries += 1;
                self.held.entry(p).or_default().push(tuple);
            }
            _ => ctx.emit(0, Message::Data(tuple)),
        }
    }
}

impl Component for SealGate {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(t) if t.arity() == self.binding.covered_arity => {
                match covered_partition(&self.binding.key_columns, &t) {
                    Some(partition) => self.on_covered(partition, t, ctx),
                    None => ctx.emit(0, Message::Data(t)),
                }
            }
            Message::Data(t) => self.on_query(t, ctx),
            Message::Seal(key) => {
                let Some(partition) = seal_partition(&self.key_attrs, &key) else {
                    // A seal for some other key: not ours to gate.
                    ctx.emit(0, Message::Seal(key));
                    return;
                };
                let producer = key
                    .value_of(PRODUCER_ATTR)
                    .and_then(Value::as_int)
                    .unwrap_or(0) as usize;
                // `a` = voting producer, `b` = gate instance.
                blazes_obs::record(
                    blazes_obs::EventKind::SealVote,
                    producer as u64,
                    ctx.instance.0 as u64,
                );
                match self.mgr.on_seal(partition.clone(), producer) {
                    SealOutcome::Released(tuples) => {
                        self.pending_seals
                            .entry(partition.clone())
                            .or_default()
                            .insert(producer, Message::Seal(key));
                        self.release(partition, tuples, ctx);
                    }
                    // Partial vote: remember the punctuation for the
                    // release burst (one per producer). Duplicate seal
                    // after release: absorb (idempotent).
                    SealOutcome::Buffered => {
                        if !self.released.contains(&partition) {
                            self.pending_seals
                                .entry(partition)
                                .or_default()
                                .insert(producer, Message::Seal(key));
                        }
                    }
                    SealOutcome::LateArrival => {}
                }
            }
            Message::Eos => ctx.emit(0, Message::Eos),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Counters describing one speculative gate's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecGateStats {
    /// Partitions released (unanimous vote completed).
    pub released: u64,
    /// Covered records forwarded committed after their partition released.
    pub late_forwards: u64,
    /// Covered records forwarded speculatively ahead of their seal.
    pub speculative_forwards: u64,
    /// Queries answered speculatively ahead of their partition's seal.
    pub speculative_queries: u64,
    /// Queries held back the blocking way (burned partitions only).
    pub held_queries: u64,
    /// Speculation sessions aborted by a straggler record arriving behind
    /// a speculatively answered query.
    pub violations: u64,
    /// Speculation sessions opened.
    pub sessions: u64,
    /// Sessions resolved by the runtime's end-of-run drain signal (the
    /// never-sealed case: some partition's unanimous vote never arrived).
    pub drained_sessions: u64,
}

/// Everything emitted speculatively for one partition, kept so a
/// violation can re-emit it — committed for partitions whose vote had
/// completed, under a fresh epoch for partitions still open.
#[derive(Default)]
struct PartRetain {
    records: Vec<Tuple>,
    seals: Vec<Message>,
    queries: Vec<Tuple>,
    released: bool,
}

/// The time-warp seal operator: same wire protocol as [`SealGate`], but
/// optimistic. Covered records and queries flow through immediately,
/// tagged with a speculation epoch (the *session*); the session commits
/// once every partition it touched has completed its unanimous vote. A
/// straggler record arriving behind a speculatively answered query of the
/// same partition proves that answer saw an incomplete partition — the
/// gate then aborts the whole session (rolling back every consumer that
/// used its output), re-emits the already-voted partitions committed, and
/// re-speculates the rest under a fresh session. The violated partition is
/// permanently *burned* back to the blocking protocol, so each violation
/// retires one partition from speculation and the abort count is bounded
/// by the partition count.
///
/// Digest identity with the blocking gate rests on two facts: violation
/// detection is complete (any record arriving behind a speculative query
/// of an open partition aborts, so a surviving speculative answer saw the
/// full partition), and query responses are functions of the queried
/// partition's final contents only.
///
/// Only meaningful under the parallel backend with
/// `ParTuning::with_speculation` — the simulator rejects speculative
/// emissions.
pub struct SpeculativeSealGate {
    mgr: SealManager,
    key_attrs: Vec<String>,
    binding: SealBinding,
    /// Seal punctuations collected per open partition, one per distinct
    /// producer, exactly as in the blocking gate.
    pending_seals: BTreeMap<Value, BTreeMap<usize, Message>>,
    released: BTreeSet<Value>,
    /// The open speculation epoch, if any. One session tags all
    /// speculative traffic until it commits or aborts.
    session: Option<u64>,
    /// Monotonic per-gate sequence for minting distinct epoch ids.
    epoch_seq: u64,
    /// Speculative output per partition, for re-emission on violation.
    retained: BTreeMap<Value, PartRetain>,
    /// Partitions in the order their votes completed during this session,
    /// so a violation can re-emit their bursts in release order.
    release_order: Vec<Value>,
    /// Partitions retired from speculation by a violation.
    burned: BTreeSet<Value>,
    /// Blocking-style held queries, burned partitions only.
    held: BTreeMap<Value, Vec<Tuple>>,
    stats: SpecGateStats,
    name: String,
}

impl SpeculativeSealGate {
    /// Build a speculative gate; `key_attrs` in canonical (sorted) order,
    /// paired positionally with the binding's key columns.
    ///
    /// # Panics
    /// Panics when the attribute and column lists disagree in length.
    #[must_use]
    pub fn new(key_attrs: Vec<String>, binding: SealBinding, name: impl Into<String>) -> Self {
        assert_eq!(
            key_attrs.len(),
            binding.key_columns.len(),
            "seal key attributes and tuple key columns must pair up"
        );
        SpeculativeSealGate {
            mgr: SealManager::new(binding.registry.clone()),
            key_attrs,
            binding,
            pending_seals: BTreeMap::new(),
            released: BTreeSet::new(),
            session: None,
            epoch_seq: 0,
            retained: BTreeMap::new(),
            release_order: Vec::new(),
            burned: BTreeSet::new(),
            held: BTreeMap::new(),
            stats: SpecGateStats::default(),
            name: name.into(),
        }
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> SpecGateStats {
        self.stats
    }

    /// The current session epoch, minted lazily on first speculative
    /// emission. Ids embed the gate's instance so concurrent gates never
    /// collide; 0 is reserved for "committed".
    fn session_epoch(&mut self, ctx: &Context) -> u64 {
        if let Some(e) = self.session {
            return e;
        }
        self.epoch_seq += 1;
        let e = ((ctx.instance.0 as u64 + 1) << 32) | self.epoch_seq;
        self.session = Some(e);
        self.stats.sessions += 1;
        e
    }

    fn on_covered(&mut self, partition: Value, tuple: Tuple, ctx: &mut Context) {
        if let Some(late) = self.mgr.on_data(partition.clone(), tuple.clone()) {
            // After release the partition's contents are final on both
            // gates; forward committed exactly like blocking.
            self.stats.late_forwards += 1;
            ctx.emit(0, Message::Data(late));
            return;
        }
        if self.burned.contains(&partition) {
            // Burned partitions run the blocking protocol: the manager
            // buffers, the unanimous vote releases.
            return;
        }
        if self
            .retained
            .get(&partition)
            .is_some_and(|r| !r.queries.is_empty())
        {
            // A straggler behind a speculatively answered query of the
            // same partition: that answer saw an incomplete partition.
            // Abort the session.
            self.violation(partition, ctx);
            return;
        }
        let epoch = self.session_epoch(ctx);
        self.stats.speculative_forwards += 1;
        ctx.emit_speculative(0, Message::Data(tuple.clone()), epoch);
        self.retained
            .entry(partition)
            .or_default()
            .records
            .push(tuple);
    }

    fn on_query(&mut self, tuple: Tuple, ctx: &mut Context) {
        let partition = self
            .binding
            .query_partition
            .as_ref()
            .and_then(|f| f(&tuple));
        match partition {
            Some(p) if self.burned.contains(&p) => {
                self.stats.held_queries += 1;
                self.held.entry(p).or_default().push(tuple);
            }
            Some(p) if self.released.contains(&p) && !self.retained.contains_key(&p) => {
                // Released outside any live session: fully committed.
                ctx.emit(0, Message::Data(tuple));
            }
            Some(p) => {
                // Open, or released within the live session: answer now,
                // speculatively. For an open partition this also arms the
                // violation trigger — a later record for `p` aborts.
                let epoch = self.session_epoch(ctx);
                self.stats.speculative_queries += 1;
                ctx.emit_speculative(0, Message::Data(tuple.clone()), epoch);
                self.retained.entry(p).or_default().queries.push(tuple);
            }
            None => ctx.emit(0, Message::Data(tuple)),
        }
    }

    fn release_spec(&mut self, partition: Value, tuples: Vec<Tuple>, ctx: &mut Context) {
        self.stats.released += 1;
        let seals: Vec<Message> = self
            .pending_seals
            .remove(&partition)
            .unwrap_or_default()
            .into_values()
            .collect();
        if self.burned.remove(&partition) {
            // Blocking semantics for a burned partition: the buffered
            // burst, the punctuations, then the held queries — all
            // committed.
            for t in tuples {
                ctx.emit(0, Message::Data(t));
            }
            for s in &seals {
                ctx.emit(0, s.clone());
            }
            self.released.insert(partition.clone());
            for q in self.held.remove(&partition).unwrap_or_default() {
                ctx.emit(0, Message::Data(q));
            }
        } else if self.session.is_some() {
            // Records already flowed speculatively as they arrived; the
            // vote adds only the punctuations, tagged with the session so
            // a downstream native vote rolls back with everything else.
            let epoch = self.session_epoch(ctx);
            for s in &seals {
                ctx.emit_speculative(0, s.clone(), epoch);
            }
            self.released.insert(partition.clone());
            let retain = self.retained.entry(partition.clone()).or_default();
            retain.released = true;
            retain.seals = seals;
            self.release_order.push(partition);
        } else {
            // No speculation outstanding (a partition sealed before any
            // of its records or readers showed up): plain committed
            // release.
            for t in tuples {
                ctx.emit(0, Message::Data(t));
            }
            for s in seals {
                ctx.emit(0, s);
            }
            self.released.insert(partition);
        }
        self.maybe_commit(ctx);
    }

    /// Commit the session once every partition it touched has completed
    /// its vote. Burned partitions never block the commit: their output
    /// is committed on release regardless of the session's fate.
    fn maybe_commit(&mut self, ctx: &mut Context) {
        let Some(epoch) = self.session else { return };
        if !self.retained.values().all(|r| r.released) {
            return;
        }
        self.session = None;
        ctx.resolve_speculation(epoch, true);
        self.retained.clear();
        self.release_order.clear();
    }

    /// A straggler record invalidated a speculative answer for
    /// `violated`. Abort the session, burn the violated partition back to
    /// blocking, re-emit completed partitions committed (in release
    /// order, so consumers replay them deterministically), and
    /// re-speculate the still-open remainder under a fresh session.
    fn violation(&mut self, violated: Value, ctx: &mut Context) {
        self.stats.violations += 1;
        let old = self
            .session
            .take()
            .expect("violation implies an open session");
        self.burned.insert(violated.clone());
        if let Some(retain) = self.retained.remove(&violated) {
            // The violated partition's records stay buffered in the
            // manager (its speculative copies die with the epoch); its
            // queries wait the blocking way for the vote.
            self.stats.held_queries += retain.queries.len() as u64;
            self.held
                .entry(violated.clone())
                .or_default()
                .extend(retain.queries);
        }
        // Consumers roll back before any of the re-emissions below reach
        // them: the abort resolution is ordered ahead of these sends.
        ctx.resolve_speculation(old, false);
        let mut remaining = std::mem::take(&mut self.retained);
        for p in std::mem::take(&mut self.release_order) {
            let Some(r) = remaining.remove(&p) else {
                continue;
            };
            for t in r.records {
                ctx.emit(0, Message::Data(t));
            }
            for s in r.seals {
                ctx.emit(0, s);
            }
            for q in r.queries {
                ctx.emit(0, Message::Data(q));
            }
        }
        // Still-open partitions re-speculate under a fresh session, in
        // deterministic key order.
        for (p, r) in remaining {
            let epoch = self.session_epoch(ctx);
            let entry = self.retained.entry(p).or_default();
            for t in r.records {
                ctx.emit_speculative(0, Message::Data(t.clone()), epoch);
                entry.records.push(t);
            }
            for q in r.queries {
                ctx.emit_speculative(0, Message::Data(q.clone()), epoch);
                entry.queries.push(q);
            }
        }
    }
}

impl SpeculativeSealGate {
    /// Resolve a never-sealed session at run end. The runtime only sends
    /// the drain signal once no in-flight message can still reach this
    /// gate, so an open session here will never commit: abort it (every
    /// consumer rolls back), re-emit the partitions whose votes *did*
    /// complete committed — in release order, exactly as a violation
    /// replays them — and hold the unsealed partitions back the blocking
    /// way: records stay buffered in the manager, queries wait for a
    /// vote that, at run end, never comes. That is precisely what the
    /// blocking gate would have delivered.
    fn drain_session(&mut self, ctx: &mut Context) {
        let Some(epoch) = self.session.take() else {
            return;
        };
        self.stats.drained_sessions += 1;
        // Consumers roll back before any re-emission below reaches them.
        ctx.resolve_speculation(epoch, false);
        let mut remaining = std::mem::take(&mut self.retained);
        for p in std::mem::take(&mut self.release_order) {
            let Some(r) = remaining.remove(&p) else {
                continue;
            };
            for t in r.records {
                ctx.emit(0, Message::Data(t));
            }
            for s in r.seals {
                ctx.emit(0, s);
            }
            for q in r.queries {
                ctx.emit(0, Message::Data(q));
            }
        }
        // Unsealed partitions fall back to blocking: their records are
        // still buffered in the manager (the speculative copies died
        // with the epoch), their queries wait for the vote. No
        // re-speculation — the run is ending.
        for (p, r) in remaining {
            self.stats.held_queries += r.queries.len() as u64;
            self.held.entry(p.clone()).or_default().extend(r.queries);
            self.burned.insert(p);
        }
    }
}

impl Component for SpeculativeSealGate {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(t) if t.arity() == self.binding.covered_arity => {
                match covered_partition(&self.binding.key_columns, &t) {
                    Some(partition) => self.on_covered(partition, t, ctx),
                    None => ctx.emit(0, Message::Data(t)),
                }
            }
            Message::Data(t) => self.on_query(t, ctx),
            Message::Seal(key) => {
                let Some(partition) = seal_partition(&self.key_attrs, &key) else {
                    ctx.emit(0, Message::Seal(key));
                    return;
                };
                let producer = key
                    .value_of(PRODUCER_ATTR)
                    .and_then(Value::as_int)
                    .unwrap_or(0) as usize;
                // `a` = voting producer, `b` = gate instance.
                blazes_obs::record(
                    blazes_obs::EventKind::SealVote,
                    producer as u64,
                    ctx.instance.0 as u64,
                );
                match self.mgr.on_seal(partition.clone(), producer) {
                    SealOutcome::Released(tuples) => {
                        self.pending_seals
                            .entry(partition.clone())
                            .or_default()
                            .insert(producer, Message::Seal(key));
                        self.release_spec(partition, tuples, ctx);
                    }
                    SealOutcome::Buffered => {
                        if !self.released.contains(&partition) {
                            self.pending_seals
                                .entry(partition)
                                .or_default()
                                .insert(producer, Message::Seal(key));
                        }
                    }
                    SealOutcome::LateArrival => {}
                }
            }
            Message::Eos => ctx.emit(0, Message::Eos),
        }
    }

    fn on_drain(&mut self, ctx: &mut Context) {
        self.drain_session(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_coord::registry::ProducerRegistry;
    use blazes_dataflow::message::SealKey;
    use blazes_dataflow::sim::InstanceId;
    use std::sync::Arc;

    fn click(campaign: i64, n: i64) -> Tuple {
        Tuple::new([Value::Int(n), Value::Int(campaign), Value::Int(0)])
    }

    fn seal(campaign: i64, producer: i64) -> Message {
        Message::Seal(SealKey::new([
            ("campaign", Value::Int(campaign)),
            ("producer", Value::Int(producer)),
        ]))
    }

    fn gate(producers: usize, with_query_map: bool) -> SealGate {
        let mut binding = SealBinding::new(ProducerRegistry::all_produce(0..producers), vec![1], 3);
        if with_query_map {
            binding = binding.with_query_partition(Arc::new(|t: &Tuple| t.get(0).cloned()));
        }
        SealGate::new(vec!["campaign".to_string()], binding, "gate")
    }

    fn ctx() -> Context {
        Context::new(0, InstanceId(0))
    }

    #[test]
    fn buffers_until_unanimous_vote_then_releases_with_punctuation() {
        let mut g = gate(2, false);
        let mut c = ctx();
        g.on_message(0, Message::Data(click(1, 10)), &mut c);
        g.on_message(0, seal(1, 0), &mut c);
        assert!(c.emitted().is_empty(), "one vote of two must not release");
        g.on_message(0, Message::Data(click(1, 11)), &mut c);
        g.on_message(0, seal(1, 1), &mut c);
        let out = c.emitted();
        assert_eq!(out.len(), 4, "two records then both votes: {out:?}");
        assert_eq!(out[0].1, Message::Data(click(1, 10)));
        assert_eq!(out[1].1, Message::Data(click(1, 11)));
        assert!(matches!(out[2].1, Message::Seal(_)));
        assert!(matches!(out[3].1, Message::Seal(_)));
        assert_eq!(g.stats().released, 1);
    }

    #[test]
    fn duplicate_seals_are_idempotent() {
        let mut g = gate(2, false);
        let mut c = ctx();
        g.on_message(0, Message::Data(click(1, 1)), &mut c);
        g.on_message(0, seal(1, 0), &mut c);
        g.on_message(0, seal(1, 0), &mut c); // duplicated vote
        assert!(c.emitted().is_empty());
        g.on_message(0, seal(1, 1), &mut c);
        // One record, then one punctuation per producer (the duplicated
        // vote collapsed).
        assert_eq!(c.emitted().len(), 3);
        g.on_message(0, seal(1, 1), &mut c); // duplicate after release
        assert_eq!(c.emitted().len(), 3, "late duplicate absorbed");
        assert_eq!(g.stats().released, 1);
    }

    #[test]
    fn seal_before_any_data_releases_empty_partition() {
        let mut g = gate(1, false);
        let mut c = ctx();
        g.on_message(0, seal(5, 0), &mut c);
        assert_eq!(c.emitted().len(), 1, "just the punctuation");
        // A straggler after release is forwarded, not lost.
        g.on_message(0, Message::Data(click(5, 9)), &mut c);
        assert_eq!(c.emitted().len(), 2);
        assert_eq!(c.emitted()[1].1, Message::Data(click(5, 9)));
        assert_eq!(g.stats().late_forwards, 1);
    }

    #[test]
    fn queries_are_delayed_until_their_partition_releases() {
        let mut g = gate(1, true);
        let mut c = ctx();
        let query = Tuple::new([Value::Int(2)]);
        g.on_message(0, Message::Data(query.clone()), &mut c);
        assert!(c.emitted().is_empty(), "query held until campaign 2 seals");
        g.on_message(0, Message::Data(click(2, 7)), &mut c);
        g.on_message(0, seal(2, 0), &mut c);
        let out = c.emitted();
        assert_eq!(out.len(), 3, "record, seal, then the delayed query");
        assert_eq!(out[2].1, Message::Data(query));
        assert_eq!(g.stats().held_queries, 1);
    }

    #[test]
    fn queries_for_released_partitions_pass_straight_through() {
        let mut g = gate(1, true);
        let mut c = ctx();
        g.on_message(0, seal(3, 0), &mut c);
        g.on_message(0, Message::Data(Tuple::new([Value::Int(3)])), &mut c);
        assert_eq!(c.emitted().len(), 2);
    }

    /// The chaining property: a consumer that runs the seal protocol
    /// *natively* downstream of the gate still completes its own
    /// unanimous vote, because the gate re-emits every producer's
    /// punctuation after the released records.
    #[test]
    fn released_punctuations_complete_a_downstream_native_vote() {
        let mut g = gate(2, false);
        let mut c = ctx();
        g.on_message(0, Message::Data(click(4, 1)), &mut c);
        g.on_message(0, Message::Data(click(4, 2)), &mut c);
        g.on_message(0, seal(4, 0), &mut c);
        g.on_message(0, seal(4, 1), &mut c);

        // Replay the gate's output into a second, native seal consumer.
        let mut downstream = SealManager::new(ProducerRegistry::all_produce(0..2));
        let mut released = None;
        for (_, msg) in c.emitted() {
            match msg {
                Message::Data(t) => {
                    assert_eq!(
                        downstream.on_data(t.get(1).cloned().unwrap(), t.clone()),
                        None
                    );
                }
                Message::Seal(key) => {
                    let campaign = key.value_of("campaign").cloned().unwrap();
                    let producer = key.value_of("producer").and_then(Value::as_int).unwrap();
                    if let SealOutcome::Released(tuples) =
                        downstream.on_seal(campaign, producer as usize)
                    {
                        released = Some(tuples);
                    }
                }
                Message::Eos => {}
            }
        }
        assert_eq!(
            released.map(|t| t.len()),
            Some(2),
            "downstream unanimous vote must complete with the full buffer"
        );
    }

    #[test]
    fn unmapped_queries_and_foreign_seals_forward() {
        let mut g = gate(1, false); // no query map: queries pass through
        let mut c = ctx();
        g.on_message(0, Message::Data(Tuple::new([Value::Int(1)])), &mut c);
        g.on_message(
            0,
            Message::Seal(SealKey::new([("batch", Value::Int(0))])),
            &mut c,
        );
        g.on_message(0, Message::Eos, &mut c);
        assert_eq!(c.emitted().len(), 3);
    }

    #[test]
    fn composite_partition_identities() {
        assert_eq!(
            composite_partition(vec![Value::Int(7)]),
            Value::Int(7),
            "single values keep their raw identity"
        );
        let ab = composite_partition(vec![Value::Int(1), Value::Int(2)]);
        let ba = composite_partition(vec![Value::Int(2), Value::Int(1)]);
        assert_ne!(ab, ba, "composite order matters");
        assert_eq!(ab, Value::str("1\u{1f}2"));
        // Helpers agree on the identity from both sides of the wire.
        let t = Tuple::new([Value::Int(99), Value::Int(1), Value::Int(2)]);
        assert_eq!(covered_partition(&[1, 2], &t), Some(ab.clone()));
        let key = SealKey::new([
            ("campaign", Value::Int(1)),
            ("window", Value::Int(2)),
            ("producer", Value::Int(0)),
        ]);
        assert_eq!(
            seal_partition(&["campaign".to_string(), "window".to_string()], &key),
            Some(ab)
        );
        assert_eq!(covered_partition(&[1, 9], &t), None, "short tuple");
        assert_eq!(covered_partition(&[1], &t), Some(Value::Int(1)));
        assert_eq!(covered_partition(&[9], &t), None, "short tuple, one column");
        assert_eq!(
            seal_partition(&["campaign".to_string(), "missing".to_string()], &key),
            None,
            "incomplete seal key is foreign"
        );
    }

    /// Multi-attribute sealing: ad-report gated on (campaign, window).
    /// Sealing one window of a campaign must not release the other.
    #[test]
    fn multi_attribute_keys_seal_independent_composites() {
        let binding = SealBinding::new(ProducerRegistry::all_produce(0..1), vec![1, 2], 3);
        let mut g = SealGate::new(
            vec!["campaign".to_string(), "window".to_string()],
            binding,
            "gate",
        );
        let mut c = ctx();
        let click = |campaign: i64, window: i64, n: i64| {
            Message::Data(Tuple::new([
                Value::Int(n),
                Value::Int(campaign),
                Value::Int(window),
            ]))
        };
        let seal = |campaign: i64, window: i64| {
            Message::Seal(SealKey::new([
                ("campaign", Value::Int(campaign)),
                ("window", Value::Int(window)),
                ("producer", Value::Int(0)),
            ]))
        };
        g.on_message(0, click(1, 0, 10), &mut c);
        g.on_message(0, click(1, 1, 11), &mut c);
        g.on_message(0, seal(1, 0), &mut c);
        let out = c.emitted().to_vec();
        assert_eq!(out.len(), 2, "window 0's record and punctuation only");
        assert_eq!(out[0].1, click(1, 0, 10));
        assert!(matches!(out[1].1, Message::Seal(_)));
        g.on_message(0, seal(1, 1), &mut c);
        assert_eq!(c.emitted().len(), 4, "window 1 releases separately");
        assert_eq!(g.stats().released, 2);
    }

    #[test]
    #[should_panic(expected = "must pair up")]
    fn mismatched_key_columns_are_rejected() {
        let binding = SealBinding::new(ProducerRegistry::all_produce(0..1), vec![1], 3);
        let _ = SealGate::new(
            vec!["campaign".to_string(), "window".to_string()],
            binding,
            "gate",
        );
    }

    fn spec_gate(producers: usize) -> SpeculativeSealGate {
        let binding = SealBinding::new(ProducerRegistry::all_produce(0..producers), vec![1], 3)
            .with_query_partition(Arc::new(|t: &Tuple| t.get(0).cloned()));
        SpeculativeSealGate::new(vec!["campaign".to_string()], binding, "spec-gate")
    }

    /// The optimistic fast path: records and queries flow immediately
    /// under a speculation epoch, and the session commits once every
    /// touched partition's vote completes.
    #[test]
    fn speculative_gate_forwards_ahead_of_the_vote_and_commits() {
        let mut g = spec_gate(2);
        let mut c = ctx();
        g.on_message(0, Message::Data(click(1, 10)), &mut c);
        assert_eq!(c.emitted().len(), 1, "record forwarded without waiting");
        let epoch = c.emission_epoch(0);
        assert_ne!(epoch, 0, "forwarded speculatively, not committed");
        let query = Tuple::new([Value::Int(1)]);
        g.on_message(0, Message::Data(query.clone()), &mut c);
        assert_eq!(c.emitted().len(), 2, "query answered without waiting");
        assert_eq!(c.emission_epoch(1), epoch, "one session tags everything");
        assert!(c.resolutions().is_empty(), "nothing resolved yet");
        g.on_message(0, seal(1, 0), &mut c);
        g.on_message(0, seal(1, 1), &mut c);
        // Both punctuations forwarded speculatively, then the session
        // commits: every touched partition completed its vote.
        let out = c.emitted().to_vec();
        assert_eq!(out.len(), 4);
        assert!(matches!(out[2].1, Message::Seal(_)));
        assert!(matches!(out[3].1, Message::Seal(_)));
        assert_eq!(c.resolutions(), &[(epoch, true, 4)]);
        let stats = g.stats();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.speculative_forwards, 1);
        assert_eq!(stats.speculative_queries, 1);
        assert_eq!(stats.violations, 0);
    }

    /// A partially-voted partition keeps the session open: committing
    /// after one of two votes would make the speculation unfalsifiable.
    #[test]
    fn partial_votes_do_not_commit_the_session() {
        let mut g = spec_gate(2);
        let mut c = ctx();
        g.on_message(0, Message::Data(click(1, 10)), &mut c);
        g.on_message(0, seal(1, 0), &mut c);
        assert!(c.resolutions().is_empty(), "one vote of two: still open");
        assert_eq!(g.stats().released, 0);
    }

    /// The time-warp correctness core: a record arriving behind a
    /// speculatively answered query aborts the session, burns the
    /// partition back to blocking, and the blocking replay produces
    /// exactly what the blocking gate would have.
    #[test]
    fn straggler_behind_a_speculative_query_aborts_and_replays_blocking() {
        let mut g = spec_gate(1);
        let mut c = ctx();
        let query = Tuple::new([Value::Int(1)]);
        g.on_message(0, Message::Data(click(1, 10)), &mut c);
        g.on_message(0, Message::Data(query.clone()), &mut c);
        let epoch = c.emission_epoch(0);
        g.on_message(0, Message::Data(click(1, 11)), &mut c); // straggler
        assert_eq!(c.resolutions(), &[(epoch, false, 2)], "session aborted");
        assert_eq!(c.emitted().len(), 2, "no re-speculation: all burned");
        g.on_message(0, seal(1, 0), &mut c);
        // Blocking replay: both records, the punctuation, then the held
        // query — all committed.
        let out = c.emitted().to_vec();
        assert_eq!(out.len(), 6, "{out:?}");
        assert_eq!(out[2].1, Message::Data(click(1, 10)));
        assert_eq!(out[3].1, Message::Data(click(1, 11)));
        assert!(matches!(out[4].1, Message::Seal(_)));
        assert_eq!(out[5].1, Message::Data(query));
        for i in 2..6 {
            assert_eq!(c.emission_epoch(i), 0, "replay is committed");
        }
        let stats = g.stats();
        assert_eq!(stats.violations, 1);
        assert_eq!(stats.held_queries, 1);
        assert_eq!(stats.released, 1);
    }

    /// A violation in one partition re-speculates the other open
    /// partitions under a fresh session instead of blocking them.
    #[test]
    fn violation_respeculates_untouched_partitions_under_a_fresh_epoch() {
        let mut g = spec_gate(1);
        let mut c = ctx();
        g.on_message(0, Message::Data(click(1, 10)), &mut c);
        g.on_message(0, Message::Data(click(2, 20)), &mut c);
        g.on_message(0, Message::Data(Tuple::new([Value::Int(1)])), &mut c);
        let old = c.emission_epoch(0);
        g.on_message(0, Message::Data(click(1, 11)), &mut c); // violation
        let out = c.emitted().to_vec();
        // Abort, then campaign 2's record re-speculated under a new
        // session (campaign 1 is burned, its traffic waits for the vote).
        assert_eq!(c.resolutions(), &[(old, false, 3)]);
        assert_eq!(out.len(), 4, "{out:?}");
        assert_eq!(out[3].1, Message::Data(click(2, 20)));
        let fresh = c.emission_epoch(3);
        assert_ne!(fresh, 0);
        assert_ne!(fresh, old, "fresh session after the abort");
        assert_eq!(g.stats().sessions, 2);
        // Campaign 2's vote completes: its session commits even while
        // burned campaign 1 stays open the blocking way.
        g.on_message(0, seal(2, 0), &mut c);
        assert_eq!(
            c.resolutions().last(),
            Some(&(fresh, true, 5)),
            "fresh session commits on campaign 2's vote"
        );
    }

    /// Released-then-committed partitions stop participating in later
    /// sessions: their queries pass straight through.
    #[test]
    fn committed_partitions_answer_queries_without_speculation() {
        let mut g = spec_gate(1);
        let mut c = ctx();
        g.on_message(0, Message::Data(click(3, 30)), &mut c);
        g.on_message(0, seal(3, 0), &mut c);
        assert_eq!(c.resolutions().len(), 1, "session committed");
        g.on_message(0, Message::Data(Tuple::new([Value::Int(3)])), &mut c);
        let out = c.emitted().to_vec();
        assert_eq!(out.len(), 3);
        assert_eq!(c.emission_epoch(2), 0, "query committed, no session");
        assert_eq!(g.stats().sessions, 1, "no new session minted");
    }

    /// The end-of-run drain: a session held open by one never-sealed
    /// partition aborts, the voted partition replays committed, and the
    /// unsealed partition's traffic is withheld — blocking semantics.
    #[test]
    fn drain_aborts_open_session_and_replays_voted_partitions_committed() {
        let mut g = spec_gate(1);
        let mut c = ctx();
        g.on_message(0, Message::Data(click(1, 10)), &mut c);
        g.on_message(0, Message::Data(click(2, 20)), &mut c);
        g.on_message(0, Message::Data(Tuple::new([Value::Int(2)])), &mut c);
        let epoch = c.emission_epoch(0);
        // Campaign 1 seals; campaign 2 never does, so the session stays
        // open (its speculation is unfalsified but unconfirmed).
        g.on_message(0, seal(1, 0), &mut c);
        assert!(
            c.resolutions().is_empty(),
            "unsealed campaign 2 holds it open"
        );
        g.on_drain(&mut c);
        // Abort, then campaign 1's burst replays committed: its record
        // and its punctuation, in release order. Campaign 2's record and
        // query are withheld exactly as the blocking gate would.
        assert_eq!(c.resolutions(), &[(epoch, false, 4)]);
        let out = c.emitted().to_vec();
        assert_eq!(out.len(), 6, "{out:?}");
        assert_eq!(out[4].1, Message::Data(click(1, 10)));
        assert!(matches!(out[5].1, Message::Seal(_)));
        assert_eq!(c.emission_epoch(4), 0, "replay is committed");
        assert_eq!(c.emission_epoch(5), 0, "replay is committed");
        assert_eq!(g.stats().drained_sessions, 1);
        assert_eq!(g.stats().held_queries, 1, "campaign 2's query waits");
        // A second drain is idempotent: no session left to resolve.
        g.on_drain(&mut c);
        assert_eq!(c.resolutions().len(), 1);
        // Should campaign 2's vote arrive after all (a premature rescue),
        // the burned partition releases blocking-style, fully committed.
        g.on_message(0, seal(2, 0), &mut c);
        let out = c.emitted().to_vec();
        assert_eq!(out.len(), 9, "record, punctuation, held query: {out:?}");
        assert_eq!(out[6].1, Message::Data(click(2, 20)));
        assert!(matches!(out[7].1, Message::Seal(_)));
        assert_eq!(out[8].1, Message::Data(Tuple::new([Value::Int(2)])));
        for i in 6..9 {
            assert_eq!(c.emission_epoch(i), 0);
        }
    }

    /// An empty partition sealed while no speculation is outstanding
    /// releases committed, exactly like the blocking gate.
    #[test]
    fn speculative_gate_releases_empty_partitions_committed() {
        let mut g = spec_gate(1);
        let mut c = ctx();
        g.on_message(0, seal(5, 0), &mut c);
        assert_eq!(c.emitted().len(), 1, "just the punctuation");
        assert_eq!(c.emission_epoch(0), 0);
        assert!(c.resolutions().is_empty(), "no session to resolve");
    }
}
