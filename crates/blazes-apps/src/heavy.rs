//! Heavy-compute workload family: a CPU-weighted hashing wordcount.
//!
//! Every workload the paper measures is coordination-bound; on the
//! parallel backend those tiny operators are channel-bound, so par ≈ sim
//! and the coordination-free speedup Blazes argues for (confluent dataflows
//! run at full hardware speed, no worker ever blocks on a global barrier)
//! never shows. This family makes each record *cost CPU*: producers emit
//! `(key, payload)` records, mappers burn a configurable number of hash
//! rounds per record, reducers fold the hashed values per key and publish a
//! digest. The digest is a commutative fold, so the topology is confluent
//! and differential-testable against the simulator; the per-record cost is
//! real work, so worker parallelism — and, under a skewed key
//! distribution, dynamic load balancing — is measurable.
//!
//! The key distribution is the load-skew knob: with
//! [`HeavyConfig::zipf_exponent`]` = 0.0` mapper partitions are uniform
//! (the scaling benchmark); with an exponent ≥ 1 one mapper partition
//! dominates (the ad-report-join-like skew that only dynamic load
//! balancing — work stealing — spreads across workers).

use crate::workload::Zipf;
use blazes_dataflow::backend::{
    build_local, BackendRunStats, BackendSpec, ExecutorBuilder, PortId,
};
use blazes_dataflow::channel::ChannelConfig;
use blazes_dataflow::component::{Component, Context};
use blazes_dataflow::message::Message;
use blazes_dataflow::sinks::CollectorSink;
use blazes_dataflow::value::{Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Configuration of one heavy-compute run.
#[derive(Debug, Clone)]
pub struct HeavyConfig {
    /// Producer (source) instances.
    pub producers: usize,
    /// Mapper instances; records partition to `key % mappers`.
    pub mappers: usize,
    /// Reducer instances; hashed records partition to `key % reducers`.
    pub reducers: usize,
    /// Total records across all producers.
    pub records: usize,
    /// Hash rounds burned per record at a mapper (the per-record CPU
    /// cost; ~1µs per 250 rounds on commodity hardware).
    pub hash_rounds: u32,
    /// Distinct keys.
    pub keys: usize,
    /// Zipf exponent of the key distribution; `0.0` = uniform.
    pub zipf_exponent: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for HeavyConfig {
    fn default() -> Self {
        HeavyConfig {
            producers: 2,
            mappers: 8,
            reducers: 2,
            records: 20_000,
            hash_rounds: 512,
            keys: 64,
            zipf_exponent: 0.0,
            seed: 23,
        }
    }
}

impl HeavyConfig {
    /// The uniform-key scaling workload (parallelism wins).
    #[must_use]
    pub fn uniform(records: usize, hash_rounds: u32) -> Self {
        HeavyConfig {
            records,
            hash_rounds,
            ..HeavyConfig::default()
        }
    }

    /// The skewed-key workload: keys equal mapper count and follow a steep
    /// Zipf, so one mapper partition dominates (the load work stealing
    /// has to rebalance).
    #[must_use]
    pub fn skewed(records: usize, hash_rounds: u32) -> Self {
        HeavyConfig {
            records,
            hash_rounds,
            keys: 8,
            mappers: 8,
            zipf_exponent: 2.0,
            ..HeavyConfig::default()
        }
    }

    /// Deterministically generate each producer's record list:
    /// `(key, payload)` pairs.
    #[must_use]
    pub fn generate(&self, producer: usize) -> Vec<(i64, i64)> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (producer as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
        );
        let zipf = (self.zipf_exponent > 0.0).then(|| Zipf::new(self.keys, self.zipf_exponent));
        let per_producer = self.records / self.producers.max(1);
        let count = if producer + 1 == self.producers.max(1) {
            self.records - per_producer * (self.producers.max(1) - 1)
        } else {
            per_producer
        };
        (0..count)
            .map(|_| {
                let key = match &zipf {
                    Some(z) => z.sample(&mut rng) as i64,
                    None => rng.random_range(0..self.keys as i64),
                };
                (key, rng.random_range(0..i64::MAX / 2))
            })
            .collect()
    }
}

/// One round of the splitmix64 finalizer — the unit of synthetic CPU cost.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Burn `rounds` hash rounds over `payload` and return the digest.
#[must_use]
fn heavy_hash(payload: i64, rounds: u32) -> i64 {
    let mut x = payload as u64 ^ 0x9e37_79b9_7f4a_7c15;
    for _ in 0..rounds {
        x = mix(std::hint::black_box(x));
    }
    // Keep it positive so Value::Int round-trips exactly.
    (x >> 1) as i64
}

/// A mapper: hashes each record `hash_rounds` times and forwards
/// `(key, digest)` to `reducer = key % reducers`. Forwards EOS to every
/// reducer once all upstream producers signalled end-of-stream.
struct HeavyMapper {
    name: String,
    hash_rounds: u32,
    reducers: usize,
    expected_eos: usize,
    seen_eos: usize,
}

impl Component for HeavyMapper {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(t) => {
                let key = t.get(0).and_then(Value::as_int).expect("key column");
                let payload = t.get(1).and_then(Value::as_int).expect("payload column");
                let digest = heavy_hash(payload, self.hash_rounds);
                let port = (key % self.reducers as i64).unsigned_abs() as usize;
                ctx.emit(port, Message::data([key, digest]));
            }
            Message::Eos => {
                self.seen_eos += 1;
                if self.seen_eos == self.expected_eos {
                    for port in 0..self.reducers {
                        ctx.emit(port, Message::Eos);
                    }
                }
            }
            Message::Seal(_) => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A reducer: folds digests per key with a commutative combine (wrapping
/// add), and once every mapper signalled EOS emits one summary tuple per
/// key: `(key, count, checksum)`.
struct HeavyReducer {
    name: String,
    expected_eos: usize,
    seen_eos: usize,
    acc: BTreeMap<i64, (i64, i64)>,
}

impl Component for HeavyReducer {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(t) => {
                let key = t.get(0).and_then(Value::as_int).expect("key column");
                let digest = t.get(1).and_then(Value::as_int).expect("digest column");
                let entry = self.acc.entry(key).or_insert((0, 0));
                entry.0 += 1;
                entry.1 = entry.1.wrapping_add(digest) & i64::MAX;
            }
            Message::Eos => {
                self.seen_eos += 1;
                if self.seen_eos == self.expected_eos {
                    for (key, (count, checksum)) in &self.acc {
                        ctx.emit(0, Message::data([*key, *count, *checksum]));
                    }
                }
            }
            Message::Seal(_) => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A producer: routes each injected record to `mapper = key % mappers`,
/// and broadcasts EOS to every mapper when its input ends.
struct HeavyProducer {
    name: String,
    mappers: usize,
}

impl Component for HeavyProducer {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(t) => {
                let key = t.get(0).and_then(Value::as_int).expect("key column");
                let port = (key % self.mappers as i64).unsigned_abs() as usize;
                ctx.emit(port, Message::Data(t));
            }
            Message::Eos => {
                for port in 0..self.mappers {
                    ctx.emit(port, Message::Eos);
                }
            }
            Message::Seal(_) => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Assemble the heavy-compute topology on any backend: `producers` sources
/// route records by key to `mappers` hashing mappers, which partition
/// digests to `reducers` folding reducers, which publish per-key summaries
/// into `sink`.
fn build_heavy<B: ExecutorBuilder + ?Sized>(b: &mut B, cfg: &HeavyConfig, sink: CollectorSink) {
    let channel = ChannelConfig::instant();
    let mapper_ids: Vec<_> = (0..cfg.mappers)
        .map(|m| {
            b.add_instance(Box::new(HeavyMapper {
                name: format!("mapper[{m}]"),
                hash_rounds: cfg.hash_rounds,
                reducers: cfg.reducers,
                expected_eos: cfg.producers,
                seen_eos: 0,
            }))
        })
        .collect();
    let reducer_ids: Vec<_> = (0..cfg.reducers)
        .map(|r| {
            b.add_instance(Box::new(HeavyReducer {
                name: format!("reducer[{r}]"),
                expected_eos: cfg.mappers,
                seen_eos: 0,
                acc: BTreeMap::new(),
            }))
        })
        .collect();
    let sink_id = b.add_instance(Box::new(sink));
    for &mid in &mapper_ids {
        for (r, &rid) in reducer_ids.iter().enumerate() {
            b.connect_with(mid, PortId(r), rid, PortId(0), channel.clone());
        }
    }
    for &rid in &reducer_ids {
        b.connect_with(rid, PortId(0), sink_id, PortId(0), channel.clone());
    }
    for p in 0..cfg.producers {
        let pid = b.add_instance(Box::new(HeavyProducer {
            name: format!("producer[{p}]"),
            mappers: cfg.mappers,
        }));
        for (m, &mid) in mapper_ids.iter().enumerate() {
            b.connect_with(pid, PortId(m), mid, PortId(0), channel.clone());
        }
        for (key, payload) in cfg.generate(p) {
            b.inject(0, pid, PortId(0), Message::data([key, payload]));
        }
        b.inject(1, pid, PortId(0), Message::Eos);
    }
}

/// Configuration of the fan-in contention workload: many light producers
/// funneling small records into one consumer instance. Where
/// [`HeavyConfig`] makes each record *cost CPU* (so parallelism shows),
/// this family makes each record cost almost nothing — the run is bound by
/// the consumer's mailbox, which every producer hammers concurrently. It
/// is the microbench for the mailbox implementation itself: under the old
/// mutex-backed mailboxes every send serialized on the consumer's lock;
/// the lock-free MPSC path should show up directly in wall time and in
/// the `push_retries` counter.
#[derive(Debug, Clone)]
pub struct FaninConfig {
    /// Light producer (forwarder) instances, all wired to one consumer.
    pub producers: usize,
    /// Total records across all producers.
    pub records: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for FaninConfig {
    fn default() -> Self {
        FaninConfig {
            producers: 16,
            records: 120_000,
            seed: 41,
        }
    }
}

impl FaninConfig {
    /// Deterministically generate one producer's payload list.
    #[must_use]
    pub fn generate(&self, producer: usize) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (producer as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let per = self.records / self.producers.max(1);
        let count = if producer + 1 == self.producers.max(1) {
            self.records - per * (self.producers.max(1) - 1)
        } else {
            per
        };
        (0..count)
            .map(|_| rng.random_range(0..i64::MAX / 2))
            .collect()
    }
}

/// A light forwarder: one `mix` round per record (just enough work that
/// the compiler cannot elide the pipeline), then straight to the consumer.
struct FaninProducer {
    name: String,
}

impl Component for FaninProducer {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(t) => {
                let payload = t.get(0).and_then(Value::as_int).expect("payload column");
                let mixed = (mix(payload as u64) >> 1) as i64;
                ctx.emit(0, Message::data([mixed]));
            }
            Message::Eos => ctx.emit(0, Message::Eos),
            Message::Seal(_) => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The fan-in consumer: folds a commutative `(count, checksum)` over every
/// record and publishes one summary tuple once all producers signalled EOS.
struct FaninConsumer {
    expected_eos: usize,
    seen_eos: usize,
    count: i64,
    checksum: i64,
}

impl Component for FaninConsumer {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(t) => {
                let v = t.get(0).and_then(Value::as_int).expect("payload column");
                self.count += 1;
                self.checksum = self.checksum.wrapping_add(v) & i64::MAX;
            }
            Message::Eos => {
                self.seen_eos += 1;
                if self.seen_eos == self.expected_eos {
                    ctx.emit(0, Message::data([self.count, self.checksum]));
                }
            }
            Message::Seal(_) => {}
        }
    }

    fn name(&self) -> &str {
        "fanin-consumer"
    }
}

/// Assemble the fan-in topology on any backend: `producers` light
/// forwarders all wired into one folding consumer, which publishes its
/// summary into `sink`.
fn build_fanin<B: ExecutorBuilder + ?Sized>(b: &mut B, cfg: &FaninConfig, sink: CollectorSink) {
    let channel = ChannelConfig::instant();
    let consumer = b.add_instance(Box::new(FaninConsumer {
        expected_eos: cfg.producers,
        seen_eos: 0,
        count: 0,
        checksum: 0,
    }));
    let sink_id = b.add_instance(Box::new(sink));
    b.connect_with(consumer, PortId(0), sink_id, PortId(0), channel.clone());
    for p in 0..cfg.producers {
        let pid = b.add_instance(Box::new(FaninProducer {
            name: format!("fanin-producer[{p}]"),
        }));
        b.connect_with(pid, PortId(0), consumer, PortId(0), channel.clone());
        for payload in cfg.generate(p) {
            b.inject(0, pid, PortId(0), Message::data([payload]));
        }
        b.inject(1, pid, PortId(0), Message::Eos);
    }
}

/// The single summary tuple a fan-in run must produce, computed
/// sequentially.
#[must_use]
pub fn expected_fanin_digest(cfg: &FaninConfig) -> BTreeSet<Message> {
    let mut count = 0i64;
    let mut checksum = 0i64;
    for p in 0..cfg.producers {
        for payload in cfg.generate(p) {
            count += 1;
            checksum = checksum.wrapping_add((mix(payload as u64) >> 1) as i64) & i64::MAX;
        }
    }
    std::iter::once(Message::data([count, checksum])).collect()
}

/// Assemble a single-sink topology on `backend`, run it, and return the
/// sink's message set with the backend-tagged statistics.
fn run_to_digest(
    backend: &BackendSpec,
    seed: u64,
    assemble: impl FnOnce(&mut dyn ExecutorBuilder, CollectorSink),
) -> (BTreeSet<Message>, BackendRunStats) {
    let sink = CollectorSink::new();
    let (exec, ()) =
        build_local(backend, seed, |b| assemble(b, sink.clone())).unwrap_or_else(|e| panic!("{e}"));
    let stats = exec.run();
    (sink.message_set(), stats)
}

/// Run the fan-in workload on an in-process backend.
///
/// # Panics
/// Panics when `backend` is an invalid `Par` spec or a `Dist` spec (the
/// workload has no registry entry).
#[must_use]
pub fn run_fanin(cfg: &FaninConfig, backend: &BackendSpec) -> (BTreeSet<Message>, BackendRunStats) {
    run_to_digest(backend, cfg.seed, |b, sink| build_fanin(b, cfg, sink))
}

/// The digest a run must produce: one `(key, count, checksum)` tuple per
/// key observed, computed sequentially.
#[must_use]
pub fn expected_digest(cfg: &HeavyConfig) -> BTreeSet<Message> {
    let mut acc: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for p in 0..cfg.producers {
        for (key, payload) in cfg.generate(p) {
            let digest = heavy_hash(payload, cfg.hash_rounds);
            let entry = acc.entry(key).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.wrapping_add(digest) & i64::MAX;
        }
    }
    acc.into_iter()
        .map(|(key, (count, checksum))| {
            Message::Data(Tuple(vec![
                Value::Int(key),
                Value::Int(count),
                Value::Int(checksum),
            ]))
        })
        .collect()
}

/// Run the heavy-compute workload on an in-process backend.
///
/// # Panics
/// Panics when `backend` is an invalid `Par` spec or a `Dist` spec (the
/// workload has no registry entry).
#[must_use]
pub fn run_heavy(cfg: &HeavyConfig, backend: &BackendSpec) -> (BTreeSet<Message>, BackendRunStats) {
    run_to_digest(backend, cfg.seed, |b, sink| build_heavy(b, cfg, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_dataflow::par::ParTuning;

    fn tiny(zipf: f64) -> HeavyConfig {
        HeavyConfig {
            producers: 2,
            mappers: 4,
            reducers: 2,
            records: 400,
            hash_rounds: 16,
            keys: 16,
            zipf_exponent: zipf,
            seed: 9,
        }
    }

    #[test]
    fn generation_is_deterministic_and_complete() {
        let cfg = tiny(0.0);
        assert_eq!(cfg.generate(0), cfg.generate(0));
        let total: usize = (0..cfg.producers).map(|p| cfg.generate(p).len()).sum();
        assert_eq!(total, cfg.records);
    }

    #[test]
    fn skewed_keys_concentrate_mass() {
        let cfg = HeavyConfig {
            records: 4_000,
            ..HeavyConfig::skewed(4_000, 16)
        };
        let mut counts = vec![0usize; cfg.keys];
        for p in 0..cfg.producers {
            for (key, _) in cfg.generate(p) {
                counts[key as usize] += 1;
            }
        }
        let hot = counts[0];
        assert!(
            hot * 2 > cfg.records,
            "rank-0 key should carry >half the records, got {hot}/{}",
            cfg.records
        );
    }

    #[test]
    fn heavy_hash_depends_on_rounds_and_payload() {
        assert_eq!(heavy_hash(7, 32), heavy_hash(7, 32));
        assert_ne!(heavy_hash(7, 32), heavy_hash(7, 33));
        assert_ne!(heavy_hash(7, 32), heavy_hash(8, 32));
        assert!(heavy_hash(-5, 8) >= 0);
    }

    #[test]
    fn simulator_matches_expected_digest() {
        let cfg = tiny(0.0);
        let (digest, stats) = run_heavy(&cfg, &BackendSpec::Sim);
        assert_eq!(digest, expected_digest(&cfg));
        assert!(stats.messages_delivered() > cfg.records as u64 * 2);
    }

    #[test]
    fn fanin_digests_agree_across_backends() {
        let cfg = FaninConfig {
            producers: 5,
            records: 500,
            seed: 7,
        };
        let expected = expected_fanin_digest(&cfg);
        assert_eq!(expected.len(), 1);
        for backend in [BackendSpec::Sim, BackendSpec::par(4)] {
            let (digest, stats) = run_fanin(&cfg, &backend);
            assert_eq!(digest, expected, "{}", backend.name());
            // records at producers + records at consumer + EOS traffic + summary
            assert!(stats.messages_delivered() >= cfg.records as u64 * 2);
        }
    }

    #[test]
    fn parallel_matches_expected_digest_across_batch_sizes() {
        for zipf in [0.0, 1.4] {
            let cfg = tiny(zipf);
            let expected = expected_digest(&cfg);
            for batch_size in [1, 8] {
                let tuning = ParTuning {
                    batch_size,
                    ..ParTuning::default()
                };
                let (digest, _) = run_heavy(&cfg, &BackendSpec::Par { workers: 4, tuning });
                assert_eq!(digest, expected, "zipf={zipf} batch_size={batch_size}");
            }
        }
    }
}
