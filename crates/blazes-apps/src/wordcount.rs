//! The Storm streaming wordcount (paper Sections I-B, VI-A, VIII-A).
//!
//! Tweets `(text, batch)` are shuffle-partitioned to `Splitter` bolts,
//! words hash-partitioned to `Count` bolts, and per-batch counts committed
//! by `Commit` bolts to a backing store (the sink). Two deployments:
//!
//! * **transactional** — commits serialize in batch order through a
//!   simulated coordination service (Storm's coordinated baseline);
//! * **sealed** — batches commit independently as soon as they are locally
//!   complete, which Blazes proves safe (`Seal_batch` is compatible with
//!   `OW_{word,batch}`).
//!
//! Figure 11 plots the throughput of both as the cluster grows.

use crate::autocoord::wordcount_ordering_config;
use crate::dist::{dist_registry, plan_spec};
use crate::workload::TweetWorkload;
use blazes_core::placement::CoordinationSpec;
use blazes_dataflow::backend::{BackendRunStats, BackendSpec};
use blazes_dataflow::channel::ChannelConfig;
use blazes_dataflow::dist::run_dist;
use blazes_dataflow::message::Message;
use blazes_dataflow::sim::Time;
use blazes_dataflow::sinks::CollectorSink;
use blazes_dataflow::value::{Tuple, Value};
use blazes_storm::bolt::{Bolt, BoltContext};
use blazes_storm::grouping::Grouping;
use blazes_storm::runtime::batch_seal;
use blazes_storm::topology::{CoordinationOutcome, TopologyBuilder};
use std::collections::BTreeMap;

/// Splits tweet text into `(word, batch)` tuples.
#[derive(Debug, Default)]
pub struct SplitterBolt;

impl Bolt for SplitterBolt {
    fn execute(&mut self, tuple: Tuple, ctx: &mut BoltContext) {
        let (Some(text), Some(batch)) = (
            tuple.get(0).and_then(Value::as_str),
            tuple.get(1).and_then(Value::as_int),
        ) else {
            return;
        };
        for word in text.split_whitespace() {
            ctx.emit(Tuple(vec![Value::str(word), Value::Int(batch)]));
        }
    }

    fn name(&self) -> &str {
        "splitter"
    }
}

/// Tallies words per `(word, batch)`; emits `(word, batch, count)` when a
/// batch completes at this instance.
#[derive(Debug, Default)]
pub struct CountBolt {
    /// Keyed by batch first: finishing a batch takes its words out in one
    /// `remove`, word-sorted, without walking the batches still in flight.
    counts: BTreeMap<i64, BTreeMap<String, i64>>,
}

impl Bolt for CountBolt {
    fn execute(&mut self, tuple: Tuple, _ctx: &mut BoltContext) {
        // The tuple is ours: its word moves in as the key the first time
        // the `(batch, word)` pair is seen and is dropped after that, so
        // counting copies no strings.
        let mut fields = tuple.0.into_iter();
        let (Some(Value::Str(word)), Some(Value::Int(batch))) = (fields.next(), fields.next())
        else {
            return;
        };
        *self
            .counts
            .entry(batch)
            .or_default()
            .entry(word)
            .or_insert(0) += 1;
    }

    fn finish_batch(&mut self, batch: i64, ctx: &mut BoltContext) {
        for (word, n) in self.counts.remove(&batch).unwrap_or_default() {
            ctx.emit(Tuple(vec![
                Value::Str(word),
                Value::Int(batch),
                Value::Int(n),
            ]));
        }
    }

    fn name(&self) -> &str {
        "count"
    }
}

/// Buffers per-batch counts and "writes them to the store" (emits them
/// downstream) when the batch may commit — immediately on local completion
/// in the sealed topology, or upon the coordinator's in-order grant in the
/// transactional one.
#[derive(Debug, Default)]
pub struct CommitBolt {
    staged: BTreeMap<i64, Vec<Tuple>>,
}

impl Bolt for CommitBolt {
    fn execute(&mut self, tuple: Tuple, _ctx: &mut BoltContext) {
        let Some(batch) = tuple.get(1).and_then(Value::as_int) else {
            return;
        };
        self.staged.entry(batch).or_default().push(tuple);
    }

    fn finish_batch(&mut self, batch: i64, ctx: &mut BoltContext) {
        for t in self.staged.remove(&batch).unwrap_or_default() {
            ctx.emit(t);
        }
    }

    fn name(&self) -> &str {
        "commit"
    }
}

/// Wordcount deployment parameters.
#[derive(Debug, Clone)]
pub struct WordcountScenario {
    /// Cluster size: parallelism of the Splitter and Count bolts.
    pub workers: usize,
    /// Spout instances (tweet sources).
    pub spouts: usize,
    /// Committer instances.
    pub committers: usize,
    /// The tweet workload per spout instance.
    pub workload: TweetWorkload,
    /// Use the transactional (coordinated) topology.
    pub transactional: bool,
    /// Per-word service time at Count instances.
    pub count_service: Time,
    /// Per-tweet service time at Splitter instances.
    pub splitter_service: Time,
    /// Coordinator service time per message (transactional only).
    pub coordinator_service: Time,
    /// Committer↔coordinator channel latency (transactional only).
    pub coordinator_latency: Time,
    /// Batches in flight for the transactional spout window (Storm's
    /// max-spout-pending; 0 = open loop).
    pub max_pending: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for WordcountScenario {
    fn default() -> Self {
        WordcountScenario {
            workers: 5,
            spouts: 2,
            committers: 2,
            workload: TweetWorkload::default(),
            transactional: false,
            count_service: 100,
            splitter_service: 50,
            coordinator_service: 2_000,
            coordinator_latency: 15_000,
            max_pending: 1,
            seed: 17,
        }
    }
}

/// Result of a wordcount run on any backend.
#[derive(Debug)]
pub struct WordcountResult {
    /// Backend-tagged run statistics.
    pub stats: BackendRunStats,
    /// Committed `(word, batch, count)` tuples.
    pub committed: CollectorSink,
    /// Total tweets injected.
    pub tweets: u64,
}

impl WordcountResult {
    /// Committed counts keyed by `(word, batch)`.
    #[must_use]
    pub fn counts(&self) -> BTreeMap<(String, i64), i64> {
        counts_of(&self.committed)
    }

    /// End-to-end throughput in tweets per second: *virtual* seconds on
    /// the simulator, wall-clock seconds on the parallel executor (so the
    /// two are comparable in shape, not magnitude), and `0.0` on the
    /// distributed backend, which reports no run duration.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = match &self.stats {
            BackendRunStats::Sim(s) => s.end_time as f64 / 1_000_000.0,
            BackendRunStats::Par(s) => s.wall_time.as_secs_f64(),
            BackendRunStats::Dist(_) => 0.0,
        };
        if secs <= 0.0 {
            return 0.0;
        }
        self.tweets as f64 / secs
    }
}

pub(crate) fn counts_of(sink: &CollectorSink) -> BTreeMap<(String, i64), i64> {
    sink.messages()
        .iter()
        .filter_map(Message::as_data)
        .filter_map(|t| {
            Some((
                (
                    t.get(0).and_then(Value::as_str)?.to_string(),
                    t.get(1).and_then(Value::as_int)?,
                ),
                t.get(2).and_then(Value::as_int)?,
            ))
        })
        .collect()
}

/// Assemble the wordcount topology (shared by every backend). Returns the
/// builder plus the committed-tuples sink.
#[must_use]
pub fn wordcount_topology(sc: &WordcountScenario) -> (TopologyBuilder, CollectorSink) {
    let mut t = TopologyBuilder::new("wordcount", sc.seed);
    t.set_default_channel(ChannelConfig::lan().with_jitter(2_000));

    let spout = t.add_spout("tweets", sc.spouts);
    for inst in 0..sc.spouts {
        let mut sched: Vec<(Time, Message)> = Vec::new();
        let tweets = sc.workload.generate(inst);
        let mut last_batch: i64 = -1;
        let mut last_time: Time = 0;
        for (at, tweet) in tweets {
            let batch = tweet.get(1).and_then(Value::as_int).expect("batch field");
            if batch != last_batch && last_batch >= 0 {
                sched.push((last_time + 1, batch_seal(last_batch)));
            }
            last_batch = batch;
            last_time = at;
            sched.push((at, Message::Data(tweet)));
        }
        if last_batch >= 0 {
            sched.push((last_time + 1, batch_seal(last_batch)));
        }
        t.spout_schedule(spout, inst, sched);
    }

    let splitter = t.add_bolt(
        "Splitter",
        sc.workers,
        || Box::new(SplitterBolt),
        vec![(spout, Grouping::Shuffle)],
    );
    t.set_service_time(splitter, sc.splitter_service);

    let count = t.add_bolt(
        "Count",
        sc.workers,
        || Box::new(CountBolt::default()),
        vec![(splitter, Grouping::Fields(vec![0]))],
    );
    t.set_service_time(count, sc.count_service);

    let commit = t.add_bolt(
        "Commit",
        sc.committers,
        || Box::new(CommitBolt::default()),
        vec![(count, Grouping::Shuffle)],
    );
    if sc.transactional {
        t.make_transactional(commit, wordcount_ordering_config(sc));
    }

    let committed = CollectorSink::new();
    t.add_collector_sink("store", committed.clone(), commit);
    (t, committed)
}

/// Build and run the hand-wired wordcount topology (coordinated iff
/// `sc.transactional`) on the backend selected by `backend`. Modeled
/// service times apply on the simulator only — elsewhere real processing
/// costs are paid for real.
///
/// # Panics
/// Panics when a `Par` spec is invalid, and on any distributed transport
/// failure.
#[must_use]
pub fn run_wordcount(sc: &WordcountScenario, backend: &BackendSpec) -> WordcountResult {
    // On dist the registry entry re-derives its spec from one `sealed`
    // bit. The sealed spec's only directive is satisfied by the engine's
    // native punctuation protocol and changes nothing, so it is the wire
    // spelling of "no analysis-derived coordination".
    run_coordinated(sc, &CoordinationSpec::default(), true, backend).0
}

/// Shared body of [`run_wordcount`] and
/// [`crate::autocoord::run_wordcount_auto`]: build the topology, apply
/// `spec`, assemble on `backend`, run. `sealed` is what the wordcount
/// [`crate::dist::DistPlan`] re-derives `spec` from inside the worker
/// processes of a distributed run; the parent then only applies `spec`
/// for its outcome (engine-native coordination rewrites nothing, so its
/// rewrite accounting reads untouched).
pub(crate) fn run_coordinated(
    sc: &WordcountScenario,
    spec: &CoordinationSpec,
    sealed: bool,
    backend: &BackendSpec,
) -> (WordcountResult, CoordinationOutcome) {
    let (mut t, mut committed) = wordcount_topology(sc);
    let ordering = wordcount_ordering_config(sc);
    let (stats, outcome) = if let BackendSpec::Dist(d) = backend {
        let outcome = t
            .apply_coordination(spec, &ordering)
            .expect("spec fits the wordcount topology");
        let plan = (sc.clone(), sealed);
        let mut run =
            run_dist(&plan_spec(d, &plan), &dist_registry()).expect("distributed wordcount run");
        committed = run
            .sinks
            .pop()
            .map_or_else(CollectorSink::new, |(_, sink)| sink);
        (BackendRunStats::Dist(run.stats), outcome)
    } else {
        let (exec, outcome) = t
            .build_coordinated_on(spec, &ordering, backend)
            .unwrap_or_else(|e| panic!("{e}"));
        (exec.run(), outcome)
    };
    let result = WordcountResult {
        stats,
        committed,
        tweets: (sc.spouts * sc.workload.tweets_per_instance()) as u64,
    };
    (result, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(sc: &WordcountScenario) -> WordcountResult {
        run_wordcount(sc, &BackendSpec::Sim)
    }

    fn end_time(res: &WordcountResult) -> Time {
        res.stats.as_sim().expect("sim run").end_time
    }

    fn scenario(workers: usize, transactional: bool, seed: u64) -> WordcountScenario {
        WordcountScenario {
            workers,
            transactional,
            seed,
            workload: TweetWorkload {
                vocabulary: 50,
                batches: 5,
                tweets_per_batch: 10,
                ..TweetWorkload::default()
            },
            ..WordcountScenario::default()
        }
    }

    /// `finish_batch(b)` emits exactly batch `b`'s words, word-sorted,
    /// and leaves every other in-flight batch as it was.
    #[test]
    fn count_bolt_finishes_one_batch_and_leaves_the_rest() {
        let mut bolt = CountBolt::default();
        let mut ctx = BoltContext::default();
        let word = |w: &str, batch: i64| Tuple(vec![Value::str(w), Value::Int(batch)]);
        for (w, batch) in [
            ("pear", 1),
            ("apple", 2),
            ("fig", 1),
            ("pear", 3),
            ("apple", 1),
            ("pear", 1),
            ("fig", 2),
        ] {
            bolt.execute(word(w, batch), &mut ctx);
        }
        assert!(ctx.emitted().is_empty(), "counting emits nothing");

        let counted = |w: &str, batch: i64, n: i64| {
            Tuple(vec![Value::str(w), Value::Int(batch), Value::Int(n)])
        };
        bolt.finish_batch(1, &mut ctx);
        assert_eq!(
            ctx.emitted(),
            [
                counted("apple", 1, 1),
                counted("fig", 1, 1),
                counted("pear", 1, 2)
            ]
        );
        // Finishing it again, or a batch never seen, emits nothing more.
        bolt.finish_batch(1, &mut ctx);
        bolt.finish_batch(7, &mut ctx);
        assert_eq!(ctx.emitted().len(), 3);

        // Batches 2 and 3 were interleaved with 1 and are still whole.
        let mut ctx = BoltContext::default();
        bolt.finish_batch(3, &mut ctx);
        bolt.finish_batch(2, &mut ctx);
        assert_eq!(
            ctx.emitted(),
            [
                counted("pear", 3, 1),
                counted("apple", 2, 1),
                counted("fig", 2, 1)
            ]
        );
    }

    #[test]
    fn counts_are_complete_and_positive() {
        let res = sim(&scenario(3, false, 1));
        let counts = res.counts();
        assert!(!counts.is_empty());
        // Total committed count equals total words emitted.
        let total: i64 = counts.values().sum();
        assert_eq!(total as u64, res.tweets * 5, "5 words per tweet");
    }

    #[test]
    fn sealed_topology_is_deterministic_across_seeds() {
        // The Blazes guarantee: sealed on batch => same committed counts
        // for every delivery interleaving.
        let a = sim(&scenario(3, false, 1));
        let b = sim(&scenario(3, false, 99));
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn transactional_and_sealed_agree_on_outputs() {
        let plain = sim(&scenario(3, false, 7));
        let tx = sim(&scenario(3, true, 7));
        assert_eq!(plain.counts(), tx.counts());
    }

    #[test]
    fn transactional_topology_is_slower() {
        let plain = sim(&scenario(5, false, 7));
        let tx = sim(&scenario(5, true, 7));
        assert!(
            end_time(&tx) > end_time(&plain),
            "coordination must cost virtual time: tx={} plain={}",
            end_time(&tx),
            end_time(&plain)
        );
        assert!(plain.throughput() > tx.throughput());
    }

    #[test]
    fn parallel_backend_commits_the_same_counts() {
        // Figure 11's scenario on both backends: the sealed topology is
        // confluent, so the threaded executor must commit exactly the
        // simulator's counts.
        let sc = scenario(3, false, 13);
        let sim = sim(&sc);
        let par = run_wordcount(&sc, &BackendSpec::par(4));
        assert_eq!(par.counts(), sim.counts());
        assert_eq!(par.tweets, sim.tweets);
        assert!(par.throughput() > 0.0);
    }

    #[test]
    fn throughput_grows_with_cluster_size() {
        let small = sim(&WordcountScenario {
            count_service: 2_000,
            splitter_service: 500,
            ..scenario(2, false, 3)
        });
        let large = sim(&WordcountScenario {
            count_service: 2_000,
            splitter_service: 500,
            ..scenario(8, false, 3)
        });
        assert!(
            large.throughput() > small.throughput(),
            "more workers, more throughput: {} vs {}",
            large.throughput(),
            small.throughput()
        );
    }

    #[test]
    fn commits_in_batch_order_when_transactional() {
        let res = sim(&scenario(3, true, 5));
        let mut max_batch = i64::MIN;
        for m in res.committed.messages() {
            let Some(t) = m.as_data() else { continue };
            let b = t.get(1).and_then(Value::as_int).unwrap();
            assert!(b >= max_batch, "batch order violated");
            max_batch = max_batch.max(b);
        }
    }
}
