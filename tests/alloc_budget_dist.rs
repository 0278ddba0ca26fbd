//! Allocation gate for the coordinator of a distributed wordcount.
//!
//! The confluent wordcount injects no coordination, so on `dist` the
//! coordinator does nothing but route: every cross-process tuple is read,
//! checked, hashed for the replay filter, logged and forwarded. This
//! binary counts every heap allocation the coordinator process makes
//! during `run_dist` of the benchmark-shaped topology on 2 worker
//! processes and bounds it per routed frame — a number that does not
//! depend on the machine, unlike the throughput it drives. The workers
//! are separate processes; their allocations are not counted.
//!
//! The counter is process-wide, so this file is its own test binary and
//! holds exactly one `#[test]` besides the ignored worker entry, which
//! runs only in the worker processes `run_dist` spawns.

use blazes::apps::dist::{dist_registry, encode_wordcount_params, WORDCOUNT_TOPOLOGY};
use blazes::apps::wordcount::WordcountScenario;
use blazes::apps::workload::TweetWorkload;
use blazes::dataflow::dist::{libtest_worker_command, run_dist, worker_main, DistSpec};
use blazes::dataflow::message::Message;
use blazes::dataflow::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations per routed frame the coordinator may make, its fixed
/// costs (assembling the topology once to learn its wiring, collecting
/// the sinks) included. Decoding every routed tuple into a message and
/// framing it in a buffer of its own reads near 10.
const MAX_ALLOCS_PER_FRAME: f64 = 5.0;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Worker-process entry point: `run_dist` re-executes this binary
/// selecting exactly this test; without a parent endpoint in the
/// environment it returns at once.
#[test]
#[ignore = "dist worker entry: only runs when spawned by a dist parent"]
fn dist_worker_entry() {
    let _ = worker_main(&dist_registry());
}

/// The benchmark's `wordcount-dist` scenario at its smoke size: 4
/// splitters and counters, 2 spouts, 2 committers, a 10 000-word
/// vocabulary under zipf 0.5, 15 batches of 50 tweets per spout.
fn scenario() -> WordcountScenario {
    WordcountScenario {
        workers: 4,
        spouts: 2,
        committers: 2,
        workload: TweetWorkload {
            vocabulary: 10_000,
            zipf_exponent: 0.5,
            words_per_tweet: 5,
            tweets_per_batch: 50,
            batches: 15,
            seed: 7,
            ..TweetWorkload::default()
        },
        seed: 17,
        ..WordcountScenario::default()
    }
}

/// Every spout's tweets folded in one thread: what the topology must
/// commit.
fn sequential_counts(sc: &WordcountScenario) -> BTreeMap<(String, i64), i64> {
    let mut counts = BTreeMap::new();
    for spout in 0..sc.spouts {
        for (_, tweet) in sc.workload.generate(spout) {
            let text = tweet.get(0).and_then(Value::as_str).expect("tweet text");
            let batch = tweet.get(1).and_then(Value::as_int).expect("tweet batch");
            for word in text.split_whitespace() {
                *counts.entry((word.to_string(), batch)).or_insert(0) += 1;
            }
        }
    }
    counts
}

#[test]
fn the_dist_coordinator_allocates_at_most_five_per_routed_frame() {
    let sc = scenario();
    let mut spec = DistSpec::new(
        WORDCOUNT_TOPOLOGY,
        encode_wordcount_params(&sc, true),
        libtest_worker_command("dist_worker_entry"),
    );
    spec.processes = 2;
    spec.workers_per_process = 1;
    spec.seed = sc.seed;
    let registry = dist_registry();

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut run = run_dist(&spec, &registry).expect("distributed wordcount run");
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    let frames = run.stats.frames_routed;
    let per_frame = allocs as f64 / frames as f64;
    eprintln!("{allocs} allocations over {frames} routed frames = {per_frame:.2} per frame");
    assert!(
        per_frame <= MAX_ALLOCS_PER_FRAME,
        "{allocs} allocations over {frames} routed frames = {per_frame:.2} per frame \
         (budget {MAX_ALLOCS_PER_FRAME})"
    );

    // Each (word, batch) is committed exactly once, with its true count;
    // the sink also sees the committers' seals.
    let (_, committed) = run.sinks.pop().expect("wordcount has a store sink");
    let messages = committed.messages();
    let commits: Vec<_> = messages.iter().filter_map(Message::as_data).collect();
    let counts: BTreeMap<(String, i64), i64> = commits
        .iter()
        .map(|t| {
            let field = |i: usize| t.get(i).expect("(word, batch, count)");
            let word = field(0).as_str().expect("word").to_string();
            let batch = field(1).as_int().expect("batch");
            ((word, batch), field(2).as_int().expect("count"))
        })
        .collect();
    assert_eq!(
        counts.len(),
        commits.len(),
        "a (word, batch) committed twice"
    );
    assert_eq!(counts, sequential_counts(&sc));
}
