//! Allocation gate for the sealed wordcount on the parallel executor.
//!
//! The confluent wordcount injects no coordination, so its whole cost is
//! runtime overhead, and most of that is heap traffic per tuple. This
//! binary counts every heap allocation made while the benchmark-shaped
//! topology runs on `par:2` and bounds it per processed event — a number
//! that does not depend on the machine, unlike the throughput it drives.
//!
//! The counter is process-wide, so this file is its own test binary and
//! holds exactly one `#[test]`: nothing else may allocate while it reads.

use blazes::apps::autocoord::{wordcount_ordering_config, wordcount_spec};
use blazes::apps::wordcount::{wordcount_topology, WordcountScenario};
use blazes::apps::workload::TweetWorkload;
use blazes::dataflow::backend::BackendSpec;
use blazes::dataflow::message::Message;
use blazes::dataflow::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations per processed event the run may make. The run
/// measures 1.01–1.02: a tuple is allocated where it is born and moved
/// hop to hop, and a mailbox allocates one ring per 64 messages, not a
/// node per message. The budget leaves about a fifth of headroom; a
/// heap node per mailbox message reads 2.00, a tuple copy per hop
/// above 6.
const MAX_ALLOCS_PER_EVENT: f64 = 1.25;

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

/// The benchmark's `wordcount-par` scenario at its smoke size: 4
/// splitters and counters, 2 spouts, 2 committers, a 10 000-word
/// vocabulary under zipf 0.5, 35 batches of 50 tweets per spout.
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
            batches: 35,
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
fn sealed_wordcount_on_par_allocates_at_most_one_and_a_quarter_per_event() {
    let sc = scenario();
    let (topology, committed) = wordcount_topology(&sc);
    let (exec, outcome) = topology
        .build_coordinated_on(
            &wordcount_spec(true),
            &wordcount_ordering_config(&sc),
            &BackendSpec::par(2),
        )
        .expect("spec fits the wordcount topology");
    assert!(
        outcome.is_rewrite_free(),
        "the sealed wordcount injects nothing"
    );

    let before = ALLOCS.load(Ordering::SeqCst);
    let stats = exec.run();
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    let events = stats.as_par().expect("par run").events_processed;
    let per_event = allocs as f64 / events as f64;
    eprintln!("{allocs} allocations over {events} events = {per_event:.2} per event");
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{allocs} allocations over {events} events = {per_event:.2} per event \
         (budget {MAX_ALLOCS_PER_EVENT})"
    );

    // Each (word, batch) is committed exactly once, with its true count;
    // the sink also sees the committers' seals.
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
