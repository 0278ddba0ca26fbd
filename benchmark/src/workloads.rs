//! The five named workloads: what each one is, how big it is, and the
//! seeded scenario or input it runs.
//!
//! Names are fixed — later issues refer to them. Every generator seed and
//! every run/fault seed is the documented base plus `--seed`, so one seed
//! names one exact input set and a different seed a different one.

use blazes_apps::adreport::AdScenario;
use blazes_apps::queries::ReportQuery;
use blazes_apps::wordcount::WordcountScenario;
use blazes_apps::workload::{CampaignPlacement, ClickWorkload, TweetWorkload};
use blazes_dataflow::value::{Tuple, Value};

/// Worker threads of a par run, and worker processes of a dist run (each
/// with one thread): the 2-core budget the sizes below were measured on.
pub const THREADS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Ad report, CAMPAIGN query: analysis → 3 seal gates → par threads.
    AdSealPar,
    /// Ad report, POOR query: analysis → 1 sequencer → par threads.
    AdOrderPar,
    /// Sealed Storm wordcount on par threads (confluent, rewrite-free).
    WordcountPar,
    /// The same wordcount on 2 worker processes over Unix sockets.
    WordcountDist,
    /// Transitive closure of a chain in the Bloom engine alone.
    BloomTc,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::AdSealPar,
        Workload::AdOrderPar,
        Workload::WordcountPar,
        Workload::WordcountDist,
        Workload::BloomTc,
    ];

    /// The fixed name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdSealPar => "adreport-seal-par",
            Workload::AdOrderPar => "adreport-order-par",
            Workload::WordcountPar => "wordcount-par",
            Workload::WordcountDist => "wordcount-dist",
            Workload::BloomTc => "bloom-tc",
        }
    }

    /// Look a workload up by its fixed name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one input record is, for `throughput_rps`.
    pub fn record_noun(self) -> &'static str {
        match self {
            Workload::AdSealPar | Workload::AdOrderPar => "clicks",
            Workload::WordcountPar | Workload::WordcountDist => "tweets",
            Workload::BloomTc => "derived path tuples",
        }
    }

    /// Wall time one rep (set-up, run and check) is expected to take at
    /// the default size on the 2-core build machine; the watchdog allows
    /// ten times this.
    pub fn expected_rep_seconds(self) -> f64 {
        match self {
            Workload::BloomTc => 3.0,
            _ => 2.5,
        }
    }
}

/// Input size: the recorded default, or about a twentieth of it for the
/// `--smoke` pass and the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size `BENCHMARK.json` was recorded at.
    Default,
    /// About 1/20 of the default.
    Smoke,
}

impl Size {
    fn pick(self, default: usize, smoke: usize) -> usize {
        match self {
            Size::Default => default,
            Size::Smoke => smoke,
        }
    }
}

/// The ad-report scenario of `adreport-seal-par` (CAMPAIGN) and
/// `adreport-order-par` (POOR): 4 ad servers, 40 campaigns × 10 ads spread
/// over every server, 3 replicas, 20 analyst requests, seeded at-least-once
/// click duplicates.
///
/// # Panics
/// When `workload` is not an ad-report workload.
pub fn ad_scenario(workload: Workload, seed: u64, size: Size) -> AdScenario {
    let query = match workload {
        Workload::AdSealPar => ReportQuery::Campaign,
        Workload::AdOrderPar => ReportQuery::Poor,
        other => panic!("{} is not an ad-report workload", other.name()),
    };
    AdScenario {
        workload: ClickWorkload {
            ad_servers: 4,
            entries_per_server: size.pick(10_000, 500),
            campaigns: 40,
            ads_per_campaign: 10,
            placement: CampaignPlacement::Spread,
            seed: 11 + seed,
            ..ClickWorkload::default()
        },
        query,
        replicas: 3,
        requests: 20,
        tick_every: 50,
        click_duplicates: 0.1,
        requests_via_analyst: true,
        seed: 3 + seed,
        ..AdScenario::default()
    }
}

/// The wordcount scenario of `wordcount-par` and `wordcount-dist`: 4-way
/// splitters and counters, 2 spouts, 2 committers, a 10 000-word vocabulary
/// with a flat-ish Zipf, 5 words a tweet, 50 tweets a batch per spout. The
/// dist leg is smaller because a larger one overflows `MAX_FRAME` (see the
/// README's program limits).
///
/// # Panics
/// When `workload` is not a wordcount workload.
pub fn wordcount_scenario(workload: Workload, seed: u64, size: Size) -> WordcountScenario {
    let batches = match workload {
        Workload::WordcountPar => size.pick(700, 35),
        Workload::WordcountDist => size.pick(300, 15),
        other => panic!("{} is not a wordcount workload", other.name()),
    };
    WordcountScenario {
        workers: 4,
        spouts: 2,
        committers: 2,
        workload: TweetWorkload {
            vocabulary: 10_000,
            zipf_exponent: 0.5,
            words_per_tweet: 5,
            tweets_per_batch: 50,
            batches,
            seed: 7 + seed,
            ..TweetWorkload::default()
        },
        seed: 17 + seed,
        ..WordcountScenario::default()
    }
}

/// Tweets a wordcount scenario feeds: every spout's whole schedule.
pub fn wordcount_tweets(sc: &WordcountScenario) -> u64 {
    (sc.spouts * sc.workload.tweets_per_instance()) as u64
}

/// The `bloom-tc` input: a chain over `n` edges whose node labels and edge
/// order are drawn from the seed. Returns the nodes in chain order and the
/// shuffled `edge(src, dst)` tuples; the closure of a chain of `n` edges
/// has exactly `n (n + 1) / 2` paths whatever the labels.
pub fn tc_chain(seed: u64, size: Size) -> (Vec<i64>, Vec<Tuple>) {
    let edges = size.pick(1_024, 128);
    let mut rng = SplitMix64(0x5eed_7c00 ^ seed);
    // Distinct labels: a strictly increasing walk with seeded gaps, then a
    // seeded shuffle so chain order is unrelated to label order.
    let mut label = 0i64;
    let mut nodes: Vec<i64> = (0..=edges)
        .map(|_| {
            label += 1 + (rng.next() % 7) as i64;
            label
        })
        .collect();
    shuffle(&mut nodes, &mut rng);
    let mut tuples: Vec<Tuple> = nodes
        .windows(2)
        .map(|w| Tuple(vec![Value::Int(w[0]), Value::Int(w[1])]))
        .collect();
    shuffle(&mut tuples, &mut rng);
    (nodes, tuples)
}

/// The benchmark's own input generator: SplitMix64, so `bloom-tc` inputs do
/// not depend on the `rand` shim the program under test ships.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_round_trip_and_are_unique() {
        let names: BTreeSet<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), Workload::ALL.len());
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn seed_selects_the_input() {
        let (nodes_a, edges_a) = tc_chain(1, Size::Smoke);
        let (nodes_b, edges_b) = tc_chain(1, Size::Smoke);
        let (nodes_c, _) = tc_chain(2, Size::Smoke);
        assert_eq!(
            (&nodes_a, &edges_a),
            (&nodes_b, &edges_b),
            "same seed, same input"
        );
        assert_ne!(nodes_a, nodes_c, "another seed, another input");
        let distinct: BTreeSet<i64> = nodes_a.iter().copied().collect();
        assert_eq!(distinct.len(), nodes_a.len(), "labels are distinct");
        assert_eq!(edges_a.len() + 1, nodes_a.len());
        let a = ad_scenario(Workload::AdSealPar, 0, Size::Smoke);
        let b = ad_scenario(Workload::AdSealPar, 5, Size::Smoke);
        assert_ne!(a.workload.seed, b.workload.seed);
        assert_ne!(a.seed, b.seed);
    }
}
