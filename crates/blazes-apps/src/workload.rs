//! Synthetic workload generators.
//!
//! Substitutes for the paper's live inputs: the Twitter firehose becomes a
//! Zipf-distributed tweet stream; the ad servers' click logs become
//! synthetic logs with controllable campaign partitioning (the
//! "independent" vs "spread" placements of Section VIII-B3).

use blazes_dataflow::sim::Time;
use blazes_dataflow::value::{Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Zipf sampler over ranks `0..n` with exponent `s`, via inverse-CDF
/// table lookup (we avoid a `rand_distr` dependency).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s` (s=1.0 is classic
    /// Zipf).
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Sample a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Configuration for the tweet workload feeding the wordcount topology.
#[derive(Debug, Clone)]
pub struct TweetWorkload {
    /// Vocabulary size (distinct words).
    pub vocabulary: usize,
    /// Zipf exponent for word popularity.
    pub zipf_exponent: f64,
    /// Words per tweet.
    pub words_per_tweet: usize,
    /// Tweets per batch *per spout instance*.
    pub tweets_per_batch: usize,
    /// Number of batches.
    pub batches: usize,
    /// Virtual time between successive tweets from one spout instance.
    pub tweet_interval: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TweetWorkload {
    fn default() -> Self {
        TweetWorkload {
            vocabulary: 1_000,
            zipf_exponent: 1.1,
            words_per_tweet: 5,
            tweets_per_batch: 20,
            batches: 10,
            tweet_interval: 100,
            seed: 7,
        }
    }
}

impl TweetWorkload {
    /// Generate one spout instance's schedule: `(time, (text, batch))`
    /// tweet tuples, in batch order. Batch boundaries are *not* included —
    /// the caller appends seal punctuations where its topology needs them.
    #[must_use]
    pub fn generate(&self, spout_instance: usize) -> Vec<(Time, Tuple)> {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (spout_instance as u64).wrapping_mul(0x9e37_79b9));
        let zipf = Zipf::new(self.vocabulary, self.zipf_exponent);
        let mut out = Vec::with_capacity(self.batches * self.tweets_per_batch);
        let mut t: Time = 0;
        for batch in 0..self.batches {
            for _ in 0..self.tweets_per_batch {
                let words: Vec<String> = (0..self.words_per_tweet)
                    .map(|_| format!("w{}", zipf.sample(&mut rng)))
                    .collect();
                out.push((
                    t,
                    Tuple(vec![Value::Str(words.join(" ")), Value::Int(batch as i64)]),
                ));
                t += self.tweet_interval;
            }
        }
        out
    }

    /// Total tweets per spout instance.
    #[must_use]
    pub fn tweets_per_instance(&self) -> usize {
        self.batches * self.tweets_per_batch
    }
}

/// How campaigns are placed across ad servers (paper Section VIII-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignPlacement {
    /// Each campaign is mastered at exactly one ad server ("Independent
    /// seal"): server `campaign % n` produces all of that campaign's
    /// clicks.
    Independent,
    /// Every ad server produces clicks for every campaign ("Seal"): the
    /// non-independent placement that forces unanimous votes.
    Spread,
}

/// Configuration for the ad click-log workload.
#[derive(Debug, Clone)]
pub struct ClickWorkload {
    /// Number of ad servers.
    pub ad_servers: usize,
    /// Log entries generated per ad server (the paper uses 1000).
    pub entries_per_server: usize,
    /// Entries dispatched back-to-back before sleeping (the paper uses 50).
    pub batch_size: usize,
    /// Virtual sleep between bursts.
    pub sleep_between_batches: Time,
    /// Virtual gap between entries inside a burst.
    pub entry_interval: Time,
    /// Number of distinct campaigns.
    pub campaigns: usize,
    /// Distinct ads (ids) per campaign.
    pub ads_per_campaign: usize,
    /// Campaign placement across servers.
    pub placement: CampaignPlacement,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClickWorkload {
    fn default() -> Self {
        ClickWorkload {
            ad_servers: 5,
            entries_per_server: 1_000,
            batch_size: 50,
            sleep_between_batches: 500_000, // 0.5 s
            entry_interval: 200,
            campaigns: 20,
            ads_per_campaign: 10,
            placement: CampaignPlacement::Spread,
            seed: 11,
        }
    }
}

/// One ad server's generated log: click tuples plus the seal punctuation
/// schedule.
#[derive(Debug, Clone)]
pub struct AdServerLog {
    /// `(time, (id, campaign, window))` click entries.
    pub clicks: Vec<(Time, Tuple)>,
    /// `(time, campaign)` seals: the server promises no further records for
    /// `campaign` from `time` on. Campaigns are produced in contiguous
    /// segments, so seals are spread through the run (temporal locality, as
    /// the paper's Section III-C assumes).
    pub seals: Vec<(Time, i64)>,
    /// Virtual time at which the last entry is dispatched.
    pub end_time: Time,
}

impl ClickWorkload {
    /// Campaigns produced by `server` under the configured placement, in
    /// the order the server works through them.
    ///
    /// Under [`CampaignPlacement::Spread`], servers iterate the shared
    /// campaign list *rotated* by their index: ad content is placed close
    /// to consumers, so each server is busy with different campaigns at any
    /// moment. This is the paper's "coordination locality" conflict — a
    /// campaign's unanimous seal completes only when the *last* producer
    /// finishes its segment, which is what produces Figure 14's step shape.
    #[must_use]
    fn campaigns_of(&self, server: usize) -> Vec<i64> {
        match self.placement {
            CampaignPlacement::Independent => (0..self.campaigns)
                .filter(|c| c % self.ad_servers == server)
                .map(|c| c as i64)
                .collect(),
            CampaignPlacement::Spread => {
                let offset = server * self.campaigns / self.ad_servers.max(1);
                (0..self.campaigns)
                    .map(|i| ((i + offset) % self.campaigns) as i64)
                    .collect()
            }
        }
    }

    /// Generate the log of one ad server.
    ///
    /// The server works through its campaigns in contiguous segments
    /// (campaign lifetimes have temporal locality) and seals each campaign
    /// immediately after its segment ends.
    #[must_use]
    pub fn generate(&self, server: usize) -> AdServerLog {
        assert!(server < self.ad_servers);
        let mut rng = StdRng::seed_from_u64(self.seed ^ (server as u64).wrapping_mul(0x517c_c1b7));
        let my_campaigns = self.campaigns_of(server);
        let per_campaign = (self.entries_per_server / my_campaigns.len().max(1)).max(1);
        let mut clicks = Vec::with_capacity(self.entries_per_server);
        let mut seals = Vec::with_capacity(my_campaigns.len());
        let mut t: Time = 0;
        let mut i = 0usize;
        for (ci, &campaign) in my_campaigns.iter().enumerate() {
            let count = if ci + 1 == my_campaigns.len() {
                self.entries_per_server - i // remainder goes to the last one
            } else {
                per_campaign
            };
            for _ in 0..count {
                if i > 0 && i.is_multiple_of(self.batch_size) {
                    t += self.sleep_between_batches;
                }
                let ad = rng.random_range(0..self.ads_per_campaign as i64);
                let id = campaign * self.ads_per_campaign as i64 + ad;
                let window = (t / 1_000_000) as i64; // 1-second windows
                clicks.push((
                    t,
                    Tuple(vec![
                        Value::Int(id),
                        Value::Int(campaign),
                        Value::Int(window),
                    ]),
                ));
                t += self.entry_interval;
                i += 1;
            }
            seals.push((t, campaign));
        }
        AdServerLog {
            clicks,
            seals,
            end_time: t,
        }
    }

    /// Total click records across all servers.
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.ad_servers * self.entries_per_server
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 must dominate rank 10");
        assert!(counts[0] > 1_000, "rank 0 should take >10% of mass");
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(3, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn tweets_have_batch_structure() {
        let w = TweetWorkload {
            batches: 3,
            tweets_per_batch: 4,
            ..TweetWorkload::default()
        };
        let sched = w.generate(0);
        assert_eq!(sched.len(), 12);
        let batches: Vec<i64> = sched
            .iter()
            .map(|(_, t)| t.get(1).and_then(Value::as_int).unwrap())
            .collect();
        assert_eq!(batches.iter().filter(|&&b| b == 0).count(), 4);
        assert!(batches.windows(2).all(|w| w[0] <= w[1]), "batch-ordered");
    }

    #[test]
    fn tweet_generation_is_deterministic_per_seed() {
        let w = TweetWorkload::default();
        assert_eq!(w.generate(0), w.generate(0));
        assert_ne!(w.generate(0), w.generate(1), "instances differ");
    }

    #[test]
    fn independent_placement_partitions_campaigns() {
        let w = ClickWorkload {
            ad_servers: 5,
            campaigns: 20,
            placement: CampaignPlacement::Independent,
            ..ClickWorkload::default()
        };
        let mut all: Vec<i64> = Vec::new();
        for s in 0..5 {
            let mine = w.campaigns_of(s);
            assert_eq!(mine.len(), 4);
            all.extend(mine);
        }
        all.sort_unstable();
        assert_eq!(all, (0..20i64).collect::<Vec<_>>(), "exact partition");
    }

    #[test]
    fn spread_placement_shares_all_campaigns() {
        let w = ClickWorkload {
            placement: CampaignPlacement::Spread,
            ..ClickWorkload::default()
        };
        // Same campaign *set* for every server, rotated starting points.
        let mut a = w.campaigns_of(0);
        let mut b = w.campaigns_of(1);
        assert_ne!(a, b, "servers start at different campaigns");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a.len(), w.campaigns);
    }

    #[test]
    fn click_log_respects_batch_sleeps() {
        let w = ClickWorkload {
            entries_per_server: 100,
            batch_size: 50,
            sleep_between_batches: 1_000_000,
            entry_interval: 100,
            ..ClickWorkload::default()
        };
        let log = w.generate(0);
        assert_eq!(log.clicks.len(), 100);
        let t49 = log.clicks[49].0;
        let t50 = log.clicks[50].0;
        assert!(t50 - t49 >= 1_000_000, "sleep between bursts");
    }

    #[test]
    fn clicks_only_contain_my_campaigns() {
        let w = ClickWorkload {
            placement: CampaignPlacement::Independent,
            ..ClickWorkload::default()
        };
        let log = w.generate(2);
        let mine = w.campaigns_of(2);
        for (_, click) in &log.clicks {
            let c = click.get(1).and_then(Value::as_int).unwrap();
            assert!(mine.contains(&c));
        }
        let sealed: Vec<i64> = log.seals.iter().map(|(_, c)| *c).collect();
        assert_eq!(sealed, mine);
    }

    #[test]
    fn seals_are_spread_through_the_run() {
        let w = ClickWorkload {
            placement: CampaignPlacement::Independent,
            ..ClickWorkload::default()
        };
        let log = w.generate(0);
        assert!(log.seals.len() >= 2);
        // The first campaign seals well before the log ends.
        let (first_seal, _) = log.seals[0];
        assert!(
            first_seal < log.end_time / 2,
            "first seal at {first_seal}, log ends {}",
            log.end_time
        );
        // Seal times are nondecreasing and every click of a campaign
        // precedes its seal.
        for w2 in log.seals.windows(2) {
            assert!(w2[0].0 <= w2[1].0);
        }
        for (t, click) in &log.clicks {
            let c = click.get(1).and_then(Value::as_int).unwrap();
            let (seal_t, _) = log.seals.iter().find(|(_, sc)| *sc == c).unwrap();
            assert!(
                t < seal_t,
                "click at {t} after its campaign sealed at {seal_t}"
            );
        }
    }

    #[test]
    fn id_encodes_campaign() {
        let w = ClickWorkload::default();
        let log = w.generate(0);
        for (_, click) in &log.clicks {
            let id = click.get(0).and_then(Value::as_int).unwrap();
            let c = click.get(1).and_then(Value::as_int).unwrap();
            assert_eq!(id / w.ads_per_campaign as i64, c, "id determines campaign");
        }
    }
}
