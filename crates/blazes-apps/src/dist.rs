//! Distributed deployments of the case studies.
//!
//! Component closures cannot cross the process boundary, so every process
//! re-assembles the topology from a *name* plus a *parameter string*
//! ([`blazes_dataflow::dist::Registry`]). [`dist_registry`] holds the
//! bundled case studies, each re-assembled through the same
//! analysis-driven path the in-process backends use.
//!
//! Each plan is a [`DistPlan`], which names its registry entry and lists
//! its fields once ([`DistPlan::fields`], a struct expression the compiler
//! holds exhaustive). That list drives both ends of the codec: one
//! `key=value` line per field, read back in the same order, with a
//! missing, malformed, unknown or repeated key rejected. [`PlanValue`]
//! spells each kind of value one way: decimal integers, `0`/`1` bools,
//! floats as IEEE-754 bits (so a parsed scenario is bit-identical and the
//! SPMD assembly deterministic), enums by lowercase name. The ad-report
//! plan is the scenario alone; the wordcount plan adds the `sealed` bit
//! its coordination spec is re-derived from.

use crate::adreport::{AdScenario, StrategyKind};
use crate::autocoord::{assemble_ad_auto, wordcount_ordering_config, wordcount_spec};
use crate::queries::ReportQuery;
use crate::wordcount::{wordcount_topology, WordcountScenario};
use crate::workload::{CampaignPlacement, ClickWorkload, TweetWorkload};
use blazes_dataflow::backend::ExecutorBuilder;
use blazes_dataflow::dist::{DistSpec, Registry, SinkSet};

/// Registry name of the coordinated Storm wordcount topology.
pub const WORDCOUNT_TOPOLOGY: &str = "wordcount";

/// A scenario a distributed run ships to its workers.
pub trait DistPlan: Clone + Default {
    /// The name [`dist_registry`] registers this plan's assembly under.
    const TOPOLOGY: &'static str;

    /// The plan rebuilt field by field, in plan order, each field the
    /// value `visit` returns for it under its plan key.
    #[must_use]
    fn fields(&self, visit: &mut impl FieldVisitor) -> Self;

    /// Record the plan's topology into `b` and return its sinks.
    fn assemble(&self, b: &mut dyn ExecutorBuilder) -> SinkSet;
}

/// Walks a [`DistPlan::fields`] list: the encoder, or the parser.
pub trait FieldVisitor {
    /// The value to store under `key`, whose current value is `value`.
    fn field<V: PlanValue>(&mut self, key: &str, value: &V) -> V;
}

/// How one kind of plan value is spelled.
pub trait PlanValue: Clone {
    /// The value's one spelling.
    fn show(&self) -> String;
    /// The value `text` spells, if it spells one.
    fn read(text: &str) -> Option<Self>;
}

macro_rules! decimal {
    ($($ty:ty),+) => {$(
        impl PlanValue for $ty {
            fn show(&self) -> String { self.to_string() }
            fn read(text: &str) -> Option<Self> { text.parse().ok() }
        }
    )+};
}

decimal!(usize, u64);

impl PlanValue for f64 {
    fn show(&self) -> String {
        self.to_bits().show()
    }
    fn read(text: &str) -> Option<Self> {
        u64::read(text).map(f64::from_bits)
    }
}

impl PlanValue for bool {
    fn show(&self) -> String {
        u8::from(*self).to_string()
    }
    fn read(text: &str) -> Option<Self> {
        [false, true].into_iter().find(|b| b.show() == text)
    }
}

/// Spell each variant of a fieldless enum by one name, both ways.
macro_rules! spelled {
    ($ty:ident { $($variant:ident => $name:literal),+ }) => {
        impl PlanValue for $ty {
            fn show(&self) -> String {
                match self { $($ty::$variant => $name),+ }.to_string()
            }
            fn read(text: &str) -> Option<Self> {
                match text { $($name => Some($ty::$variant),)+ _ => None }
            }
        }
    };
}

spelled!(StrategyKind { Uncoordinated => "uncoordinated", Ordered => "ordered", Sealed => "sealed" });
spelled!(ReportQuery {
    Thresh => "thresh", Poor => "poor", Window => "window", Campaign => "campaign"
});
spelled!(CampaignPlacement { Independent => "independent", Spread => "spread" });

/// The ad network, assembled by [`assemble_ad_auto`] (an `Uncoordinated`
/// scenario, the divergence baseline, comes through it rewrite-free).
impl DistPlan for AdScenario {
    const TOPOLOGY: &'static str = "ad-report";

    fn fields(&self, v: &mut impl FieldVisitor) -> Self {
        let w = &self.workload;
        AdScenario {
            strategy: v.field("strategy", &self.strategy),
            query: v.field("query", &self.query),
            replicas: v.field("replicas", &self.replicas),
            requests: v.field("requests", &self.requests),
            report_service: v.field("report_service", &self.report_service),
            sequencer_service: v.field("sequencer_service", &self.sequencer_service),
            tick_every: v.field("tick_every", &self.tick_every),
            click_duplicates: v.field("click_duplicates", &self.click_duplicates),
            straggler_service: v.field("straggler_service", &self.straggler_service),
            requests_via_analyst: v.field("requests_via_analyst", &self.requests_via_analyst),
            seed: v.field("seed", &self.seed),
            workload: ClickWorkload {
                ad_servers: v.field("w_ad_servers", &w.ad_servers),
                entries_per_server: v.field("w_entries_per_server", &w.entries_per_server),
                batch_size: v.field("w_batch_size", &w.batch_size),
                sleep_between_batches: v.field("w_sleep_between_batches", &w.sleep_between_batches),
                entry_interval: v.field("w_entry_interval", &w.entry_interval),
                campaigns: v.field("w_campaigns", &w.campaigns),
                ads_per_campaign: v.field("w_ads_per_campaign", &w.ads_per_campaign),
                placement: v.field("w_placement", &w.placement),
                seed: v.field("w_seed", &w.seed),
            },
        }
    }

    fn assemble(&self, b: &mut dyn ExecutorBuilder) -> SinkSet {
        assemble_ad_auto(self, false, b).responses
    }
}

/// The Storm wordcount plus its `sealed` bit, with the analysis-derived
/// coordination for that bit applied before assembly.
impl DistPlan for (WordcountScenario, bool) {
    const TOPOLOGY: &'static str = WORDCOUNT_TOPOLOGY;

    fn fields(&self, v: &mut impl FieldVisitor) -> Self {
        let (sc, w) = (&self.0, &self.0.workload);
        let sealed = v.field("sealed", &self.1);
        let sc = WordcountScenario {
            workers: v.field("workers", &sc.workers),
            spouts: v.field("spouts", &sc.spouts),
            committers: v.field("committers", &sc.committers),
            transactional: v.field("transactional", &sc.transactional),
            count_service: v.field("count_service", &sc.count_service),
            splitter_service: v.field("splitter_service", &sc.splitter_service),
            coordinator_service: v.field("coordinator_service", &sc.coordinator_service),
            coordinator_latency: v.field("coordinator_latency", &sc.coordinator_latency),
            max_pending: v.field("max_pending", &sc.max_pending),
            seed: v.field("seed", &sc.seed),
            workload: TweetWorkload {
                vocabulary: v.field("w_vocabulary", &w.vocabulary),
                zipf_exponent: v.field("w_zipf_exponent", &w.zipf_exponent),
                words_per_tweet: v.field("w_words_per_tweet", &w.words_per_tweet),
                tweets_per_batch: v.field("w_tweets_per_batch", &w.tweets_per_batch),
                batches: v.field("w_batches", &w.batches),
                tweet_interval: v.field("w_tweet_interval", &w.tweet_interval),
                seed: v.field("w_seed", &w.seed),
            },
        };
        (sc, sealed)
    }

    fn assemble(&self, b: &mut dyn ExecutorBuilder) -> SinkSet {
        let (sc, sealed) = self;
        let (mut t, committed) = wordcount_topology(sc);
        t.apply_coordination(&wordcount_spec(*sealed), &wordcount_ordering_config(sc))
            .expect("spec fits the wordcount topology");
        let store = t.node("store").expect("wordcount has a store sink");
        let (instances, _) = t.assemble(b);
        vec![(instances[store.0][0], committed)]
    }
}

struct Encoder(String);

impl FieldVisitor for Encoder {
    fn field<V: PlanValue>(&mut self, key: &str, value: &V) -> V {
        self.0 += &format!("{key}={}\n", value.show());
        value.clone()
    }
}

/// Reads the lines back in field order: the first line that is not the
/// expected key with its value spelled as the encoder spells it is the error.
struct Parser<'a> {
    lines: std::str::SplitTerminator<'a, char>,
    error: Option<String>,
}

impl FieldVisitor for Parser<'_> {
    fn field<V: PlanValue>(&mut self, key: &str, value: &V) -> V {
        let line = self.lines.next().unwrap_or_default();
        let text = line.strip_prefix(key).and_then(|l| l.strip_prefix('='));
        text.and_then(|t| V::read(t).filter(|v| v.show() == t))
            .unwrap_or_else(|| {
                let error = format!("expected `{key}=..`, found `{line}`");
                self.error.get_or_insert(error);
                value.clone()
            })
    }
}

fn encode<P: DistPlan>(plan: &P) -> String {
    let mut encoder = Encoder(String::new());
    let _ = plan.fields(&mut encoder);
    encoder.0
}

fn parse<P: DistPlan>(params: &str) -> Result<P, String> {
    let lines = params.split_terminator('\n');
    let mut parser = Parser { lines, error: None };
    let plan = P::default().fields(&mut parser);
    if let Some(line) = parser.lines.next() {
        let error = format!("unexpected `{line}` after the last field");
        parser.error.get_or_insert(error);
    }
    parser.error.map_or(Ok(plan), Err)
}

/// `base` — seed, process count, worker command, tuning, chaos — set to
/// run `plan`'s registry entry.
#[must_use]
pub fn plan_spec<P: DistPlan>(base: &DistSpec, plan: &P) -> DistSpec {
    DistSpec {
        topology: P::TOPOLOGY.to_string(),
        params: encode(plan),
        ..base.clone()
    }
}

/// The wordcount plan string for `sc` and the `sealed` analysis flag:
/// the parameters [`plan_spec`] ships for `(sc, sealed)`.
#[must_use]
pub fn encode_wordcount_params(sc: &WordcountScenario, sealed: bool) -> String {
    encode(&(sc.clone(), sealed))
}

/// Register `P`'s assembly. A plan string the parser rejects panics: it
/// comes from the parent's encoder, so damage means a protocol bug.
fn register<P: DistPlan + 'static>(reg: &mut Registry) {
    reg.register(P::TOPOLOGY, |b, params| -> SinkSet {
        let plan: P = parse(params).unwrap_or_else(|e| panic!("{} plan: {e}", P::TOPOLOGY));
        plan.assemble(b)
    });
}

/// The case-study registry: the ad-report and wordcount [`DistPlan`]s, each
/// assembled as a pure function of its parameter string, which is what
/// keeps every process's instance numbering identical.
#[must_use]
pub fn dist_registry() -> Registry {
    let mut reg = Registry::new();
    register::<AdScenario>(&mut reg);
    register::<(WordcountScenario, bool)>(&mut reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_dataflow::backend::Topology;

    /// An ad-report scenario none of whose fields holds its default.
    fn ad_scenario_off_default() -> AdScenario {
        AdScenario {
            workload: ClickWorkload {
                ad_servers: 7,
                entries_per_server: 123,
                batch_size: 9,
                sleep_between_batches: 4_321,
                entry_interval: 17,
                campaigns: 6,
                ads_per_campaign: 4,
                placement: CampaignPlacement::Independent,
                seed: 99,
            },
            strategy: StrategyKind::Ordered,
            replicas: 4,
            requests: 12,
            report_service: 250,
            sequencer_service: 3_000,
            query: ReportQuery::Window,
            tick_every: 8,
            click_duplicates: 0.35,
            straggler_service: 2_500,
            requests_via_analyst: true,
            seed: 42,
        }
    }

    /// A wordcount scenario none of whose fields holds its default.
    fn wordcount_scenario_off_default() -> WordcountScenario {
        WordcountScenario {
            workers: 3,
            spouts: 4,
            committers: 1,
            workload: TweetWorkload {
                vocabulary: 250,
                zipf_exponent: 0.85,
                words_per_tweet: 7,
                tweets_per_batch: 33,
                batches: 12,
                tweet_interval: 40,
                seed: 5,
            },
            transactional: true,
            count_service: 11,
            splitter_service: 22,
            coordinator_service: 333,
            coordinator_latency: 4_444,
            max_pending: 3,
            seed: 8,
        }
    }

    /// The plan strings are the ones the hand-written encoders this
    /// codec replaced produced, byte for byte.
    #[test]
    fn plans_are_byte_identical_to_the_hand_written_encoders() {
        let ad_default = "strategy=sealed\nquery=campaign\nreplicas=3\nrequests=10\n\
            report_service=100\nsequencer_service=4000\ntick_every=25\nclick_duplicates=0\n\
            straggler_service=0\nrequests_via_analyst=0\nseed=3\nw_ad_servers=5\n\
            w_entries_per_server=1000\nw_batch_size=50\nw_sleep_between_batches=500000\n\
            w_entry_interval=200\nw_campaigns=20\nw_ads_per_campaign=10\nw_placement=spread\n\
            w_seed=11\n";
        let ad_off_default = "strategy=ordered\nquery=window\nreplicas=4\nrequests=12\n\
            report_service=250\nsequencer_service=3000\ntick_every=8\n\
            click_duplicates=4599976659396224614\nstraggler_service=2500\n\
            requests_via_analyst=1\nseed=42\nw_ad_servers=7\nw_entries_per_server=123\n\
            w_batch_size=9\nw_sleep_between_batches=4321\nw_entry_interval=17\nw_campaigns=6\n\
            w_ads_per_campaign=4\nw_placement=independent\nw_seed=99\n";
        let wordcount_default = "sealed=0\nworkers=5\nspouts=2\ncommitters=2\n\
            transactional=0\ncount_service=100\nsplitter_service=50\ncoordinator_service=2000\n\
            coordinator_latency=15000\nmax_pending=1\nseed=17\nw_vocabulary=1000\n\
            w_zipf_exponent=4607632778762754458\nw_words_per_tweet=5\nw_tweets_per_batch=20\n\
            w_batches=10\nw_tweet_interval=100\nw_seed=7\n";
        let wordcount_off_default = "sealed=1\nworkers=3\nspouts=4\ncommitters=1\n\
            transactional=1\ncount_service=11\nsplitter_service=22\ncoordinator_service=333\n\
            coordinator_latency=4444\nmax_pending=3\nseed=8\nw_vocabulary=250\n\
            w_zipf_exponent=4605831338911806259\nw_words_per_tweet=7\nw_tweets_per_batch=33\n\
            w_batches=12\nw_tweet_interval=40\nw_seed=5\n";
        assert_eq!(encode(&AdScenario::default()), ad_default);
        assert_eq!(encode(&ad_scenario_off_default()), ad_off_default);
        assert_eq!(
            encode_wordcount_params(&WordcountScenario::default(), false),
            wordcount_default
        );
        assert_eq!(
            encode_wordcount_params(&wordcount_scenario_off_default(), true),
            wordcount_off_default
        );
    }

    #[test]
    fn ad_params_round_trip_exactly() {
        let sc = ad_scenario_off_default();
        for (strategy, query, placement) in [
            (
                StrategyKind::Uncoordinated,
                ReportQuery::Thresh,
                CampaignPlacement::Spread,
            ),
            (
                StrategyKind::Ordered,
                ReportQuery::Poor,
                CampaignPlacement::Independent,
            ),
            (
                StrategyKind::Sealed,
                ReportQuery::Campaign,
                CampaignPlacement::Spread,
            ),
        ] {
            let mut sc = AdScenario {
                strategy,
                query,
                ..sc.clone()
            };
            sc.workload.placement = placement;
            let enc = encode(&sc);
            assert!(!enc.contains("auto"), "one assembly, no flag to pick it");
            let back: AdScenario = parse(&enc).unwrap();
            assert_eq!(format!("{back:?}"), format!("{sc:?}"));
            assert_eq!(
                back.click_duplicates.to_bits(),
                sc.click_duplicates.to_bits()
            );
        }
    }

    #[test]
    fn wordcount_params_round_trip_exactly() {
        let sc = wordcount_scenario_off_default();
        for sealed in [false, true] {
            let enc = encode_wordcount_params(&sc, sealed);
            let (back, back_sealed): (WordcountScenario, bool) = parse(&enc).unwrap();
            assert_eq!(back_sealed, sealed);
            assert_eq!(format!("{back:?}"), format!("{sc:?}"));
        }
    }

    /// Both plans refuse a missing, malformed, unknown or repeated key,
    /// and a value spelled any way but the encoder's.
    #[test]
    fn a_damaged_plan_is_rejected() {
        type Parse = fn(&str) -> Result<(), String>;
        let plans: [(&str, String, Parse); 2] = [
            ("ad-report", encode(&AdScenario::default()), |p| {
                parse::<AdScenario>(p).map(drop)
            }),
            (
                "wordcount",
                encode_wordcount_params(&WordcountScenario::default(), true),
                |p| parse::<(WordcountScenario, bool)>(p).map(drop),
            ),
        ];
        type Damage = fn(&str) -> String;
        let damages: [(&str, Damage, &str); 9] = [
            (
                "missing key",
                |p| {
                    p.lines()
                        .filter(|l| !l.starts_with("seed="))
                        .map(|l| format!("{l}\n"))
                        .collect()
                },
                "expected `seed=..`",
            ),
            (
                "missing last key",
                |p| p[..p.rfind("w_seed").expect("a w_seed key")].to_string(),
                "expected `w_seed=..`, found ``",
            ),
            (
                "malformed value",
                |p| p.replacen("\nseed=", "\nseed=x", 1),
                "expected `seed=..`",
            ),
            (
                "non-decimal value",
                |p| p.replacen("\nseed=", "\nseed=+", 1),
                "expected `seed=..`",
            ),
            (
                "no `=`",
                |p| p.replacen("\nseed=", "\nseed", 1),
                "expected `seed=..`",
            ),
            ("unknown key", |p| format!("auto=1\n{p}"), "found `auto=1`"),
            (
                "unknown trailing key",
                |p| format!("{p}auto=1\n"),
                "unexpected `auto=1`",
            ),
            (
                "repeated key",
                |p| format!("{p}seed=9\n"),
                "unexpected `seed=9`",
            ),
            ("blank line", |p| format!("{p}\n"), "unexpected ``"),
        ];
        for (topology, plan, parse) in &plans {
            assert_eq!(parse(plan), Ok(()), "{topology}: the intact plan parses");
            for (damage, apply, error) in damages {
                let result = parse(&apply(plan));
                assert!(
                    result.as_ref().is_err_and(|e| e.contains(error)),
                    "{topology}, {damage}: {result:?}"
                );
            }
        }
        // A key repeated mid-plan is refused where the next key was due.
        let plan = encode(&AdScenario::default()).replacen("query=", "strategy=sealed\nquery=", 1);
        assert_eq!(
            parse::<AdScenario>(&plan).map(drop),
            Err("expected `query=..`, found `strategy=sealed`".to_string())
        );
    }

    /// The registry refuses a damaged plan string by panicking: it came
    /// from the parent's encoder, so damage is a protocol bug.
    fn assemble_plan(topology: &str, params: &str) {
        let _ = dist_registry().assemble(topology, params, &mut Topology::new());
    }

    #[test]
    #[should_panic(expected = "ad-report plan: expected `strategy=..`, found `auto=1`")]
    fn a_plan_with_an_unknown_key_is_rejected() {
        let enc = encode(&AdScenario::default());
        assemble_plan(AdScenario::TOPOLOGY, &format!("auto=1\n{enc}"));
    }

    #[test]
    #[should_panic(expected = "wordcount plan: expected `sealed=..`, found `auto=1`")]
    fn a_wordcount_plan_with_an_unknown_key_is_rejected() {
        let enc = encode_wordcount_params(&WordcountScenario::default(), true);
        assemble_plan(WORDCOUNT_TOPOLOGY, &format!("auto=1\n{enc}"));
    }

    #[test]
    #[should_panic(expected = "wordcount plan: unexpected `workers=9` after the last field")]
    fn a_wordcount_plan_with_a_repeated_key_is_rejected() {
        let enc = encode_wordcount_params(&WordcountScenario::default(), true);
        assemble_plan(WORDCOUNT_TOPOLOGY, &format!("{enc}workers=9\n"));
    }

    #[test]
    fn registry_knows_both_case_studies() {
        let reg = dist_registry();
        let plans = [
            (AdScenario::TOPOLOGY, encode(&AdScenario::default())),
            (
                WORDCOUNT_TOPOLOGY,
                encode_wordcount_params(&WordcountScenario::default(), true),
            ),
        ];
        for (name, params) in plans {
            let mut recording = Topology::new();
            let sinks = reg.assemble(name, &params, &mut recording).unwrap();
            assert!(
                recording.instance_names().len() > 0 && !sinks.is_empty(),
                "{name}"
            );
        }
    }
}
