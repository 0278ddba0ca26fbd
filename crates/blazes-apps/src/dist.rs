//! Distributed deployments of the case studies.
//!
//! The distributed backend cannot ship component closures across the
//! process boundary, so every process re-assembles the topology from a
//! *name* plus a *parameter string* (see
//! [`blazes_dataflow::dist::Registry`]). This module provides that
//! registry for the bundled case studies — the ad network and the Storm
//! wordcount, each re-assembled through the same analysis-driven path the
//! in-process backends use — together with the exact, line-based
//! `key=value` codecs that round-trip their scenario structs through the
//! plan frame. The ad-report plan is the scenario alone, whose `strategy`
//! says what the analysis is told; there is no second, hand-wired plan to
//! select, and no speculation flag: dist workers never speculate.
//! Floating-point fields travel as IEEE-754 bit patterns (`f64::to_bits`),
//! so a parsed scenario is bit-identical to the one the parent encoded and
//! the SPMD assembly stays deterministic everywhere.

use crate::adreport::{AdScenario, StrategyKind};
use crate::autocoord::{assemble_ad_auto, wordcount_ordering_config, wordcount_spec};
use crate::queries::ReportQuery;
use crate::wordcount::{wordcount_topology, WordcountScenario};
use crate::workload::{CampaignPlacement, ClickWorkload, TweetWorkload};
use blazes_dataflow::dist::{Registry, SinkSet};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Registry name of the ad-report topology.
pub const AD_TOPOLOGY: &str = "ad-report";

/// Registry name of the coordinated Storm wordcount topology.
pub const WORDCOUNT_TOPOLOGY: &str = "wordcount";

fn put(out: &mut String, key: &str, value: impl std::fmt::Display) {
    writeln!(out, "{key}={value}").expect("string write");
}

fn kv(params: &str) -> BTreeMap<&str, &str> {
    params
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_once('=').expect("malformed key=value parameter"))
        .collect()
}

fn get<'a>(map: &BTreeMap<&str, &'a str>, key: &str) -> &'a str {
    map.get(key)
        .unwrap_or_else(|| panic!("missing parameter `{key}`"))
}

fn get_usize(map: &BTreeMap<&str, &str>, key: &str) -> usize {
    get(map, key).parse().expect("usize parameter")
}

fn get_u64(map: &BTreeMap<&str, &str>, key: &str) -> u64 {
    get(map, key).parse().expect("u64 parameter")
}

fn get_bool(map: &BTreeMap<&str, &str>, key: &str) -> bool {
    match get(map, key) {
        "0" => false,
        "1" => true,
        other => panic!("boolean parameter must be 0/1, got `{other}`"),
    }
}

fn get_f64_bits(map: &BTreeMap<&str, &str>, key: &str) -> f64 {
    f64::from_bits(get_u64(map, key))
}

/// Encode an ad-report scenario into the plan parameter string parsed by
/// `parse_ad_params`.
#[must_use]
pub fn encode_ad_params(sc: &AdScenario) -> String {
    let mut out = String::new();
    put(
        &mut out,
        "strategy",
        match sc.strategy {
            StrategyKind::Uncoordinated => "uncoordinated",
            StrategyKind::Ordered => "ordered",
            StrategyKind::Sealed => "sealed",
        },
    );
    put(
        &mut out,
        "query",
        match sc.query {
            ReportQuery::Thresh => "thresh",
            ReportQuery::Poor => "poor",
            ReportQuery::Window => "window",
            ReportQuery::Campaign => "campaign",
        },
    );
    put(&mut out, "replicas", sc.replicas);
    put(&mut out, "requests", sc.requests);
    put(&mut out, "report_service", sc.report_service);
    put(&mut out, "sequencer_service", sc.sequencer_service);
    put(&mut out, "tick_every", sc.tick_every);
    put(&mut out, "click_duplicates", sc.click_duplicates.to_bits());
    put(&mut out, "straggler_service", sc.straggler_service);
    put(
        &mut out,
        "requests_via_analyst",
        u8::from(sc.requests_via_analyst),
    );
    put(&mut out, "seed", sc.seed);
    let w = &sc.workload;
    put(&mut out, "w_ad_servers", w.ad_servers);
    put(&mut out, "w_entries_per_server", w.entries_per_server);
    put(&mut out, "w_batch_size", w.batch_size);
    put(&mut out, "w_sleep_between_batches", w.sleep_between_batches);
    put(&mut out, "w_entry_interval", w.entry_interval);
    put(&mut out, "w_campaigns", w.campaigns);
    put(&mut out, "w_ads_per_campaign", w.ads_per_campaign);
    put(
        &mut out,
        "w_placement",
        match w.placement {
            CampaignPlacement::Independent => "independent",
            CampaignPlacement::Spread => "spread",
        },
    );
    put(&mut out, "w_seed", w.seed);
    out
}

/// Parse the parameter string produced by [`encode_ad_params`] back into
/// the scenario.
///
/// # Panics
/// Panics on any missing, malformed or unknown field — the string comes
/// from the parent's deterministic encoder, so damage means a protocol bug.
#[must_use]
fn parse_ad_params(params: &str) -> AdScenario {
    let m = kv(params);
    let sc = AdScenario {
        workload: ClickWorkload {
            ad_servers: get_usize(&m, "w_ad_servers"),
            entries_per_server: get_usize(&m, "w_entries_per_server"),
            batch_size: get_usize(&m, "w_batch_size"),
            sleep_between_batches: get_u64(&m, "w_sleep_between_batches"),
            entry_interval: get_u64(&m, "w_entry_interval"),
            campaigns: get_usize(&m, "w_campaigns"),
            ads_per_campaign: get_usize(&m, "w_ads_per_campaign"),
            placement: match get(&m, "w_placement") {
                "independent" => CampaignPlacement::Independent,
                "spread" => CampaignPlacement::Spread,
                other => panic!("unknown placement `{other}`"),
            },
            seed: get_u64(&m, "w_seed"),
        },
        strategy: match get(&m, "strategy") {
            "uncoordinated" => StrategyKind::Uncoordinated,
            "ordered" => StrategyKind::Ordered,
            "sealed" => StrategyKind::Sealed,
            other => panic!("unknown strategy `{other}`"),
        },
        replicas: get_usize(&m, "replicas"),
        requests: get_usize(&m, "requests"),
        report_service: get_u64(&m, "report_service"),
        sequencer_service: get_u64(&m, "sequencer_service"),
        query: match get(&m, "query") {
            "thresh" => ReportQuery::Thresh,
            "poor" => ReportQuery::Poor,
            "window" => ReportQuery::Window,
            "campaign" => ReportQuery::Campaign,
            other => panic!("unknown query `{other}`"),
        },
        tick_every: get_usize(&m, "tick_every"),
        click_duplicates: get_f64_bits(&m, "click_duplicates"),
        straggler_service: get_u64(&m, "straggler_service"),
        requests_via_analyst: get_bool(&m, "requests_via_analyst"),
        seed: get_u64(&m, "seed"),
    };
    // The codec is exact both ways: a key it does not know is damage too,
    // not something to skip over.
    assert_eq!(
        encode_ad_params(&sc),
        params,
        "ad-report plan is not what the encoder writes"
    );
    sc
}

/// Encode a wordcount scenario (plus the `sealed` analysis flag) into the
/// plan parameter string parsed by `parse_wordcount_params`.
#[must_use]
pub fn encode_wordcount_params(sc: &WordcountScenario, sealed: bool) -> String {
    let mut out = String::new();
    put(&mut out, "sealed", u8::from(sealed));
    put(&mut out, "workers", sc.workers);
    put(&mut out, "spouts", sc.spouts);
    put(&mut out, "committers", sc.committers);
    put(&mut out, "transactional", u8::from(sc.transactional));
    put(&mut out, "count_service", sc.count_service);
    put(&mut out, "splitter_service", sc.splitter_service);
    put(&mut out, "coordinator_service", sc.coordinator_service);
    put(&mut out, "coordinator_latency", sc.coordinator_latency);
    put(&mut out, "max_pending", sc.max_pending);
    put(&mut out, "seed", sc.seed);
    let w = &sc.workload;
    put(&mut out, "w_vocabulary", w.vocabulary);
    put(&mut out, "w_zipf_exponent", w.zipf_exponent.to_bits());
    put(&mut out, "w_words_per_tweet", w.words_per_tweet);
    put(&mut out, "w_tweets_per_batch", w.tweets_per_batch);
    put(&mut out, "w_batches", w.batches);
    put(&mut out, "w_tweet_interval", w.tweet_interval);
    put(&mut out, "w_seed", w.seed);
    out
}

/// Parse the parameter string produced by [`encode_wordcount_params`]
/// back into the scenario plus the `sealed` flag.
///
/// # Panics
/// Panics on any missing, malformed, unknown or repeated field, as
/// [`parse_ad_params`].
#[must_use]
fn parse_wordcount_params(params: &str) -> (WordcountScenario, bool) {
    let m = kv(params);
    let sc = WordcountScenario {
        workers: get_usize(&m, "workers"),
        spouts: get_usize(&m, "spouts"),
        committers: get_usize(&m, "committers"),
        workload: TweetWorkload {
            vocabulary: get_usize(&m, "w_vocabulary"),
            zipf_exponent: get_f64_bits(&m, "w_zipf_exponent"),
            words_per_tweet: get_usize(&m, "w_words_per_tweet"),
            tweets_per_batch: get_usize(&m, "w_tweets_per_batch"),
            batches: get_usize(&m, "w_batches"),
            tweet_interval: get_u64(&m, "w_tweet_interval"),
            seed: get_u64(&m, "w_seed"),
        },
        transactional: get_bool(&m, "transactional"),
        count_service: get_u64(&m, "count_service"),
        splitter_service: get_u64(&m, "splitter_service"),
        coordinator_service: get_u64(&m, "coordinator_service"),
        coordinator_latency: get_u64(&m, "coordinator_latency"),
        max_pending: get_usize(&m, "max_pending"),
        seed: get_u64(&m, "seed"),
    };
    let sealed = get_bool(&m, "sealed");
    assert_eq!(
        encode_wordcount_params(&sc, sealed),
        params,
        "wordcount plan is not what the encoder writes"
    );
    (sc, sealed)
}

/// The case-study registry for distributed runs: [`AD_TOPOLOGY`] is the
/// ad network assembled by [`assemble_ad_auto`] (an `Uncoordinated`
/// scenario, the divergence baseline, comes through it rewrite-free),
/// [`WORDCOUNT_TOPOLOGY`] is the Storm wordcount with its
/// analysis-derived coordination applied before assembly. Both assemblies
/// are pure functions of the parameter string, which is what keeps every
/// process's instance numbering identical.
#[must_use]
pub fn dist_registry() -> Registry {
    let mut reg = Registry::new();
    reg.register(AD_TOPOLOGY, |b, params| -> SinkSet {
        assemble_ad_auto(&parse_ad_params(params), false, b).responses
    });
    reg.register(WORDCOUNT_TOPOLOGY, |b, params| -> SinkSet {
        let (sc, sealed) = parse_wordcount_params(params);
        let spec = wordcount_spec(sealed);
        let (mut t, committed) = wordcount_topology(&sc);
        t.apply_coordination(&spec, &wordcount_ordering_config(&sc))
            .expect("spec fits the wordcount topology");
        let store = t
            .describe()
            .nodes
            .iter()
            .position(|n| n.name == "store")
            .expect("wordcount has a store sink");
        let (instances, _) = t.assemble(b);
        vec![(instances[store][0], committed)]
    });
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_dataflow::dist::ProbeBuilder;

    #[test]
    fn ad_params_round_trip_exactly() {
        let sc = AdScenario {
            click_duplicates: 0.2,
            requests_via_analyst: true,
            query: ReportQuery::Poor,
            ..AdScenario::default()
        };
        for strategy in [
            StrategyKind::Uncoordinated,
            StrategyKind::Ordered,
            StrategyKind::Sealed,
        ] {
            let sc = AdScenario {
                strategy,
                ..sc.clone()
            };
            let enc = encode_ad_params(&sc);
            assert!(!enc.contains("auto"), "one assembly, no flag to pick it");
            let back = parse_ad_params(&enc);
            assert_eq!(format!("{back:?}"), format!("{sc:?}"));
            assert_eq!(
                back.click_duplicates.to_bits(),
                sc.click_duplicates.to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "not what the encoder writes")]
    fn a_plan_with_an_unknown_key_is_rejected() {
        let enc = encode_ad_params(&AdScenario::default());
        let _ = parse_ad_params(&format!("auto=1\n{enc}"));
    }

    #[test]
    fn wordcount_params_round_trip_exactly() {
        let sc = WordcountScenario {
            workers: 5,
            max_pending: 2,
            ..WordcountScenario::default()
        };
        let enc = encode_wordcount_params(&sc, true);
        let (back, sealed) = parse_wordcount_params(&enc);
        assert!(sealed);
        assert_eq!(format!("{back:?}"), format!("{sc:?}"));
    }

    #[test]
    #[should_panic(expected = "not what the encoder writes")]
    fn a_wordcount_plan_with_an_unknown_key_is_rejected() {
        let enc = encode_wordcount_params(&WordcountScenario::default(), true);
        let _ = parse_wordcount_params(&format!("auto=1\n{enc}"));
    }

    #[test]
    #[should_panic(expected = "not what the encoder writes")]
    fn a_wordcount_plan_with_a_repeated_key_is_rejected() {
        let enc = encode_wordcount_params(&WordcountScenario::default(), true);
        let _ = parse_wordcount_params(&format!("{enc}workers=9\n"));
    }

    #[test]
    fn registry_knows_both_case_studies() {
        let reg = dist_registry();
        let plans = [
            (AD_TOPOLOGY, encode_ad_params(&AdScenario::default())),
            (
                WORDCOUNT_TOPOLOGY,
                encode_wordcount_params(&WordcountScenario::default(), true),
            ),
        ];
        for (name, params) in plans {
            let mut probe = ProbeBuilder::new();
            let sinks = reg.assemble(name, &params, &mut probe).unwrap();
            assert!(probe.instances() > 0 && !sinks.is_empty(), "{name}");
        }
    }
}
