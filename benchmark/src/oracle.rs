//! Output oracles that are not the code under test, and the failure count
//! built on them.
//!
//! An *operation* is one expected output tuple; it fails when it is missing
//! or wrong. Every checker returns `(attempted, failed)`; a rep that errors,
//! panics or times out fails every operation [`expected_ops`] says it owed.
//!
//! * `adreport-seal-par` — per-replica response multisets equal to the
//!   `BackendSpec::Sim` run of the same scenario (the repo's reference
//!   executor; computed once per seed, outside timing).
//! * `adreport-order-par` — par's sequencer order legitimately differs from
//!   the simulator's, so there is no sim digest: every replica must report
//!   the same processed-record total, at least the clicks generated (seeded
//!   at-least-once duplicates inflate it), every replica must give each
//!   request the answer replica 0 gave it, and every answer must be
//!   plausible for the clicks the benchmark generated.
//! * `wordcount-*` — committed `(word, batch) → count` equal to a sequential
//!   fold over the generated tweets, done here.
//! * `bloom-tc` — the derived `path` relation is exactly the `n (n+1) / 2`
//!   ordered pairs of the generated chain.

use crate::workloads::{ad_scenario, tc_chain, wordcount_scenario, Size, Workload};
use blazes_apps::adreport::AdScenario;
use blazes_apps::autocoord::{response_digests, run_ad_auto};
use blazes_apps::wordcount::WordcountScenario;
use blazes_dataflow::backend::BackendSpec;
use blazes_dataflow::message::Message;
use blazes_dataflow::metrics::RunStats;
use blazes_dataflow::sinks::CollectorSink;
use blazes_dataflow::value::{Tuple, Value};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Per-replica response multisets in canonical order, one string per
/// response (strings so the orchestrator can hand them to a rep child in a
/// file).
pub type Digests = Vec<Vec<String>>;

/// Canonical digests of a set of response sinks.
pub fn digests_of(responses: &[CollectorSink]) -> Digests {
    response_digests(responses)
        .iter()
        .map(|replica| replica.iter().map(|m| format!("{m:?}")).collect())
        .collect()
}

/// The simulator's answer for `sc`, with how long the single-threaded run
/// took and its statistics (the `sim.*` baseline metrics).
pub fn sim_reference(sc: &AdScenario) -> (Digests, Duration, RunStats) {
    let start = Instant::now();
    let (run, _) = run_ad_auto(sc, &BackendSpec::Sim);
    let wall = start.elapsed();
    let stats = run
        .stats
        .as_sim()
        .expect("a Sim spec returns Sim statistics")
        .clone();
    (digests_of(&run.responses), wall, stats)
}

/// How many of `expected` are missing from or wrong in `actual` (both
/// multisets). A wrong tuple shows up as one missing plus one extra and
/// counts once; surplus tuples count too.
pub fn multiset_failures(expected: &[String], actual: &[String]) -> u64 {
    let mut balance: HashMap<&str, i64> = HashMap::new();
    for e in expected {
        *balance.entry(e).or_default() += 1;
    }
    for a in actual {
        *balance.entry(a).or_default() -= 1;
    }
    let missing: i64 = balance.values().filter(|v| **v > 0).sum();
    let extra: i64 = -balance.values().filter(|v| **v < 0).sum::<i64>();
    missing.max(extra) as u64
}

/// `adreport-seal-par`: compare per-replica digests with the reference.
pub fn check_ad_seal(expected: &Digests, actual: &Digests) -> (u64, u64) {
    let attempted = expected.iter().map(|r| r.len() as u64).sum();
    let failed = expected
        .iter()
        .enumerate()
        .map(|(r, exp)| multiset_failures(exp, actual.get(r).map_or(&[][..], Vec::as_slice)))
        .sum();
    (attempted, failed)
}

/// `adreport-order-par`: one operation per (replica, request). A replica's
/// answer to a request — possibly empty: whether the requested ad is still
/// a poor performer when the request is sequenced depends on the order the
/// sequencer happened to fix — must equal replica 0's answer to it, and
/// every answer `(id, n)` must be plausible for the generated clicks:
/// `1 ≤ n < 100` (the POOR threshold) and `n` at most twice the clicks
/// generated for `id` (each click is delivered at most twice). `totals` are
/// the per-replica processed-record totals, `responses` the per-replica
/// response messages.
pub fn check_ad_order(sc: &AdScenario, totals: &[u64], responses: &[Vec<Message>]) -> (u64, u64) {
    let attempted = (sc.replicas * sc.requests) as u64;
    let clicks = sc.workload.total_entries() as u64;
    let totals_ok = totals.len() == sc.replicas
        && totals.windows(2).all(|w| w[0] == w[1])
        && totals.iter().all(|t| *t >= clicks);
    if !totals_ok || responses.len() != sc.replicas {
        return (attempted, attempted);
    }
    let mut generated: HashMap<i64, i64> = HashMap::new();
    for server in 0..sc.workload.ad_servers {
        for (_, click) in sc.workload.generate(server).clicks {
            if let Some(id) = click.get(0).and_then(Value::as_int) {
                *generated.entry(id).or_default() += 1;
            }
        }
    }
    let ad_space = (sc.workload.campaigns * sc.workload.ads_per_campaign) as i64;
    let mut asked: BTreeMap<i64, usize> = BTreeMap::new();
    for request in 0..sc.requests {
        *asked.entry(request as i64 % ad_space).or_default() += 1;
    }
    // Per replica: requested id -> the counts answered for it, sorted; or
    // `None` when the replica said something no request can explain.
    let answers: Vec<Option<BTreeMap<i64, Vec<i64>>>> = responses
        .iter()
        .map(|replica| {
            let mut by_id: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            for msg in replica {
                let t = msg.as_data()?;
                let (id, n) = (t.get(0)?.as_int()?, t.get(1)?.as_int()?);
                let plausible = t.arity() == 2
                    && (1..100).contains(&n)
                    && n <= 2 * generated.get(&id).copied().unwrap_or(0);
                if !plausible {
                    return None;
                }
                by_id.entry(id).or_default().push(n);
            }
            let explained = by_id
                .iter()
                .all(|(id, ns)| asked.get(id).is_some_and(|times| ns.len() <= *times));
            by_id.values_mut().for_each(|ns| ns.sort_unstable());
            explained.then_some(by_id)
        })
        .collect();
    let failed = answers
        .iter()
        .map(|replica| match (replica, &answers[0]) {
            (Some(mine), Some(reference)) => asked
                .iter()
                .filter(|(id, _)| mine.get(id) != reference.get(id))
                .map(|(_, times)| *times as u64)
                .sum(),
            _ => sc.requests as u64,
        })
        .sum();
    (attempted, failed)
}

/// The wordcount oracle: fold every spout's generated tweets sequentially.
pub fn wordcount_expected(sc: &WordcountScenario) -> HashMap<(String, i64), i64> {
    let mut counts = HashMap::new();
    for spout in 0..sc.spouts {
        for (_, tweet) in sc.workload.generate(spout) {
            let (Some(text), Some(batch)) = (
                tweet.get(0).and_then(Value::as_str),
                tweet.get(1).and_then(Value::as_int),
            ) else {
                continue;
            };
            for word in text.split_whitespace() {
                *counts.entry((word.to_string(), batch)).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// `wordcount-*`: every expected `(word, batch)` committed exactly once
/// with the right count, and nothing else committed.
pub fn check_wordcount(
    expected: &HashMap<(String, i64), i64>,
    committed: &CollectorSink,
) -> (u64, u64) {
    let messages = committed.messages();
    // (word, batch) -> (the count last committed, how many times committed).
    let mut commits: HashMap<(&str, i64), (i64, u32)> = HashMap::with_capacity(expected.len());
    let mut malformed = 0u64;
    for msg in &messages {
        let Message::Data(t) = msg else { continue };
        match (
            t.get(0).and_then(Value::as_str),
            t.get(1).and_then(Value::as_int),
            t.get(2).and_then(Value::as_int),
        ) {
            (Some(word), Some(batch), Some(n)) => {
                let entry = commits.entry((word, batch)).or_insert((n, 0));
                *entry = (n, entry.1 + 1);
            }
            _ => malformed += 1,
        }
    }
    let mut known = 0usize;
    let mut failed = malformed;
    for ((word, batch), count) in expected {
        match commits.get(&(word.as_str(), *batch)) {
            Some(commit) => {
                known += 1;
                failed += u64::from(*commit != (*count, 1));
            }
            None => failed += 1,
        }
    }
    failed += (commits.len() - known) as u64; // keys that were never expected
    (expected.len() as u64, failed.min(expected.len() as u64))
}

/// `bloom-tc`: `paths` must be exactly the ordered pairs of the chain whose
/// nodes, in chain order, are `nodes`.
pub fn check_tc(nodes: &[i64], paths: &[Tuple]) -> (u64, u64) {
    let edges = nodes.len().saturating_sub(1) as u64;
    let attempted = edges * (edges + 1) / 2;
    let position: HashMap<i64, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut valid: Vec<(usize, usize)> = paths
        .iter()
        .filter_map(|t| {
            let src = position.get(&t.get(0)?.as_int()?)?;
            let dst = position.get(&t.get(1)?.as_int()?)?;
            (t.arity() == 2 && src < dst).then_some((*src, *dst))
        })
        .collect();
    valid.sort_unstable();
    valid.dedup();
    let good = valid.len() as u64;
    let surplus = paths.len() as u64 - good;
    (attempted, (attempted - good).max(surplus).min(attempted))
}

/// Operations a rep of `workload` owes, for charging a rep that died
/// before it could check anything. `seal_reference` is the simulator
/// digest the orchestrator already holds for `adreport-seal-par`.
pub fn expected_ops(
    workload: Workload,
    seed: u64,
    size: Size,
    seal_reference: Option<&Digests>,
) -> u64 {
    match workload {
        Workload::AdSealPar => match seal_reference {
            Some(digests) => digests.iter().map(|r| r.len() as u64).sum(),
            None => {
                let sc = ad_scenario(workload, seed, size);
                (sc.replicas * sc.requests) as u64
            }
        },
        Workload::AdOrderPar => {
            let sc = ad_scenario(workload, seed, size);
            (sc.replicas * sc.requests) as u64
        }
        Workload::WordcountPar | Workload::WordcountDist => {
            wordcount_expected(&wordcount_scenario(workload, seed, size)).len() as u64
        }
        Workload::BloomTc => {
            let edges = tc_chain(seed, size).1.len() as u64;
            edges * (edges + 1) / 2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn multiset_failures_count_missing_wrong_and_surplus() {
        let exp = strings(&["a", "a", "b"]);
        assert_eq!(multiset_failures(&exp, &strings(&["b", "a", "a"])), 0);
        assert_eq!(
            multiset_failures(&exp, &strings(&["a", "b"])),
            1,
            "one missing"
        );
        assert_eq!(
            multiset_failures(&exp, &strings(&["a", "a", "c"])),
            1,
            "one wrong"
        );
        assert_eq!(
            multiset_failures(&exp, &strings(&["a", "a", "b", "b"])),
            1,
            "one surplus"
        );
        assert_eq!(multiset_failures(&exp, &[]), 3);
    }

    #[test]
    fn tc_oracle_accepts_the_closure_and_nothing_else() {
        let nodes = [30, 10, 20];
        let pair = |a: i64, b: i64| Tuple(vec![Value::Int(a), Value::Int(b)]);
        let closure = vec![pair(30, 10), pair(10, 20), pair(30, 20)];
        assert_eq!(check_tc(&nodes, &closure), (3, 0));
        assert_eq!(check_tc(&nodes, &closure[..2]), (3, 1), "missing path");
        let mut reversed = closure.clone();
        reversed[2] = pair(20, 30);
        assert_eq!(check_tc(&nodes, &reversed), (3, 1), "wrong direction");
        let mut doubled = closure.clone();
        doubled.push(pair(30, 10));
        assert_eq!(check_tc(&nodes, &doubled), (3, 1), "duplicate output");
    }

    #[test]
    fn wordcount_oracle_flags_wrong_missing_and_unexpected_commits() {
        let expected: HashMap<(String, i64), i64> =
            [(("w1".to_string(), 0), 2), (("w2".to_string(), 0), 1)].into();
        let commit = |w: &str, b: i64, n: i64| {
            (
                0,
                Message::Data(Tuple(vec![Value::str(w), Value::Int(b), Value::Int(n)])),
            )
        };
        let sink = CollectorSink::new();
        sink.extend([commit("w1", 0, 2), commit("w2", 0, 1)]);
        assert_eq!(check_wordcount(&expected, &sink), (2, 0));
        sink.clear();
        sink.extend([commit("w1", 0, 3)]);
        assert_eq!(
            check_wordcount(&expected, &sink),
            (2, 2),
            "one wrong, one missing"
        );
        sink.clear();
        sink.extend([commit("w1", 0, 2), commit("w2", 0, 1), commit("w1", 0, 2)]);
        assert_eq!(check_wordcount(&expected, &sink), (2, 1), "committed twice");
    }

    #[test]
    fn order_oracle_requires_agreement_plausibility_and_full_totals() {
        let sc = AdScenario {
            replicas: 2,
            requests: 2,
            ..ad_scenario(Workload::AdOrderPar, 0, Size::Smoke)
        };
        let clicks = sc.workload.total_entries() as u64;
        let answer = |id: i64, n: i64| Message::Data(Tuple(vec![Value::Int(id), Value::Int(n)]));
        let full = [clicks + 5, clicks + 5];
        let same = vec![
            vec![answer(0, 3), answer(1, 2)],
            vec![answer(1, 2), answer(0, 3)],
        ];
        assert_eq!(check_ad_order(&sc, &full, &same), (4, 0));
        assert_eq!(
            check_ad_order(&sc, &[clicks + 5, clicks + 4], &same),
            (4, 4)
        );
        assert_eq!(
            check_ad_order(&sc, &[clicks - 1, clicks - 1], &same),
            (4, 4)
        );
        // A request sequenced before the ad's first click has no answer;
        // that is fine as long as every replica agrees.
        let unanswered = vec![vec![answer(0, 3)], vec![answer(0, 3)]];
        assert_eq!(check_ad_order(&sc, &full, &unanswered), (4, 0));
        let differ = vec![
            vec![answer(0, 3), answer(1, 2)],
            vec![answer(0, 3), answer(1, 1)],
        ];
        assert_eq!(check_ad_order(&sc, &full, &differ), (4, 1));
        let missing = vec![vec![answer(0, 3), answer(1, 2)], vec![answer(0, 3)]];
        assert_eq!(check_ad_order(&sc, &full, &missing), (4, 1));
        let not_poor = vec![vec![answer(0, 100)], vec![answer(0, 100)]];
        assert_eq!(
            check_ad_order(&sc, &full, &not_poor),
            (4, 4),
            "100 clicks is not poor"
        );
        let never_asked = vec![vec![answer(7, 1)], vec![answer(7, 1)]];
        assert_eq!(check_ad_order(&sc, &full, &never_asked), (4, 4));
    }
}
