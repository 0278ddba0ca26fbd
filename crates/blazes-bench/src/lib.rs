//! # blazes-bench
//!
//! The harness regenerating the Blazes evaluation (paper Section VIII).
//! One rule: **`tests/` prove, the targets here only emit artifacts** —
//! figure tables, `BENCH_*.json` records, Chrome traces. A digest or
//! determinism obligation lives once, in the workspace's `tests/`; a
//! binary here never re-asserts it.
//!
//! | target | emits |
//! |---|---|
//! | `cargo run -p blazes-bench --release --bin fig11` | Fig. 11: Storm wordcount throughput vs cluster size, transactional vs sealed |
//! | `cargo run -p blazes-bench --release --bin fig12` | Fig. 12: ad reporting, records processed over time, 5 ad servers |
//! | `cargo run -p blazes-bench --release --bin fig13` | Fig. 13: same, 10 ad servers |
//! | `cargo run -p blazes-bench --release --bin fig14` | Fig. 14: seal vs independent seal, 10 ad servers |
//! | `cargo run -p blazes-bench --release --bin case-studies` | Section VI: the label derivations for both case studies |
//! | `… --bin par_scaling -- --out BENCH_par_scaling.json` | sim vs par sweep + the blocking-vs-speculative race ([`scaling`]) |
//! | `… --bin bloom_scaling -- --out BENCH_bloom_scaling.json` | naive vs semi-naive Bloom sweep ([`bloom_scaling`]) |
//! | `… --bin dist_trace -- [--chaos] FILE` | Chrome trace of one real 2-process run, optionally with a mid-run SIGKILL |
//! | `… --bin analysis_scaling -- --out BENCH_analysis.json` | cost of the analysis itself as the dataflow grows |
//!
//! Figures 12–14 measure the coordination Blazes *synthesizes*: each legend
//! entry is one [`StrategyKind`] — what the analysis is told — run through
//! the one analysis-driven runner, [`run_ad_auto`], and every line reports
//! how many operators the injection pass added.
//!
//! The library half holds what the targets and the workspace's tests
//! share: the calibrated figure scenarios (`fig11_scenario`,
//! [`adreport_scenario`]) and the one small scenario every digest
//! differential runs ([`differential_scenario`]).

#![forbid(unsafe_code)]

use blazes_apps::adreport::{AdScenario, StrategyKind};
use blazes_apps::autocoord::run_ad_auto;
use blazes_apps::queries::ReportQuery;
use blazes_apps::wordcount::{run_wordcount, WordcountScenario};
use blazes_apps::workload::{CampaignPlacement, ClickWorkload, TweetWorkload};
use blazes_dataflow::backend::BackendSpec;
use blazes_dataflow::metrics::TimeSeries;
use blazes_dataflow::sim::Time;

pub mod bloom_scaling;
pub mod cli;
pub mod json;
pub mod scaling;

/// Calibrated wordcount scenario for one Fig. 11 data point.
///
/// The shape knobs mirror the paper's setup: a fixed workload processed by
/// a cluster of `workers` nodes; the transactional variant pays a
/// coordination round-trip per batch, serialized in batch order.
#[must_use]
fn fig11_scenario(workers: usize, transactional: bool, seed: u64) -> WordcountScenario {
    WordcountScenario {
        workers,
        spouts: 4,
        committers: 2,
        workload: TweetWorkload {
            vocabulary: 10_000,
            zipf_exponent: 0.5,
            words_per_tweet: 5,
            tweets_per_batch: 50,
            batches: 40,
            tweet_interval: 20,
            seed: 1000 + seed,
        },
        transactional,
        count_service: 120,
        splitter_service: 40,
        coordinator_service: 3_000,
        coordinator_latency: 4_000,
        max_pending: 1,
        seed,
    }
}

/// Nanoseconds of real spin per modeled service unit that make the
/// parallel backend's Fig. 11 magnitudes comparable to the simulator's:
/// the simulator's `Time` unit is one virtual microsecond, so realizing
/// each unit as 1000 ns of wall clock
/// (`ParTuning::with_virtual_service_ns(Some(FIG11_VIRTUAL_NS))`) puts
/// both backends on the same axis.
pub const FIG11_VIRTUAL_NS: u64 = 1_000;

/// One Fig. 11 data point on `backend`, averaged over `runs` seeds (the
/// paper averages over three runs). On the simulator throughput is tweets
/// per *virtual* second; on the parallel executor it is tweets per
/// *wall-clock* second — comparable in shape, not in magnitude, unless
/// the tuning burns modeled service times ([`FIG11_VIRTUAL_NS`]).
#[must_use]
pub fn fig11_point(
    workers: usize,
    transactional: bool,
    runs: u64,
    backend: &BackendSpec,
) -> Fig11Point {
    let throughputs: Vec<f64> = (0..runs)
        .map(|seed| {
            run_wordcount(&fig11_scenario(workers, transactional, seed), backend).throughput()
        })
        .collect();
    Fig11Point {
        workers,
        transactional,
        mean_throughput: mean(&throughputs),
        stddev_throughput: stddev(&throughputs),
    }
}

/// A Fig. 11 sample.
#[derive(Debug, Clone)]
pub struct Fig11Point {
    /// Cluster size.
    pub workers: usize,
    /// Transactional or sealed topology.
    pub transactional: bool,
    /// Mean throughput (tweets per second; see [`fig11_point`]).
    pub mean_throughput: f64,
    /// Standard deviation across runs (the paper's error bars).
    pub stddev_throughput: f64,
}

/// Calibrated ad-reporting scenario for Figures 12–14.
#[must_use]
pub fn adreport_scenario(
    ad_servers: usize,
    strategy: StrategyKind,
    placement: CampaignPlacement,
    seed: u64,
) -> AdScenario {
    AdScenario {
        workload: ClickWorkload {
            ad_servers,
            entries_per_server: 1_000,
            batch_size: 50,
            sleep_between_batches: 1_000_000,
            entry_interval: 200,
            campaigns: 100,
            ads_per_campaign: 10,
            placement,
            seed: 500 + seed,
        },
        strategy,
        replicas: 3,
        requests: 20,
        report_service: 150,
        sequencer_service: 12_000,
        query: ReportQuery::Campaign,
        tick_every: 50,
        click_duplicates: 0.0,
        straggler_service: 0,
        requests_via_analyst: false,
        seed,
    }
}

/// The small ad-report scenario the digest differentials share —
/// `tests/{autocoord_differential,dist_differential,speculation}.rs`, a
/// cut-down variant in `tests/trace_differential.rs`, and the `dist_trace`
/// binary: 3 ad servers × 60 clicks, 8 CAMPAIGN requests, 3 replicas, the
/// default `Sealed` strategy. `seed` drives the fault RNG only; the click
/// log is fixed.
#[must_use]
pub fn differential_scenario(seed: u64) -> AdScenario {
    AdScenario {
        workload: ClickWorkload {
            ad_servers: 3,
            entries_per_server: 60,
            batch_size: 20,
            sleep_between_batches: 50_000,
            entry_interval: 200,
            campaigns: 6,
            ads_per_campaign: 4,
            placement: CampaignPlacement::Spread,
            seed: 5,
        },
        query: ReportQuery::Campaign,
        replicas: 3,
        requests: 8,
        // Answer every query against the instantaneous state, so an
        // uncoordinated run's race is maximally visible.
        tick_every: 1,
        // The at-least-once fault model: clicks replay on their wires,
        // driven by the per-wire fault RNG.
        click_duplicates: 0.2,
        // The analyst races with click ingestion on the workers.
        requests_via_analyst: true,
        seed,
        ..AdScenario::default()
    }
}

/// One figure-12/13/14 line: the per-replica-max cumulative series.
#[derive(Debug)]
pub struct AdLine {
    /// Figure legend label.
    pub label: &'static str,
    /// Downsampled `(seconds, records)` points of replica 0.
    pub points: Vec<(f64, u64)>,
    /// Completion time of the slowest replica, seconds.
    pub completion_secs: Option<f64>,
    /// Whether replicas answered queries consistently.
    pub consistent: bool,
    /// Coordination operators the injection pass added for this line.
    pub injected_operators: usize,
}

/// Run one ad-reporting configuration and extract its figure line.
#[must_use]
pub fn adreport_line(
    ad_servers: usize,
    strategy: StrategyKind,
    placement: CampaignPlacement,
    seed: u64,
    buckets: usize,
) -> AdLine {
    let sc = adreport_scenario(ad_servers, strategy, placement, seed);
    let (res, report) = run_ad_auto(&sc, &BackendSpec::Sim);
    AdLine {
        label: strategy.label(placement),
        points: downsample_secs(&res.series[0], buckets),
        completion_secs: res.completion_time().map(secs),
        consistent: res.responses_consistent(),
        injected_operators: report.stats.injected_operators,
    }
}

/// Render a figure line as a gnuplot-style two-column block.
#[must_use]
pub fn render_line(line: &AdLine) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "# {}", line.label);
    for (t, c) in &line.points {
        let _ = writeln!(s, "{t:10.2} {c:8}");
    }
    if let Some(done) = line.completion_secs {
        let _ = writeln!(
            s,
            "# {}: completed at {done:.2}s, consistent={}, injected operators={}",
            line.label, line.consistent, line.injected_operators
        );
    }
    s
}

/// Convert virtual microseconds to seconds.
#[must_use]
fn secs(t: Time) -> f64 {
    t as f64 / 1_000_000.0
}

fn downsample_secs(series: &TimeSeries, buckets: usize) -> Vec<(f64, u64)> {
    series
        .downsample(buckets)
        .into_iter()
        .map(|(t, c)| (secs(t), c))
        .collect()
}

/// Arithmetic mean.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
#[must_use]
fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_apps::wordcount::WordcountResult;

    /// A quick low-volume variant of [`fig11_point`].
    fn fig11_result_small(workers: usize, transactional: bool) -> WordcountResult {
        let mut sc = fig11_scenario(workers, transactional, 0);
        sc.workload.batches = 8;
        sc.workload.tweets_per_batch = 20;
        run_wordcount(&sc, &BackendSpec::Sim)
    }

    #[test]
    fn mean_and_stddev() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((stddev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[1.0]), 0.0);
    }

    #[test]
    fn fig11_sealed_beats_transactional() {
        let sealed = fig11_result_small(5, false);
        let tx = fig11_result_small(5, true);
        assert!(
            sealed.throughput() > tx.throughput(),
            "sealed {} must beat transactional {}",
            sealed.throughput(),
            tx.throughput()
        );
    }

    #[test]
    fn adreport_line_has_points() {
        let line = adreport_line(
            2,
            StrategyKind::Uncoordinated,
            CampaignPlacement::Spread,
            1,
            20,
        );
        assert!(!line.points.is_empty());
        assert!(line.completion_secs.is_some());
        let text = render_line(&line);
        assert!(text.contains("Uncoordinated"));
    }

    #[test]
    fn secs_conversion() {
        assert!((secs(1_500_000) - 1.5).abs() < 1e-12);
    }
}
