//! The `autocoord-differential` CI gate: the proof obligations of the
//! analysis-driven coordination subsystem, run as a binary so CI fails
//! loudly when either breaks.
//!
//! 1. **Anomaly repro.** The uncoordinated ad-report run must exhibit
//!    replica-divergence / cross-run nondeterminism under the fault
//!    seed (the paper's Section III-A anomaly), while the
//!    auto-coordinated run produces bit-identical per-replica digests
//!    across `{1,2,4,8}` workers — and matches the discrete-event
//!    simulator.
//! 2. **Minimality overhead.** The confluent (sealed) wordcount must
//!    come through the rewrite pass with zero injected operators, and
//!    its coordinated wall time must stay within 10% of the
//!    uncoordinated baseline (`--overhead <pct>` to override).
//!
//! ```text
//! cargo run -p blazes-bench --release --bin autocoord_differential
//! ```

use blazes_apps::adreport::{AdScenario, StrategyKind};
use blazes_apps::autocoord::{response_digests, run_ad_auto, run_wordcount_auto};
use blazes_apps::queries::ReportQuery;
use blazes_apps::wordcount::{run_wordcount, WordcountScenario};
use blazes_apps::workload::{CampaignPlacement, ClickWorkload, TweetWorkload};
use blazes_dataflow::backend::BackendSpec;
use blazes_dataflow::par::ParTuning;
use std::process::ExitCode;
use std::time::Instant;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn ad_scenario(seed: u64) -> AdScenario {
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
        tick_every: 1,
        click_duplicates: 0.2,
        requests_via_analyst: true,
        seed,
        ..AdScenario::default()
    }
}

/// A tiny stable fingerprint of a digest vector, for the log.
fn fingerprint(digests: &[Vec<blazes_dataflow::message::Message>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        for m in d {
            for b in format!("{m:?}").bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn anomaly_repro() -> Result<(), String> {
    // Uncoordinated: hunt for divergence across seeds. Ad server 0 is a
    // wall-clock straggler (its modeled service burned as real spin), so
    // analyst requests genuinely race its lagging clicks and the anomaly
    // does not hinge on scheduler luck.
    let mut diverged = false;
    'seeds: for seed in 0..5u64 {
        let mut digests = Vec::new();
        for workers in WORKER_COUNTS {
            let (res, _) = run_ad_auto(
                &AdScenario {
                    strategy: StrategyKind::Uncoordinated,
                    straggler_service: 2_500,
                    ..ad_scenario(seed)
                },
                &BackendSpec::Par {
                    workers,
                    tuning: ParTuning::default().with_virtual_service_ns(Some(300)),
                },
            );
            if !res.responses_consistent() {
                println!("  uncoordinated seed {seed}: replicas DISAGREE within one run");
                diverged = true;
                break 'seeds;
            }
            digests.push(response_digests(&res.responses));
        }
        if digests.windows(2).any(|w| w[0] != w[1]) {
            println!("  uncoordinated seed {seed}: digests DIVERGE across worker counts");
            diverged = true;
            break 'seeds;
        }
    }
    if !diverged {
        return Err("uncoordinated runs never diverged — anomaly repro lost".to_string());
    }

    // Auto-coordinated: simulator reference, then every configuration.
    let sc = ad_scenario(3);
    let (sim_res, report) = run_ad_auto(&sc, &BackendSpec::Sim);
    println!("  spec: {}", report.spec.render().trim_end());
    println!("  injection: {}", report.summary.render().trim_end());
    let reference = response_digests(&sim_res.responses);
    if reference.iter().all(Vec::is_empty) {
        return Err("coordinated simulator run produced no answers".to_string());
    }
    for workers in WORKER_COUNTS {
        let (res, _) = run_ad_auto(&sc, &BackendSpec::par(workers));
        let digest = response_digests(&res.responses);
        if digest != reference {
            return Err(format!(
                "coordinated digest diverged at {workers} workers: \
                 {:#018x} vs reference {:#018x}",
                fingerprint(&digest),
                fingerprint(&reference)
            ));
        }
    }
    println!(
        "  coordinated: digest {:#018x} identical across {} worker counts + simulator",
        fingerprint(&reference),
        WORKER_COUNTS.len()
    );
    Ok(())
}

fn overhead_gate(max_pct: f64) -> Result<(), String> {
    let sc = WordcountScenario {
        workers: 4,
        workload: TweetWorkload {
            vocabulary: 200,
            batches: 8,
            tweets_per_batch: 30,
            ..TweetWorkload::default()
        },
        seed: 41,
        ..WordcountScenario::default()
    };
    // Interleaved best-of-N so machine noise hits both sides equally.
    let reps = 7;
    let mut base_best = f64::INFINITY;
    let mut coord_best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        let base = run_wordcount(&sc, &BackendSpec::par(4));
        base_best = base_best.min(started.elapsed().as_secs_f64() * 1e3);
        let baseline_counts = Some(base.counts());

        let started = Instant::now();
        let (coord, outcome) = run_wordcount_auto(&sc, true, &BackendSpec::par(4));
        coord_best = coord_best.min(started.elapsed().as_secs_f64() * 1e3);
        if !outcome.is_rewrite_free() {
            return Err(format!(
                "confluent wordcount was NOT left rewrite-free: {outcome:?}"
            ));
        }
        if Some(coord.counts()) != baseline_counts {
            return Err("coordinated wordcount counts diverged from baseline".to_string());
        }
    }

    let pct = (coord_best / base_best - 1.0) * 100.0;
    println!(
        "  confluent wordcount: baseline {base_best:.2} ms, coordinated {coord_best:.2} ms \
         ({pct:+.1}% overhead, gate {max_pct:.0}%), zero injected operators"
    );
    if pct > max_pct {
        return Err(format!(
            "coordinated overhead {pct:.1}% exceeds the {max_pct:.0}% gate"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut max_pct = 10.0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--overhead" {
            max_pct = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--overhead takes a percentage");
        }
    }

    println!("# autocoord differential gate");
    println!("## anomaly repro (uncoordinated diverges, coordinated deterministic)");
    if let Err(e) = anomaly_repro() {
        eprintln!("FAIL: {e}");
        return ExitCode::FAILURE;
    }
    println!("## minimality overhead gate (confluent wordcount)");
    if let Err(e) = overhead_gate(max_pct) {
        eprintln!("FAIL: {e}");
        return ExitCode::FAILURE;
    }
    println!("PASS");
    ExitCode::SUCCESS
}
