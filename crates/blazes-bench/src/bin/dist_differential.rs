//! The `dist-differential` CI gate: the autocoord proof obligations run
//! over the real byte boundary of the multi-process backend, as a binary
//! so CI fails loudly when any of them breaks.
//!
//! 1. **Anomaly repro, distributed.** The uncoordinated ad-report must
//!    diverge under injected wire faults across process counts (or
//!    between replicas of one run).
//! 2. **Determinism, distributed.** The auto-coordinated run's digests
//!    must be bit-identical across `{1,2,4}` processes and equal to the
//!    discrete-event simulator's.
//! 3. **Minimality, distributed.** The confluent wordcount must cross
//!    the wire with zero injected coordination operators and commit the
//!    simulator baseline's exact counts.
//!
//! The binary is its own worker: the parent re-executes `current_exe`,
//! and a spawned copy takes the [`worker_main`] early exit.
//!
//! ```text
//! cargo run -p blazes-bench --release --bin dist_differential \
//!     [--chaos] [--trace FILE]
//! ```
//!
//! `--trace FILE` switches to the traced smoke mode instead of the full
//! differential: one coordinated 2-process ad-report run with time-warp
//! speculation, tracing enabled end to end, exported as a single
//! Chrome-trace JSON whose lanes cover the coordinator and every worker
//! process (the workers ship their ring buffers back over the wire).
//!
//! `--chaos` runs the crash-tolerance gate instead: the coordinated
//! ad-report digests must stay bit-identical to the simulator across
//! `{1,2,4}` processes × `{0,1,2}` seeded SIGKILLs, with the wire fault
//! schedule still on, plus one *large-replay* row — 4 × 5 000 clicks on
//! 2 single-threaded processes, killed 30 000 routed frames in, so the
//! respawn is rehydrated by megabytes of replay (this size used to
//! deadlock; CI runs the gate under a hard `timeout`). Combined with
//! `--trace FILE` it adds one traced
//! 2-process single-crash run whose Chrome export shows the respawned
//! worker as its own pid lane plus the coordinator's respawn/replay
//! marks.

use blazes_apps::adreport::{AdScenario, StrategyKind};
use blazes_apps::autocoord::{response_digests, run_ad_auto, run_wordcount_auto};
use blazes_apps::dist::dist_registry;
use blazes_apps::queries::ReportQuery;
use blazes_apps::wordcount::{run_wordcount, WordcountScenario};
use blazes_apps::workload::{CampaignPlacement, ClickWorkload, TweetWorkload};
use blazes_dataflow::backend::BackendSpec;
use blazes_dataflow::dist::{worker_main, ChaosSpec, DistSpec, DistTuning, Kill, KillPoint};
use blazes_dataflow::message::Message;
use std::process::ExitCode;
use std::time::Duration;

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

fn dist_spec(processes: usize, seed: u64) -> DistSpec {
    let exe = std::env::current_exe()
        .expect("current_exe for dist worker spawn")
        .to_string_lossy()
        .into_owned();
    let mut spec = DistSpec::new("", "", vec![exe]);
    spec.processes = processes;
    spec.workers_per_process = 2;
    spec.seed = seed;
    spec.reorder_prob = 0.1;
    spec.partition = Some((40, 6));
    spec
}

/// A tiny stable fingerprint of a digest vector, for the log.
fn fingerprint(digests: &[Vec<Message>]) -> u64 {
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
    let mut diverged = false;
    'seeds: for seed in 0..5u64 {
        let sc = AdScenario {
            strategy: StrategyKind::Uncoordinated,
            ..ad_scenario(seed)
        };
        let mut digests = Vec::new();
        for processes in [1usize, 2, 4] {
            let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(dist_spec(processes, seed)));
            let d = response_digests(&res.responses);
            if !res.responses_consistent() {
                println!(
                    "  uncoordinated seed {seed}: replicas DISAGREE within one \
                     {processes}-process run"
                );
                diverged = true;
                break 'seeds;
            }
            digests.push(d);
        }
        if digests.windows(2).any(|w| w[0] != w[1]) {
            println!("  uncoordinated seed {seed}: digests DIVERGE across process counts");
            diverged = true;
            break 'seeds;
        }
    }
    if !diverged {
        return Err("uncoordinated distributed runs never diverged — anomaly repro lost".into());
    }
    Ok(())
}

fn coordinated_identity() -> Result<(), String> {
    let sc = ad_scenario(3);
    let (sim_res, _) = run_ad_auto(&sc, &BackendSpec::Sim);
    let reference = response_digests(&sim_res.responses);
    if reference.iter().all(Vec::is_empty) {
        return Err("coordinated simulator run produced no answers".into());
    }
    let process_counts = [1usize, 2, 4];
    for processes in process_counts {
        let spec = dist_spec(processes, sc.seed);
        let (res, report) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
        if report.stats.injected_operators != sc.replicas {
            return Err(format!(
                "expected one seal gate per replica, injected {}",
                report.stats.injected_operators
            ));
        }
        let digest = response_digests(&res.responses);
        if digest != reference {
            return Err(format!(
                "coordinated digest diverged at {processes} processes: \
                 {:#018x} vs reference {:#018x}",
                fingerprint(&digest),
                fingerprint(&reference)
            ));
        }
    }
    println!(
        "  coordinated: digest {:#018x} identical across {} process counts + simulator",
        fingerprint(&reference),
        process_counts.len()
    );
    Ok(())
}

fn confluent_minimality() -> Result<(), String> {
    let sc = WordcountScenario {
        workers: 3,
        workload: TweetWorkload {
            vocabulary: 60,
            batches: 5,
            tweets_per_batch: 12,
            ..TweetWorkload::default()
        },
        seed: 29,
        ..WordcountScenario::default()
    };
    let baseline = run_wordcount(&sc, &BackendSpec::Sim);
    for processes in [2usize, 4] {
        let spec = dist_spec(processes, sc.seed);
        let (run, outcome) = run_wordcount_auto(&sc, true, &BackendSpec::Dist(spec));
        if !outcome.is_rewrite_free() {
            return Err(format!("confluent wordcount was rewritten: {outcome:?}"));
        }
        let routed = run.stats.as_dist().map_or(0, |s| s.frames_routed);
        if routed == 0 {
            return Err(format!(
                "{processes}-process wordcount never crossed the wire"
            ));
        }
        if run.counts() != baseline.counts() {
            return Err(format!(
                "{processes}-process wordcount drifted from the simulator baseline"
            ));
        }
        println!(
            "  confluent wordcount: {processes} processes, {routed} frames over the \
             wire, zero injected operators, counts exact"
        );
    }
    Ok(())
}

/// The `--chaos` gate: coordinated ad-report digests must survive seeded
/// SIGKILL schedules bit-identically. Crashed legs keep the full wire
/// fault schedule (loss, duplicates, reorder, partition windows) on top
/// of the kills, and multi-process crashed legs must actually observe a
/// respawn — a schedule that never fires proves nothing.
fn chaos_matrix(trace: Option<&str>) -> Result<(), String> {
    let sc = ad_scenario(3);
    let (sim_res, _) = run_ad_auto(&sc, &BackendSpec::Sim);
    let reference = response_digests(&sim_res.responses);
    if reference.iter().all(Vec::is_empty) {
        return Err("chaos reference run produced no answers".into());
    }
    // Heartbeat fast enough that heartbeat-triggered kills land inside
    // phase 1 even on the shortest legs.
    let tuning = DistTuning::default().with_heartbeat_every(Duration::from_millis(5));
    for processes in [1usize, 2, 4] {
        for crashes in [0u32, 1, 2] {
            let mut spec = dist_spec(processes, sc.seed);
            spec.tuning = tuning.clone();
            spec.chaos = ChaosSpec::seeded(
                sc.seed ^ (u64::from(crashes) << 32),
                crashes,
                processes as u32,
                8,
            );
            let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
            let stats = res.stats.as_dist().ok_or("dist stats missing")?;
            if response_digests(&res.responses) != reference {
                return Err(format!(
                    "chaos digest diverged at {processes} processes × {crashes} crashes \
                     (reference {:#018x})",
                    fingerprint(&reference)
                ));
            }
            if crashes > 0 && processes > 1 && stats.respawns == 0 {
                return Err(format!(
                    "{crashes} scheduled kill(s) at {processes} processes never fired"
                ));
            }
            println!(
                "  chaos: {processes} procs × {crashes} crashes → {} respawns, \
                 {} replayed, {} deduped, digest exact",
                stats.respawns, stats.replayed_frames, stats.deduped_frames
            );
        }
    }
    large_replay_row()?;
    if let Some(path) = trace {
        let obs = blazes_obs::global();
        obs.set_enabled(true);
        let mut spec = dist_spec(2, sc.seed);
        spec.tuning = tuning;
        spec.chaos = ChaosSpec {
            kills: vec![Kill {
                worker: 1,
                point: KillPoint::RoutedFrames(3),
            }],
        };
        let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
        if response_digests(&res.responses) != reference {
            return Err("traced chaos run diverged from the reference".into());
        }
        let respawns = res.stats.as_dist().map_or(0, |s| s.respawns);
        if respawns == 0 {
            return Err("traced chaos run never fired its kill".into());
        }
        let remote = obs.remote_lane_count();
        if remote == 0 {
            return Err("no worker process shipped trace lanes back".into());
        }
        obs.export_chrome(path)
            .map_err(|e| format!("chaos trace export failed for {path}: {e}"))?;
        println!("  traced chaos run: {respawns} respawn(s), {remote} remote lanes, wrote {path}");
    }
    Ok(())
}

/// The large-replay chaos row: the benchmark's ad report at half size
/// (4 × 5 000 clicks) on 2 single-threaded processes, worker 1 killed once
/// 30 000 frames have been routed to it. The replay no longer fits any
/// socket buffer, so this only terminates while the coordinator reads a
/// rehydrating worker's egress during the replay.
fn large_replay_row() -> Result<(), String> {
    let sc = AdScenario {
        workload: ClickWorkload {
            ad_servers: 4,
            entries_per_server: 5_000,
            campaigns: 40,
            ads_per_campaign: 10,
            placement: CampaignPlacement::Spread,
            seed: 11,
            ..ClickWorkload::default()
        },
        query: ReportQuery::Campaign,
        replicas: 3,
        requests: 20,
        tick_every: 50,
        click_duplicates: 0.1,
        requests_via_analyst: true,
        seed: 3,
        ..AdScenario::default()
    };
    let (sim_res, _) = run_ad_auto(&sc, &BackendSpec::Sim);
    let reference = response_digests(&sim_res.responses);
    let mut spec = dist_spec(2, sc.seed);
    spec.workers_per_process = 1;
    spec.reorder_prob = 0.0;
    spec.partition = None;
    spec.chaos = ChaosSpec {
        kills: vec![Kill {
            worker: 1,
            point: KillPoint::RoutedFrames(30_000),
        }],
    };
    let started = std::time::Instant::now();
    let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
    let stats = res.stats.as_dist().ok_or("dist stats missing")?;
    if response_digests(&res.responses) != reference {
        return Err("large-replay digest diverged from the simulator".into());
    }
    if stats.respawns != 1 || stats.replayed_frames < 30_000 {
        return Err(format!(
            "large-replay row did not replay at size: {} respawns, {} replayed",
            stats.respawns, stats.replayed_frames
        ));
    }
    println!(
        "  chaos: large replay, 2 procs, kill at 30000 routed → {} respawns, \
         {} replayed, {} deduped in {:.1} s, digest exact",
        stats.respawns,
        stats.replayed_frames,
        stats.deduped_frames,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The `--trace` smoke: one coordinated 2-process ad-report run with
/// speculation on and tracing enabled end to end, merged into a single
/// Chrome-trace file. Fails when no worker process shipped lanes back —
/// the whole point is that one file shows every process.
fn traced_smoke(path: &str) -> Result<(), String> {
    let obs = blazes_obs::global();
    obs.set_enabled(true);
    let sc = ad_scenario(3);
    let mut spec = dist_spec(2, sc.seed);
    spec.speculation = true;
    let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
    if response_digests(&res.responses).iter().all(Vec::is_empty) {
        return Err("traced run produced no answers".into());
    }
    let remote = obs.remote_lane_count();
    if remote == 0 {
        return Err("no worker process shipped trace lanes back".into());
    }
    obs.export_chrome(path)
        .map_err(|e| format!("trace export failed for {path}: {e}"))?;
    println!("  traced 2-process run: {remote} remote lanes merged, wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    // Spawned copies of this binary serve as dist workers.
    if worker_main(&dist_registry()) {
        return ExitCode::SUCCESS;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--chaos") {
        let trace = args.iter().position(|a| a == "--trace").map(|i| {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| "chaos_trace.json".to_string())
        });
        println!("dist-differential: chaos matrix (processes × seeded crashes)");
        return match chaos_matrix(trace.as_deref()) {
            Ok(()) => {
                println!("dist-differential: CHAOS PASS");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "dist_trace.json".to_string());
        println!("dist-differential: traced 2-process smoke");
        return match traced_smoke(&path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("FAIL: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!("dist-differential: over-the-wire anomaly repro");
    if let Err(e) = anomaly_repro() {
        eprintln!("FAIL: {e}");
        return ExitCode::FAILURE;
    }
    println!("dist-differential: coordinated digest identity");
    if let Err(e) = coordinated_identity() {
        eprintln!("FAIL: {e}");
        return ExitCode::FAILURE;
    }
    println!("dist-differential: confluent wordcount minimality");
    if let Err(e) = confluent_minimality() {
        eprintln!("FAIL: {e}");
        return ExitCode::FAILURE;
    }
    println!("dist-differential: PASS");
    ExitCode::SUCCESS
}
