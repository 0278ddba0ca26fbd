//! The differential proof obligation, over a real byte boundary: the
//! multi-process backend forks worker processes and routes every
//! cross-partition message through the framed Unix-socket wire, so
//!
//! * the **uncoordinated** ad-report run diverges under injected wire
//!   faults (loss and duplicates) — different process counts answer the
//!   same queries differently;
//! * the **auto-coordinated** run is bit-identical across `{1,2,4}`
//!   processes *and* matches the discrete-event simulator — seal votes
//!   genuinely cross processes; with the punctuations withheld the same
//!   plan carries one injected sequencer instead, and replicas agree;
//! * the **confluent** wordcount crosses the wire rewrite-free: zero
//!   injected coordination operators, counts equal to the single-process
//!   baseline;
//! * the plain `run_wordcount` runner (coordination hand-picked by the
//!   scenario's `transactional` flag, the paper's Storm baseline) commits
//!   the same counts on sim, par and dist from one call site;
//! * **crashes** change nothing: a SIGKILL of any single worker, the
//!   `{1,2,4}` processes × `{0,1,2}` seeded-crash matrix and a kill deep
//!   enough that the replay is megabytes all end on the simulator's
//!   digests (CI runs this file under a hard `timeout`).
//!
//! This file is the only home of these obligations; the `dist_trace`
//! binary in `blazes-bench` exports traces of the same scenario and
//! asserts none of them.

use blazes::apps::adreport::{AdScenario, StrategyKind};
use blazes::apps::autocoord::{response_digests, run_ad_auto, run_wordcount_auto};
use blazes::apps::dist::{dist_registry, plan_spec};
use blazes::apps::queries::ReportQuery;
use blazes::apps::wordcount::{run_wordcount, WordcountScenario};
use blazes::apps::workload::{CampaignPlacement, ClickWorkload, TweetWorkload};
use blazes::dataflow::backend::BackendSpec;
use blazes::dataflow::dist::wire::message_bytes;
use blazes::dataflow::dist::{
    libtest_worker_command, run_dist, worker_main, ChaosSpec, DistError, DistSpec, DistTuning,
    FailureCause, Kill, KillPoint, Transport,
};
use blazes_bench::differential_scenario;
use std::time::Duration;

/// Worker-process entry point. `run_dist` re-executes this test binary
/// selecting exactly this test; without the parent's endpoint in the
/// environment (`BLAZES_DIST_PARENT`) it is inert, so normal test sweeps
/// skip straight through it.
#[test]
#[ignore = "dist worker entry: only runs when spawned by a dist parent"]
fn dist_worker_entry() {
    let _ = worker_main(&dist_registry());
}

fn wordcount_scenario() -> WordcountScenario {
    WordcountScenario {
        workers: 3,
        workload: TweetWorkload {
            vocabulary: 60,
            batches: 5,
            tweets_per_batch: 12,
            ..TweetWorkload::default()
        },
        seed: 29,
        ..WordcountScenario::default()
    }
}

/// A dist spec over the libtest worker entry; the scenario's channels
/// carry the per-wire loss/duplicate schedule.
fn dist_spec(processes: usize, seed: u64) -> DistSpec {
    let mut spec = DistSpec::new("", "", libtest_worker_command("dist_worker_entry"));
    spec.processes = processes;
    spec.workers_per_process = 2;
    spec.seed = seed;
    spec
}

/// The paper's anomaly, now genuinely distributed: the same uncoordinated
/// scenario under the same fault seed answers queries differently
/// depending on how it is partitioned across processes — or replicas
/// disagree within a single run.
#[test]
fn uncoordinated_adreport_diverges_over_the_wire() {
    let mut diverged = false;
    'seeds: for seed in 0..5u64 {
        let sc = AdScenario {
            strategy: StrategyKind::Uncoordinated,
            ..differential_scenario(seed)
        };
        let mut digests = Vec::new();
        for processes in [1usize, 2, 4] {
            let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(dist_spec(processes, seed)));
            let d = response_digests(&res.responses);
            if d.iter().any(|x| x != &d[0]) {
                diverged = true; // replicas disagree within one run
                break 'seeds;
            }
            digests.push(d);
        }
        if digests.windows(2).any(|w| w[0] != w[1]) {
            diverged = true; // same seed, different partitioning, different answers
            break 'seeds;
        }
    }
    assert!(
        diverged,
        "uncoordinated distributed runs stayed consistent across every seed and \
         process count — the anomaly the coordination repairs did not manifest"
    );
}

/// The repaired run, over the wire: analysis-injected seal gates make
/// every process count produce digests bit-identical to the simulator,
/// with votes and releases crossing real process boundaries.
#[test]
fn autocoord_adreport_is_bit_identical_across_process_counts() {
    let sc = differential_scenario(3);
    let (sim_res, _) = run_ad_auto(&sc, &BackendSpec::Sim);
    let reference = response_digests(&sim_res.responses);
    assert!(
        reference.iter().any(|d| !d.is_empty()),
        "queries must produce answers"
    );

    for processes in [1usize, 2, 4] {
        let spec = dist_spec(processes, sc.seed);
        let (res, report) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
        assert_eq!(
            report.stats.injected_operators, sc.replicas,
            "one seal gate per replica ({processes} processes)"
        );
        let stats = res.stats.as_dist().expect("dist stats");
        assert_eq!(stats.processes, processes);
        if processes > 1 {
            assert!(
                stats.frames_routed > 0,
                "a partitioned run must route frames over the wire"
            );
        }
        assert_eq!(
            response_digests(&res.responses),
            reference,
            "digest diverged at {processes} processes"
        );
    }
}

/// CAMPAIGN with the punctuations withheld: the plan that crosses the wire
/// carries one injected sequencer instead of seal gates. A runtime total
/// order legitimately differs between substrates, so the oracle is the
/// ordered one — all records processed where observable, replicas agree —
/// not simulator equality. Only the deterministic simulator must answer
/// something: on par and dist the sequencer may order every request
/// before the clicks it reads, and then every replica agrees on no
/// answers at all (seen on dist as `[0, 0, 0]` under load).
#[test]
fn ordered_adreport_agrees_on_every_backend() {
    let sc = AdScenario {
        strategy: StrategyKind::Ordered,
        ..differential_scenario(3)
    };
    for backend in [
        BackendSpec::Sim,
        BackendSpec::par(3),
        BackendSpec::Dist(dist_spec(2, sc.seed)),
    ] {
        let name = backend.name();
        let (res, report) = run_ad_auto(&sc, &backend);
        assert_eq!(report.stats.injected_operators, 1, "{name}: {report:?}");
        // The series stay inside the workers on dist. Elsewhere the
        // at-least-once click wires feed the sequencer, so replays count:
        // every replica processes at least the whole log.
        for s in &res.series {
            assert!(s.total() >= res.expected_records, "{name}");
        }
        let digests = response_digests(&res.responses);
        if matches!(backend, BackendSpec::Sim) {
            assert!(!digests[0].is_empty(), "{name}: answers exist");
        }
        assert!(
            digests.iter().all(|d| d == &digests[0]),
            "{name}: replicas disagree under one total order"
        );
    }
}

/// One call site, three backends: `run_wordcount` — the runner whose
/// coordination is hand-picked by the scenario, as in the paper's Storm
/// baseline — takes the same `BackendSpec` as the analysis-driven runners,
/// and its committed counts must match the simulator on the parallel
/// executor and across processes.
#[test]
fn wordcount_runner_matches_the_simulator_on_every_backend() {
    let wc = wordcount_scenario();
    let reference = run_wordcount(&wc, &BackendSpec::Sim).counts();
    for backend in [
        BackendSpec::par(3),
        BackendSpec::Dist(dist_spec(2, wc.seed)),
    ] {
        let name = backend.name();
        let run = run_wordcount(&wc, &backend);
        assert_eq!(run.counts(), reference, "{name}");
        if let Some(stats) = run.stats.as_dist() {
            assert!(stats.frames_routed > 0, "the wordcount crossed the wire");
        }
    }
}

/// Crash tolerance: SIGKILLing any single worker mid-run must leave the
/// coordinated ad-report digests bit-identical to the crash-free
/// simulator reference — respawn, deterministic replay, ingest dedup and
/// seal revotes absorb the loss completely.
#[test]
fn chaos_kill_of_any_worker_keeps_coordinated_digests_bit_identical() {
    let sc = differential_scenario(3);
    let (sim_res, _) = run_ad_auto(&sc, &BackendSpec::Sim);
    let reference = response_digests(&sim_res.responses);

    for processes in [2usize, 4] {
        for victim in 0..processes {
            let mut spec = dist_spec(processes, sc.seed);
            // Fire once real traffic has reached the victim, so the
            // respawned incarnation must be rehydrated by log replay.
            spec.chaos = ChaosSpec {
                kills: vec![Kill {
                    worker: victim,
                    point: KillPoint::RoutedFrames(3),
                }],
            };
            let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
            let stats = res.stats.as_dist().expect("dist stats");
            assert!(
                stats.respawns >= 1,
                "the kill of worker {victim}/{processes} never fired"
            );
            assert_eq!(
                response_digests(&res.responses),
                reference,
                "digest diverged after killing worker {victim} of {processes}"
            );
        }
    }
}

/// The seeded crash matrix: `{1,2,4}` processes × `{0,1,2}` SIGKILLs drawn
/// by [`ChaosSpec::seeded`] (victims and kill points chosen by the seed,
/// so two-crash schedules and heartbeat-triggered kills are covered), the
/// wire fault schedule still on. Every leg's digests must equal the
/// simulator's, and a multi-process crashed leg must actually observe a
/// respawn — a schedule that never fires proves nothing.
#[test]
fn seeded_crash_matrix_keeps_coordinated_digests_bit_identical() {
    let sc = differential_scenario(3);
    let (sim_res, _) = run_ad_auto(&sc, &BackendSpec::Sim);
    let reference = response_digests(&sim_res.responses);
    assert!(reference.iter().any(|d| !d.is_empty()), "answers exist");

    for processes in [1usize, 2, 4] {
        for crashes in [0u32, 1, 2] {
            let mut spec = dist_spec(processes, sc.seed);
            // Heartbeat fast enough that heartbeat-triggered kills land
            // inside phase 1 even on the shortest legs.
            spec.tuning = DistTuning::default().with_heartbeat_every(Duration::from_millis(5));
            spec.chaos = ChaosSpec::seeded(
                sc.seed ^ (u64::from(crashes) << 32),
                crashes,
                processes as u32,
                8,
            );
            let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
            let stats = res.stats.as_dist().expect("dist stats");
            if crashes > 0 && processes > 1 {
                assert!(
                    stats.respawns > 0,
                    "{crashes} scheduled kill(s) at {processes} processes never fired"
                );
            }
            assert_eq!(
                response_digests(&res.responses),
                reference,
                "digest diverged at {processes} processes × {crashes} crashes"
            );
        }
    }
}

/// Recovery at a size where the replay is megabytes, not a socket
/// buffer's worth: 4 × 5 000 clicks on 2 single-threaded processes,
/// worker 0 SIGKILLed once 30 000 frames have been routed to it. Worker 0
/// owns the report replicas, and two of the three injected seal gates
/// (numbered after the assembly's own instances) live on worker 1, so
/// most released clicks are routed to worker 0. The respawned worker
/// re-runs its ad servers' click logs and emits while it is still being
/// fed its replay, so the coordinator must already be draining its
/// socket — this run used to deadlock (coordinator blocked replaying,
/// worker blocked sending) and now has to finish with the simulator's
/// digests. CI runs it under a hard `timeout`.
#[test]
fn large_replay_recovers_to_the_simulator_digest() {
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
    assert!(reference.iter().any(|d| !d.is_empty()), "answers exist");

    let mut spec = DistSpec::new("", "", libtest_worker_command("dist_worker_entry"));
    spec.processes = 2;
    spec.workers_per_process = 1;
    spec.seed = sc.seed;
    spec.chaos = ChaosSpec {
        kills: vec![Kill {
            worker: 0,
            point: KillPoint::RoutedFrames(30_000),
        }],
    };
    let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
    let stats = res.stats.as_dist().expect("dist stats");
    assert_eq!(stats.respawns, 1, "the kill fired once");
    assert!(
        stats.replayed_frames >= 30_000,
        "the respawn was rehydrated by a large replay, not {} frames",
        stats.replayed_frames
    );
    assert_eq!(
        response_digests(&res.responses),
        reference,
        "digest diverged after a large replay"
    );
}

/// The same differential over loopback TCP instead of Unix sockets: the
/// transport is interchangeable, so the coordinated digests still match
/// the simulator bit for bit.
#[test]
fn tcp_transport_carries_the_coordinated_differential() {
    let sc = differential_scenario(3);
    let (sim_res, _) = run_ad_auto(&sc, &BackendSpec::Sim);
    let reference = response_digests(&sim_res.responses);

    let mut spec = dist_spec(2, sc.seed);
    spec.tuning = DistTuning::default().with_transport(Transport::Tcp);
    let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
    let stats = res.stats.as_dist().expect("dist stats");
    assert!(stats.frames_routed > 0, "frames must cross the TCP wire");
    assert_eq!(
        response_digests(&res.responses),
        reference,
        "digest diverged over loopback TCP"
    );
}

/// Recovery is bounded: with a respawn budget of zero, the first kill
/// becomes the run's verdict — a forensic `WorkerFailed` naming the
/// worker and the exhausted budget, not a stall.
#[test]
fn exhausted_respawn_budget_fails_with_a_worker_verdict() {
    let sc = AdScenario {
        strategy: StrategyKind::Uncoordinated,
        ..differential_scenario(1)
    };
    let mut spec = plan_spec(&dist_spec(2, sc.seed), &sc);
    spec.tuning = DistTuning::default().with_respawn_budget(0);
    spec.chaos = ChaosSpec {
        kills: vec![Kill {
            worker: 1,
            point: KillPoint::Heartbeats(1),
        }],
    };
    match run_dist(&spec, &dist_registry()) {
        Err(DistError::WorkerFailed { worker, cause }) => {
            assert_eq!(worker, 1);
            assert!(
                matches!(cause, FailureCause::BudgetExhausted { respawns: 0, .. }),
                "unexpected cause: {cause:?}"
            );
        }
        other => panic!("expected a budget-exhausted worker verdict, got {other:?}"),
    }
}

/// A sink bigger than one `SinkResult` slice (1 MiB of payload) comes
/// home in several frames and reassembles into exactly the simulator's
/// committed counts — a sink's size is no longer capped by the frame cap.
#[test]
fn a_sink_larger_than_one_slice_reassembles_exactly() {
    let sc = WordcountScenario {
        workers: 2,
        workload: TweetWorkload {
            vocabulary: 5_000,
            zipf_exponent: 0.5,
            batches: 160,
            tweets_per_batch: 40,
            ..TweetWorkload::default()
        },
        seed: 31,
        ..WordcountScenario::default()
    };
    let baseline = run_wordcount(&sc, &BackendSpec::Sim);
    let bytes: usize = baseline
        .committed
        .messages()
        .iter()
        .map(|m| 8 + message_bytes(m).len())
        .sum();
    assert!(
        bytes > 2 << 20,
        "the scenario must commit several slices' worth, not {bytes} bytes"
    );
    let spec = dist_spec(2, sc.seed);
    let run = run_wordcount(&sc, &BackendSpec::Dist(spec));
    assert_eq!(run.committed.len(), baseline.committed.len());
    assert_eq!(run.counts(), baseline.counts());
}

/// The minimality half, over the wire: the sealed wordcount is CALM-safe,
/// so the pass injects nothing and the distributed run still commits
/// exactly the simulator baseline's counts. Crossing a process boundary
/// costs the workers' runtimes no events: a cross wire's producer hands
/// its frames straight to the egress queue, so the workers together
/// process exactly the component deliveries a single par runtime does.
#[test]
fn confluent_wordcount_crosses_the_wire_rewrite_free() {
    let sc = wordcount_scenario();
    let baseline = run_wordcount(&sc, &BackendSpec::Sim);
    let (par_run, _) = run_wordcount_auto(&sc, true, &BackendSpec::par(2));
    let par_events = par_run.stats.as_par().expect("par stats").events_processed;

    for processes in [2usize, 4] {
        let spec = dist_spec(processes, sc.seed);
        let (run, outcome) = run_wordcount_auto(&sc, true, &BackendSpec::Dist(spec));
        assert!(outcome.is_rewrite_free(), "{outcome:?}");
        assert_eq!(outcome.rewrite.injected_operators, 0);
        let stats = run.stats.as_dist().expect("dist stats");
        assert!(
            stats.frames_routed > 0,
            "the wordcount must actually cross the wire"
        );
        assert_eq!(
            stats.events_processed, par_events,
            "{processes} processes: the workers' events are the par run's"
        );
        assert_eq!(
            run.counts(),
            baseline.counts(),
            "{processes} processes drifted from the simulator baseline"
        );
    }
}
