//! The observability differential: tracing must be **free when off** and
//! **invisible when on**.
//!
//! Off: a full auto-coordinated parallel run records zero events and
//! allocates zero rings — the proof counters stay at zero, pinning the
//! claim that every disabled probe costs one relaxed atomic load.
//!
//! On: the same run (and a real 2-process distributed run) produces
//! response digests bit-identical to the untraced reference, while the
//! merged Chrome export carries scheduler, seal and wire-frame spans from
//! every process.
//!
//! Everything lives in ONE `#[test]`: the obs hub is process-wide and
//! libtest runs tests as threads of one process, so the phases must run
//! sequentially — and the disabled-mode proof needs this binary to itself
//! (any sibling test that enabled tracing would allocate rings).

use blazes::apps::adreport::AdScenario;
use blazes::apps::autocoord::{response_digests, run_ad_auto};
use blazes::apps::dist::dist_registry;
use blazes::apps::workload::ClickWorkload;
use blazes::dataflow::backend::BackendSpec;
use blazes::dataflow::dist::{libtest_worker_command, worker_main, DistSpec};
use blazes::dataflow::par::ParTuning;
use blazes_bench::differential_scenario;

/// Worker-process entry point: `run_dist` re-executes this test binary
/// selecting exactly this test. Inert in normal sweeps (no parent env).
#[test]
#[ignore = "dist worker entry: only runs when spawned by a dist parent"]
fn trace_worker_entry() {
    let _ = worker_main(&dist_registry());
}

/// The shared differential scenario cut to 40 clicks per server and 6
/// requests: this binary runs it six times.
fn scenario() -> AdScenario {
    let base = differential_scenario(3);
    AdScenario {
        workload: ClickWorkload {
            entries_per_server: 40,
            ..base.workload
        },
        requests: 6,
        ..base
    }
}

#[test]
fn tracing_is_free_when_off_and_invisible_when_on() {
    let obs = blazes::obs::global();
    let sc = scenario();
    let par = BackendSpec::Par {
        workers: 2,
        tuning: ParTuning::default(),
    };

    // Phase 1 — disabled-mode proof: a full run through the parallel
    // scheduler, seal gates and sinks records nothing and allocates
    // nothing.
    assert!(!obs.enabled(), "tracing must start disabled");
    let (res, _) = run_ad_auto(&sc, &par);
    let reference = response_digests(&res.responses);
    assert!(
        reference.iter().any(|d| !d.is_empty()),
        "reference run produced no answers"
    );
    assert_eq!(
        res.stats.as_par().and_then(|s| s.latency),
        None,
        "an untraced run keeps no latency histogram"
    );
    assert_eq!(obs.events_recorded(), 0, "disabled probes recorded events");
    assert_eq!(obs.rings_allocated(), 0, "disabled probes allocated rings");
    let (sim_res, _) = run_ad_auto(&sc, &BackendSpec::Sim);
    assert_eq!(
        response_digests(&sim_res.responses),
        reference,
        "par reference diverged from the simulator"
    );
    assert_eq!(obs.events_recorded(), 0);

    // Phase 2 — enabled, the same parallel run twice: digests
    // bit-identical, the probes actually fired (events, rings), and each
    // run's stats carry the latency distribution of that run alone — the
    // same non-zero sample count both times, not a sum over the two.
    obs.set_enabled(true);
    let mut latencies = Vec::new();
    for _ in 0..2 {
        let (traced, _) = run_ad_auto(&sc, &par);
        assert_eq!(
            response_digests(&traced.responses),
            reference,
            "tracing changed the parallel run's digests"
        );
        let lat = traced
            .stats
            .as_par()
            .and_then(|s| s.latency)
            .expect("a traced par run carries its tuple latency");
        assert!(lat.count > 0, "no sink recorded tuple latency");
        assert!(lat.p50 <= lat.p99 && lat.p99 <= lat.p999);
        latencies.push(lat.count);
    }
    assert_eq!(
        latencies[0], latencies[1],
        "a run's latency samples must be its own"
    );
    assert!(obs.events_recorded() > 0, "enabled probes recorded nothing");
    assert!(obs.rings_allocated() > 0);

    // Phase 3 — enabled, over the wire: a real 2-process run stays
    // bit-identical and the workers ship their trace lanes back.
    let mut spec = DistSpec::new("", "", libtest_worker_command("trace_worker_entry"));
    spec.processes = 2;
    spec.workers_per_process = 2;
    spec.seed = sc.seed;
    let (dist_res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
    assert_eq!(
        response_digests(&dist_res.responses),
        reference,
        "tracing changed the distributed run's digests"
    );
    assert!(
        obs.remote_lane_count() > 0,
        "no worker process shipped trace lanes back"
    );

    // Phase 4 — the merged export is one document with scheduler, seal
    // and wire-frame spans, and lanes from a worker process (pid >= 1).
    let json = obs.chrome_json();
    assert!(json.starts_with("[\n") && json.trim_end().ends_with(']'));
    assert!(json.contains("\"activation\""));
    assert!(json.contains("\"seal_vote\""));
    assert!(json.contains("\"frame_send\""));
    assert!(json.contains("blazes process 1") || json.contains("blazes process 2"));
    assert!(!json.contains(",,"));

    // Phase 5 — disabled again: probes go quiet immediately.
    obs.set_enabled(false);
    obs.clear();
    let before = obs.events_recorded();
    let (_, _) = run_ad_auto(&sc, &par);
    assert_eq!(
        obs.events_recorded(),
        before,
        "probes kept recording after disable"
    );
}
