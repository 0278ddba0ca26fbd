//! `dist_trace`: one Chrome trace of a real multi-process run.
//!
//! This binary emits an artifact and proves nothing — the dist backend's
//! digest obligations (divergence, identity across process counts, crash
//! matrix, large replay) live in `tests/dist_differential.rs`. Each
//! invocation makes exactly one run, traced end to end and exported: the
//! shared differential ad report ([`differential_scenario`], seed 3) on 2
//! processes × 2 workers with the wire fault schedule on, merged into a
//! single Chrome-trace JSON whose lanes cover the coordinator and every
//! worker process (the workers ship their ring buffers back over the
//! wire).
//!
//! ```text
//! cargo run -p blazes-bench --release --bin dist_trace -- [--chaos] FILE
//! ```
//!
//! * `dist_trace FILE` — lanes for pids `{0,1,2}` with `seal_vote`,
//!   `frame_send` and `frame_recv` spans.
//! * `dist_trace --chaos FILE` — worker 1 is SIGKILLed three routed frames
//!   in: the respawned worker shows as its own pid lane
//!   (`index+1 + 1000·epoch`, so ≥ 1001) next to the coordinator's
//!   `respawn`/`replay` marks.
//!
//! It refuses to write a trace that lacks what the trace is for: a run
//! with no answers, no lanes shipped back, or a kill that never fired.
//!
//! The binary is its own worker: the parent re-executes `current_exe`,
//! and a spawned copy takes the [`worker_main`] early exit — the
//! standalone-binary spawn path, where the test suites re-exec libtest.

#![forbid(unsafe_code)]

use blazes_apps::autocoord::{response_digests, run_ad_auto};
use blazes_apps::dist::dist_registry;
use blazes_bench::{cli, differential_scenario};
use blazes_dataflow::backend::BackendSpec;
use blazes_dataflow::dist::recover::fnv1a;
use blazes_dataflow::dist::{worker_main, ChaosSpec, DistSpec, Kill, KillPoint};
use std::process::ExitCode;

fn traced_run(chaos: bool, path: &str) -> Result<(), String> {
    let obs = blazes_obs::global();
    obs.set_enabled(true);
    let sc = differential_scenario(3);
    let exe = std::env::current_exe()
        .expect("current_exe for dist worker spawn")
        .to_string_lossy()
        .into_owned();
    let mut spec = DistSpec::new("", "", vec![exe]);
    spec.processes = 2;
    spec.workers_per_process = 2;
    spec.seed = sc.seed;
    if chaos {
        spec.chaos = ChaosSpec {
            kills: vec![Kill {
                worker: 1,
                point: KillPoint::RoutedFrames(3),
            }],
        };
    }
    let (res, _) = run_ad_auto(&sc, &BackendSpec::Dist(spec));
    let digests = response_digests(&res.responses);
    if digests.iter().all(Vec::is_empty) {
        return Err("traced run produced no answers".into());
    }
    let respawns = res.stats.as_dist().map_or(0, |s| s.respawns);
    if chaos && respawns == 0 {
        return Err("traced chaos run never fired its kill".into());
    }
    let remote = obs.remote_lane_count();
    if remote == 0 {
        return Err("no worker process shipped trace lanes back".into());
    }
    obs.export_chrome(path)
        .map_err(|e| format!("trace export failed for {path}: {e}"))?;
    // A stable fingerprint of the answers, for the log.
    let answers: String = digests.iter().flatten().map(|m| format!("{m:?}")).collect();
    println!(
        "dist_trace: 2 processes, {respawns} respawn(s), {remote} remote lanes, \
         digest {:#018x}, wrote {path}",
        fnv1a(answers.as_bytes())
    );
    Ok(())
}

fn main() -> ExitCode {
    // Spawned copies of this binary serve as dist workers.
    if worker_main(&dist_registry()) {
        return ExitCode::SUCCESS;
    }
    let (chaos, path) = cli::parse_or_exit("usage: dist_trace [--chaos] FILE", |mut a| {
        let chaos = a.switch("--chaos");
        match <[String; 1]>::try_from(a.positionals()?) {
            Ok([path]) => Ok((chaos, path)),
            Err(_) => Err("expected exactly one FILE".to_string()),
        }
    });
    match traced_run(chaos, &path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
