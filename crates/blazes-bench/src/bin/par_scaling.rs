//! `par_scaling`: heavy-compute scaling sweep of the parallel executor
//! against the simulator, with a CI-gateable speedup floor.
//!
//! ```text
//! cargo run -p blazes-bench --release --bin par_scaling -- \
//!     [--records N] [--rounds N] [--reps N] [--out FILE] [--check FLOOR] \
//!     [--no-race] [--force] [--note TEXT]... [--trace FILE]
//! ```
//!
//! `--trace FILE` enables the observability layer for the whole run and
//! writes a Chrome-trace JSON (`chrome://tracing` / Perfetto) at exit.
//! Note the timed repetitions then run traced, so wall-clock numbers
//! carry the (small) tracing overhead; don't record floors from a traced
//! run.
//!
//! `--note` (repeatable) appends free-form provenance to the emitted
//! JSON's `notes` array — the place to record what a specific recorded
//! run measured (machine, before/after context).
//!
//! `--out` writes the results as JSON (default `BENCH_par_scaling.json`
//! when `--out` is given without a value via CI). `--check FLOOR` exits
//! nonzero when the 4-worker speedup over the simulator on
//! the uniform workload falls below `effective_floor(FLOOR, cores)` — the
//! floor is scaled by core count, since parallel speedup is bounded by the
//! hardware (see `blazes_bench::scaling::effective_floor`). `--check` also
//! fails on any digest mismatch, making the bench double as a correctness
//! gate.
//!
//! Alongside the heavy-compute sweep the bin races **time-warp
//! speculation** against blocking seal coordination on the straggler
//! ad-report scenario (`--no-race` skips it); under `--check` a digest
//! divergence between the two modes fails the run.
//!
//! Every point is stamped with the measuring machine's core count, and the
//! bin **refuses to overwrite a multi-core `--out` file with single-core
//! numbers** (single-core sweeps carry no scaling signal; clobbering the
//! recorded multi-core run would silently weaken the CI floor). Pass
//! `--force` to overwrite anyway.

use blazes_bench::cli;
use blazes_bench::scaling::{effective_floor, run_scaling, run_speculation_race, ScalingConfig};

const USAGE: &str = "usage: par_scaling [--records N] [--rounds N] [--reps N] [--out [FILE]] \
                     [--check FLOOR] [--no-race] [--force] [--note TEXT]... [--trace FILE]";

/// The command line, parsed in full before any work starts.
struct Opts {
    cfg: ScalingConfig,
    out: Option<String>,
    check: Option<f64>,
    trace: Option<String>,
    notes: Vec<String>,
    race: bool,
    force: bool,
}

fn parse_opts(mut a: cli::Args) -> Result<Opts, String> {
    let mut cfg = ScalingConfig::default();
    if let Some(records) = a.value("--records")? {
        cfg.records = records;
    }
    if let Some(rounds) = a.value("--rounds")? {
        cfg.hash_rounds = rounds;
    }
    if let Some(reps) = a.value("--reps")? {
        cfg.reps = reps;
    }
    let opts = Opts {
        cfg,
        out: a.optional_or("--out", "BENCH_par_scaling.json".to_string())?,
        check: a.value("--check")?,
        trace: a.value("--trace")?,
        notes: a.repeated("--note")?,
        race: !a.switch("--no-race"),
        force: a.switch("--force"),
    };
    a.done()?;
    Ok(opts)
}

/// The `"cores"` recorded in an existing bench JSON, if the file exists
/// and carries one (the top-level stamp; the first match wins since the
/// per-point stamps repeat the same value on a single-machine sweep).
fn recorded_cores(path: &str) -> Option<usize> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        line.trim()
            .strip_prefix("\"cores\":")?
            .trim()
            .trim_end_matches(',')
            .parse()
            .ok()
    })
}

fn main() {
    let opts = cli::parse_or_exit(USAGE, parse_opts);
    if opts.trace.is_some() {
        blazes_obs::global().set_enabled(true);
    }

    let mut report = run_scaling(&opts.cfg);
    report.notes.extend(opts.notes);
    if opts.race {
        let race_workers = report.cores.clamp(2, 4);
        report.speculation = Some(run_speculation_race(race_workers, opts.cfg.reps));
    }
    print!("{}", report.render_table());
    println!(
        "# headline: {:.2}x vs sim at 4 workers (uniform)",
        report.headline_speedup()
    );

    if let Some(path) = opts.out {
        if report.cores == 1 && recorded_cores(&path).is_some_and(|prev| prev > 1) && !opts.force {
            eprintln!(
                "REFUSED: {path} holds a multi-core sweep; not overwriting it with \
                 1-core numbers (no scaling signal). Pass --force to overwrite."
            );
        } else {
            std::fs::write(&path, report.to_json()).expect("write bench JSON");
            println!("# wrote {path}");
        }
    }

    // Export before the check gate: a failing gated run is exactly when
    // the trace is worth having.
    if let Some(path) = opts.trace {
        match blazes_obs::global().export_chrome(&path) {
            Ok(()) => println!("# trace written to {path}"),
            Err(e) => eprintln!("trace export failed for {path}: {e}"),
        }
    }

    if let Some(floor) = opts.check {
        let mut failed = false;
        if !report.all_correct() {
            eprintln!("FAIL: a parallel run diverged from the expected digest");
            failed = true;
        }
        if let Some(race) = &report.speculation {
            if race.digest_match {
                println!(
                    "# speculation check passed: time-warp == blocking \
                     ({:.2}x latency win, {} rollbacks)",
                    race.latency_win, race.rollbacks
                );
            } else {
                eprintln!("FAIL: time-warp digests diverged from blocking coordination");
                failed = true;
            }
        }
        let need = effective_floor(floor, report.cores);
        let got = report.headline_speedup();
        if got < need {
            eprintln!(
                "FAIL: speedup {got:.2}x below floor {need:.2}x \
                 (requested {floor:.2}x, scaled for {} core(s))",
                report.cores
            );
            failed = true;
        } else {
            println!(
                "# check passed: {got:.2}x >= floor {need:.2}x \
                 (requested {floor:.2}x, {} core(s))",
                report.cores
            );
        }
        // The contention gate needs >= 2 cores: producers time-sliced onto
        // one core never collide on the mailbox tail CAS, so push_retries
        // is legitimately 0 there and the microbench carries no signal.
        if report.cores >= 2 {
            let retries = report.point("fanin", 4).map_or(0, |p| p.push_retries);
            if retries == 0 {
                eprintln!(
                    "FAIL: the 4-worker fan-in run recorded zero mailbox push \
                     retries — the contention microbench measured nothing"
                );
                failed = true;
            }
        } else {
            println!("# contention assertion skipped: 1 core (producers cannot collide)");
        }
        if failed {
            std::process::exit(1);
        }
    }
}
