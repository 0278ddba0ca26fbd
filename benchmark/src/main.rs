//! The repo's benchmark: coordinated-run throughput on the par and dist
//! backends, the Bloom engine alone, and a per-layer breakdown measured
//! from outside. See `README.md` next to this package for the metric
//! glossary, why each workload exists and how to read the output.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! benchmark --sets K [--workload NAME] [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! The first form measures one workload and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, every per-layer metric with
//! `--trace 1`. The second runs `K` complete sets back to back and checks
//! that their medians agree within the bounds of `BENCHMARK.json`.
//!
//! The binary is its own dist worker and its own rep child: the first
//! statement of `main` is the dist worker early exit, and `--rep` (internal)
//! runs a single rep and prints its result for the orchestrator.

mod driver;
mod json;
mod layers;
mod metrics;
mod oracle;
mod rep;
mod stats;
mod trace;
mod workloads;

use driver::{Bench, Measurement};
use json::Json;
use metrics::END_TO_END;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Size, Workload};

/// Seconds one measurement's window lasts unless `--seconds` says
/// otherwise: the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: Option<usize>,
    size: Size,
    out: Option<PathBuf>,
    /// Internal: run one rep and print its result.
    rep: bool,
    /// Internal, with `--rep`: go through the tracing decorator.
    traced: bool,
    /// Internal, with `--rep`: the simulator digests to check against.
    expect: Option<PathBuf>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: None,
        size: Size::Default,
        out: None,
        rep: false,
        traced: false,
        expect: None,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be within (0, 120]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--sets" => {
                let k: usize = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if k < 2 {
                    return Err("--sets needs at least 2 sets to compare".to_string());
                }
                args.sets = Some(k);
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--expect" => args.expect = Some(PathBuf::from(value()?)),
            "--smoke" => args.size = Size::Smoke,
            "--rep" => args.rep = true,
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.sets.is_none() && args.workload.is_none() {
        return Err("name a workload with --workload, or compare sets with --sets K".to_string());
    }
    Ok(args)
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]\n\
         \x20      benchmark --sets K [--workload NAME] [--seed N] [--seconds S] [--smoke]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn main() -> ExitCode {
    if blazes_dataflow::dist::worker_main(&rep::registry()) {
        rep::write_worker_summary();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if args.rep {
        rep_child(&args)
    } else if let Some(sets) = args.sets {
        compare_sets(&args, sets)
    } else {
        measure_one(&args)
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

/// `--rep`: one rep in this (fresh) process; the result is the last line.
fn rep_child(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload.ok_or("--rep needs --workload")?;
    let reference = match &args.expect {
        None => None,
        Some(file) => {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            let digests: Option<oracle::Digests> =
                Json::parse(&text)?.as_arr().and_then(|replicas| {
                    replicas
                        .iter()
                        .map(|r| {
                            r.as_arr()?
                                .iter()
                                .map(|m| m.as_str().map(str::to_string))
                                .collect()
                        })
                        .collect()
                });
            Some(digests.ok_or("the --expect file is not a list of digest lists")?)
        }
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let env = rep::RepEnv {
        worker_command: vec![exe.to_string_lossy().into_owned()],
        tmp: std::env::var_os(rep::ENV_TMP).map(PathBuf::from),
    };
    let result = rep::run_rep(
        workload,
        args.seed,
        args.size,
        args.traced,
        reference.as_ref(),
        &env,
    );
    println!("{}", result.to_json());
    Ok(ExitCode::SUCCESS)
}

/// The contract's form: measure one workload, print every metric by name,
/// end with the result line.
fn measure_one(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload.ok_or("--workload is required")?;
    let mut bench = Bench::new().map_err(|e| format!("scratch directory: {e}"))?;
    let measurement = if args.trace {
        bench.trace(workload, args.seed, args.size, args.seconds)
    } else {
        bench.measure(workload, args.seed, args.size, args.seconds)
    };
    measurement.print(args.seed, args.trace);
    if let Some(out) = &args.out {
        bench
            .write_report(out, &measurement.report(args.seed, args.trace))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", measurement.result_line(args.trace));
    Ok(ExitCode::SUCCESS)
}

/// `--sets K`: K complete sets back to back, workloads interleaved
/// round-robin inside each set so machine drift lands on all of them;
/// then, per workload and end-to-end metric, each set's median and their
/// relative gap against the metric's bound in `BENCHMARK.json`.
fn compare_sets(args: &Args, sets: usize) -> Result<ExitCode, String> {
    let bounds = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))
        .and_then(|text| driver::bounds_from(&text))?;
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut bench = Bench::new().map_err(|e| format!("scratch directory: {e}"))?;
    let mut by_workload: Vec<Vec<Measurement>> = vec![Vec::new(); workloads.len()];
    for set in 0..sets {
        for (i, workload) in workloads.iter().enumerate() {
            eprintln!("set {} of {sets}: {}", set + 1, workload.name());
            by_workload[i].push(bench.measure(*workload, args.seed, args.size, args.seconds));
        }
    }

    let mut ok = true;
    for measurements in &by_workload {
        let workload = measurements[0].workload;
        println!(
            "{}  seed {}  cores {}",
            workload.name(),
            args.seed,
            driver::cores()
        );
        for def in &END_TO_END {
            let medians: Vec<f64> = measurements.iter().map(|m| m.value(def.name)).collect();
            let gap = stats::relative_gap(&medians);
            let bound = bounds
                .get(def.name)
                .copied()
                .ok_or(format!("no bound for {}", def.name))?;
            let verdict = if gap <= bound { "ok" } else { "OVER BOUND" };
            ok &= gap <= bound;
            let rendered: Vec<String> = medians.iter().map(|m| driver::readable(*m)).collect();
            println!(
                "  {:<16} {:<5} set medians [{}]  gap {:.1} % (bound {:.0} %) {verdict}",
                def.name,
                def.unit,
                rendered.join(", "),
                gap * 100.0,
                bound * 100.0
            );
        }
        let (counters, _) = measurements[0].counters();
        let exact = measurements
            .iter()
            .all(|m| m.counters() == (counters.clone(), true));
        ok &= exact;
        println!(
            "  exact counters {}: {counters:?}",
            if exact {
                "identical across sets"
            } else {
                "DIFFER ACROSS SETS"
            }
        );
        let (attempted, failed) = measurements
            .iter()
            .fold((0, 0), |(a, f), m| (a + m.attempted, f + m.failed));
        ok &= measurements.iter().all(Measurement::correct);
        println!("  operations attempted {attempted}  failed {failed}");
    }
    if let Some(out) = &args.out {
        let report = Json::Arr(
            by_workload
                .iter()
                .flatten()
                .map(|m| m.report(args.seed, false))
                .collect(),
        );
        bench
            .write_report(out, &report)
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_contract_invocation_parses() {
        let args = parse("--workload wordcount-dist --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::WordcountDist));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(args.sets.is_none() && !args.rep);
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload bloom-tc --trace 2",
            "--workload bloom-tc --seconds 0",
            "--sets 1",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be refused");
        }
        assert!(parse("--sets 2").is_ok());
    }
}
