//! `blazes` — the command-line analyzer.
//!
//! Reads either a spec file in the paper's annotation format (with the
//! `streams:` / `connections:` / `sinks:` topology extensions) or a Bloom
//! module (a `.blz` file whose first statement is `module ... { ... }`).
//!
//! For annotation specs it runs the analysis and prints the derivations,
//! the synthesized coordination plan and placement advice. For Bloom
//! modules it derives the C.O.W.R. annotations from the white-box
//! analysis; with `--tick-stats` it additionally executes the module on a
//! synthetic workload and prints per-stratum evaluation counters.
//!
//! ```text
//! cargo run --bin blazes -- path/to/topology.blz [--static-order]
//! cargo run --bin blazes -- --demo            # built-in wordcount demo
//! cargo run --bin blazes -- module.blz --tick-stats [--ticks N] \
//!     [--rows N] [--mode naive|semi]
//! ```
//!
//! Every form accepts `--trace FILE`: the observability layer records the
//! run (Bloom stratum fixpoints, scheduler events when a runtime is
//! involved) and a Chrome-trace JSON is written on exit.

#![forbid(unsafe_code)]

use blazes::core::advisor;
use blazes::core::analysis::Analyzer;
use blazes::core::derivation;
use blazes::core::spec::Spec;
use blazes::core::strategy::{plan_for, residual_labels};
use blazes_bloom::interp::{EvalMode, ModuleInstance};
use blazes_bloom::{annotate_module, parse_module};
use blazes_dataflow::value::{Tuple, Value};
use std::collections::BTreeMap;

const DEMO: &str = r#"
Splitter:
  annotation:
    - { from: tweets, to: words, label: CR }
Count:
  annotation:
    - { from: words, to: counts, label: OW, subscript: [word, batch] }
Commit:
  annotation: { from: counts, to: db, label: CW }
streams:
  - { name: tweets, attrs: [word, batch], to: Splitter.tweets }
connections:
  - { from: Splitter.words, to: Count.words }
  - { from: Count.counts, to: Commit.counts }
sinks:
  - { name: store, from: Commit.db }
"#;

/// A file is a Bloom module when its first non-comment token is `module`.
fn is_bloom_module(text: &str) -> bool {
    text.lines()
        .map(str::trim_start)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .is_some_and(|l| l.starts_with("module"))
}

const USAGE: &str = "usage: blazes <spec-file> [--static-order] | blazes --demo
       blazes <module.blz> [--tick-stats] [--ticks N] [--rows N] [--mode naive|semi]
       (every form also takes --trace FILE)";

/// `VALUE` of `flag` parsed as a non-negative integer.
fn parse_int<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got {value:?}"))
}

fn parse_mode(s: &str) -> Result<EvalMode, String> {
    match s {
        "naive" => Ok(EvalMode::Naive),
        "semi" | "semi-naive" => Ok(EvalMode::SemiNaive),
        _ => Err(format!("unknown mode {s:?} (expected naive|semi)")),
    }
}

/// The command line, checked whole before anything is read or run.
struct Cli {
    path: Option<String>,
    demo: bool,
    static_order: bool,
    tick_stats: bool,
    trace: Option<String>,
    mode: EvalMode,
    ticks: u64,
    rows: usize,
}

/// Parse every argument: an unknown flag, a value flag with nothing after
/// it, a malformed value or a second path is an error.
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut out = Cli {
        path: None,
        demo: false,
        static_order: false,
        tick_stats: false,
        trace: None,
        mode: EvalMode::SemiNaive,
        ticks: 1,
        rows: 32,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--demo" => out.demo = true,
            "--static-order" => out.static_order = true,
            "--tick-stats" => out.tick_stats = true,
            flag @ ("--trace" | "--mode" | "--ticks" | "--rows") => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{flag} expects a value"))?;
                match flag {
                    "--trace" => out.trace = Some(value.clone()),
                    "--mode" => out.mode = parse_mode(value)?,
                    "--ticks" => out.ticks = parse_int(flag, value)?,
                    _ => out.rows = parse_int(flag, value)?,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            path if out.path.is_some() => return Err(format!("unexpected second path {path:?}")),
            path => out.path = Some(path.to_string()),
        }
    }
    Ok(out)
}

/// Deterministic synthetic workload: each input interface of arity `k`
/// receives `rows` tuples where row `i` is `(i, i+1, …, i+k-1)` — for
/// binary relations this forms a chain, which exercises recursive rules.
fn synthetic_inputs(m: &blazes_bloom::Module, rows: usize) -> BTreeMap<String, Vec<Tuple>> {
    m.inputs()
        .iter()
        .map(|iface| {
            let arity = m
                .collection(iface)
                .map_or(1, blazes_bloom::ast::CollectionDecl::arity);
            let tuples = (0..rows)
                .map(|i| Tuple((0..arity).map(|j| Value::Int((i + j) as i64)).collect()))
                .collect();
            (iface.to_string(), tuples)
        })
        .collect()
}

fn run_bloom_module(name: &str, text: &str, cli: &Cli) {
    let module = match parse_module(text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("parse error in {name:?}: {e}");
            std::process::exit(1);
        }
    };
    println!("module {} ({} rules)", module.name, module.rules.len());

    println!("\n-- derived annotations (white-box analysis) --");
    match annotate_module(&module) {
        Ok(annotations) if annotations.is_empty() => println!("  (none)"),
        Ok(annotations) => {
            for a in &annotations {
                println!("  {} -> {}  =>  {}", a.from, a.to, a.annotation);
            }
        }
        Err(e) => eprintln!("  analysis error: {e}"),
    }

    if !cli.tick_stats {
        return;
    }

    let &Cli {
        mode, ticks, rows, ..
    } = cli;
    let mut inst = match ModuleInstance::with_mode(module, mode) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("instantiation error: {e}");
            std::process::exit(1);
        }
    };
    println!("\n-- tick stats ({mode:?}, {rows} rows/input, {ticks} tick(s)) --");
    for tick in 1..=ticks {
        let inputs = synthetic_inputs(inst.module(), rows);
        match inst.tick(inputs) {
            Ok(out) => {
                let emitted: usize = out.outputs.values().map(Vec::len).sum();
                println!("tick {tick}: {emitted} output tuple(s)");
            }
            Err(e) => {
                eprintln!("tick {tick} failed: {e}");
                std::process::exit(1);
            }
        }
        for (stratum, s) in inst.last_stratum_stats().iter().enumerate() {
            println!(
                "  stratum {stratum}: {} iter(s), {} derivation(s), {} probe(s), {:.3} ms",
                s.fixpoint_iters,
                s.derivations,
                s.join_probes,
                s.wall_ns as f64 / 1e6
            );
        }
        let t = inst.last_tick_stats();
        println!(
            "  total: {} iter(s), {} derivation(s), {} probe(s), {:.3} ms",
            t.fixpoint_iters,
            t.derivations,
            t.join_probes,
            t.wall_ns as f64 / 1e6
        );
    }
    let c = inst.cumulative_stats();
    println!(
        "cumulative over {} tick(s): {} derivation(s), {} probe(s), {:.3} ms",
        inst.ticks(),
        c.derivations,
        c.join_probes,
        c.wall_ns as f64 / 1e6
    );
}

/// Write the Chrome-trace JSON when `--trace` was given.
fn export_trace(path: Option<&String>) {
    if let Some(path) = path {
        match blazes::obs::global().export_chrome(path) {
            Ok(()) => println!("# trace written to {path}"),
            Err(e) => {
                eprintln!("trace export failed for {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.trace.is_some() {
        blazes::obs::global().set_enabled(true);
    }

    let (name, text) = match (&cli.path, cli.demo) {
        (Some(p), _) => match std::fs::read_to_string(p) {
            Ok(t) => (p.clone(), t),
            Err(e) => {
                eprintln!("error: cannot read {p:?}: {e}");
                std::process::exit(1);
            }
        },
        (None, true) => ("wordcount-demo".to_string(), DEMO.to_string()),
        (None, false) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    if is_bloom_module(&text) {
        run_bloom_module(&name, &text, &cli);
        export_trace(cli.trace.as_ref());
        return;
    }

    let spec = match Spec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let graph = match spec.to_graph(&name) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let outcome = match Analyzer::new(&graph).run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("analysis error: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", derivation::render(&graph, &outcome));

    let dynamic = !cli.static_order;
    match plan_for(&graph, dynamic) {
        Ok(plan) => {
            println!(
                "\n-- synthesized coordination ({}) --",
                if dynamic {
                    "dynamic ordering"
                } else {
                    "static ordering"
                }
            );
            print!("{}", plan.render(&graph));
            match residual_labels(&graph, &plan) {
                Ok(residual) => {
                    println!("-- residual labels after deployment --");
                    for (sink, label) in residual {
                        println!("  {sink}  =>  {label}");
                    }
                }
                Err(e) => eprintln!("residual computation failed: {e}"),
            }
        }
        Err(e) => eprintln!("synthesis error: {e}"),
    }

    let advice = advisor::advise(&graph, &outcome);
    if !advice.is_empty() {
        println!("\n-- placement advice --");
        for a in advice {
            println!("  {}", a.render(&graph));
        }
    }
    export_trace(cli.trace.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_mode_accepts_exactly_the_two_evaluators() {
        assert_eq!(parse_mode("naive"), Ok(EvalMode::Naive));
        assert_eq!(parse_mode("semi"), Ok(EvalMode::SemiNaive));
        assert_eq!(parse_mode("semi-naive"), Ok(EvalMode::SemiNaive));
        for bad in ["sharded", "sharded:2", "bogus"] {
            let err = parse_mode(bad).unwrap_err();
            assert!(err.ends_with("(expected naive|semi)"), "{err}");
        }
    }
}
