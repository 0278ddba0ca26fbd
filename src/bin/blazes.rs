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

/// `--flag VALUE`: the value, `None` when the flag is absent. A flag with
/// nothing after it is an error.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) => Ok(Some(v)),
        None => Err(format!("{flag} expects a value")),
    }
}

/// [`flag_value`] parsed as a non-negative integer, `default` when absent.
fn int_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    flag_value(args, flag)?.map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{flag} expects a non-negative integer, got {v:?}"))
    })
}

fn parse_mode(s: &str) -> Result<EvalMode, String> {
    match s {
        "naive" => Ok(EvalMode::Naive),
        "semi" | "semi-naive" => Ok(EvalMode::SemiNaive),
        _ => Err(format!("unknown mode {s:?} (expected naive|semi)")),
    }
}

/// The four value flags, checked before anything is read or run.
struct Flags {
    trace: Option<String>,
    mode: EvalMode,
    ticks: u64,
    rows: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    Ok(Flags {
        trace: flag_value(args, "--trace")?.map(String::from),
        mode: flag_value(args, "--mode")?.map_or(Ok(EvalMode::SemiNaive), parse_mode)?,
        ticks: int_flag(args, "--ticks", 1)?,
        rows: int_flag(args, "--rows", 32)?,
    })
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

fn run_bloom_module(name: &str, text: &str, tick_stats: bool, flags: &Flags) {
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

    if !tick_stats {
        return;
    }

    let &Flags {
        mode, ticks, rows, ..
    } = flags;
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
    let dynamic = !args.iter().any(|a| a == "--static-order");
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if flags.trace.is_some() {
        blazes::obs::global().set_enabled(true);
    }
    let value_flags = ["--mode", "--ticks", "--rows", "--trace"];
    let path = args.iter().enumerate().find_map(|(i, a)| {
        if a.starts_with("--") {
            return None;
        }
        // Skip values consumed by flags like `--mode semi`.
        if i > 0 && value_flags.contains(&args[i - 1].as_str()) {
            return None;
        }
        Some(a)
    });

    let (name, text) = match (path, args.iter().any(|a| a == "--demo")) {
        (Some(p), _) => match std::fs::read_to_string(p) {
            Ok(t) => (p.clone(), t),
            Err(e) => {
                eprintln!("error: cannot read {p:?}: {e}");
                std::process::exit(1);
            }
        },
        (None, true) => ("wordcount-demo".to_string(), DEMO.to_string()),
        (None, false) => {
            eprintln!(
                "usage: blazes <spec-file> [--static-order] | blazes --demo\n       \
                 blazes <module.blz> [--tick-stats] [--ticks N] [--rows N] \
                 [--mode naive|semi]"
            );
            std::process::exit(2);
        }
    };

    if is_bloom_module(&text) {
        let tick_stats = args.iter().any(|a| a == "--tick-stats");
        run_bloom_module(&name, &text, tick_stats, &flags);
        export_trace(flags.trace.as_ref());
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
    export_trace(flags.trace.as_ref());
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
