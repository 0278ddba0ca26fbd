//! `bloom_scaling`: the Bloom evaluation-engine sweep — naive vs
//! semi-naive — over recursive, join-heavy, aggregation and multi-tick
//! workloads, with CI-gateable correctness and counter checks.
//!
//! ```text
//! cargo run -p blazes-bench --release --bin bloom_scaling -- \
//!     [--smoke] [--reps N] [--out FILE] [--check [FLOOR]] [--note TEXT]...
//! ```
//!
//! `--out` writes the results as JSON (default `BENCH_bloom_scaling.json`
//! when given without a value). `--check` exits nonzero when any
//! optimized run's output diverges from the naive oracle, when the
//! engine's own counters show semi-naive re-deriving on the recursive
//! workload, or when a late tick of the multi-tick ad report does more
//! than 1.5x the work of an early one (per-tick work must track the
//! tick's delta, not the table) — all machine-independent gates. With an
//! explicit `FLOOR`
//! it additionally requires the naive/semi-naive wall-clock ratio on
//! transitive closure at the largest scale to reach `FLOOR`x; wall time
//! here is algorithmic (not parallel) speedup, so the floor holds on any
//! machine, but CI smoke runs keep to the counter gates.

use blazes_bench::bloom_scaling::{run_bloom_scaling, BloomScalingConfig};

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// `--out [FILE]`: present with a value uses it; present with the next
/// token being another flag (or nothing) falls back to the default path.
fn parse_out(args: &[String], default: &str) -> Option<String> {
    let i = args.iter().position(|a| a == "--out")?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => Some(default.to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        BloomScalingConfig::smoke()
    } else {
        BloomScalingConfig::default()
    };
    if let Some(reps) = parse_flag(&args, "--reps") {
        cfg.reps = reps;
    }
    let out = parse_out(&args, "BENCH_bloom_scaling.json");
    let check = args.iter().any(|a| a == "--check");
    let floor: Option<f64> = parse_flag(&args, "--check");
    let notes: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--note")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();

    let mut report = run_bloom_scaling(&cfg);
    report.notes.extend(notes);
    print!("{}", report.render_table());
    println!(
        "# headline: semi-naive {:.2}x over naive on tc at scale {}",
        report.headline_speedup(),
        report.max_scale("tc").unwrap_or(0)
    );

    if let Some(path) = out {
        std::fs::write(&path, report.to_json()).expect("write bench JSON");
        println!("# wrote {path}");
    }

    if check {
        let mut failed = false;
        if !report.all_correct() {
            eprintln!("FAIL: an optimized engine diverged from the naive oracle");
            failed = true;
        }
        if report.counters_confirm_no_rederivation() {
            println!("# counter gate passed: semi-naive derivations <= naive on every tc point");
        } else {
            eprintln!("FAIL: semi-naive derivation counters exceed naive on transitive closure");
            failed = true;
        }
        if report.per_tick_work_tracks_delta() {
            println!("# counter gate passed: per-tick work tracks the delta on adreport-ticks");
        } else {
            eprintln!("FAIL: per-tick work on adreport-ticks grows with the table (last tenth > 1.5x first)");
            failed = true;
        }
        if let Some(floor) = floor {
            let got = report.headline_speedup();
            if got < floor {
                eprintln!("FAIL: tc speedup {got:.2}x below floor {floor:.2}x");
                failed = true;
            } else {
                println!("# wall-clock gate passed: {got:.2}x >= floor {floor:.2}x");
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
