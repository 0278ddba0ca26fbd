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
use blazes_bench::cli;

const USAGE: &str = "usage: bloom_scaling [--smoke] [--reps N] [--out [FILE]] \
                     [--check [FLOOR]] [--note TEXT]...";

fn main() {
    // `check` is `Some` when `--check` was given, `Some(Some(floor))` when
    // it carried a wall-clock floor.
    let (cfg, out, check, notes) = cli::parse_or_exit(USAGE, |mut a| {
        let mut cfg = if a.switch("--smoke") {
            BloomScalingConfig::smoke()
        } else {
            BloomScalingConfig::default()
        };
        if let Some(reps) = a.value("--reps")? {
            cfg.reps = reps;
        }
        let out = a.optional_or("--out", "BENCH_bloom_scaling.json".to_string())?;
        let check: Option<Option<f64>> = a.optional("--check")?;
        let notes = a.repeated("--note")?;
        a.done()?;
        Ok((cfg, out, check, notes))
    });

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

    if let Some(floor) = check {
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
