//! Figure 11: Storm wordcount throughput vs cluster size, transactional vs
//! sealed topologies.
//!
//! ```text
//! cargo run -p blazes-bench --release --bin fig11 \
//!     [runs] [--backend sim|par] [--virtual-time] [--trace FILE]
//! ```
//!
//! `--trace FILE` enables the observability layer for the whole sweep and
//! writes a Chrome-trace JSON (`chrome://tracing` / Perfetto) at exit.
//!
//! With `--backend par` the same topologies execute on the multi-worker
//! parallel backend (threads capped at 8) and throughput is tweets per
//! *wall-clock* second; modeled service times do not apply, so magnitudes
//! are not comparable to the simulator's virtual-time numbers — the
//! sealed-over-transactional *ratio* is the comparable shape. Add
//! `--virtual-time` to burn each modeled service unit as 1 µs of wall
//! clock (`FIG11_VIRTUAL_NS`): the par curves then land on the
//! simulator's axis and the magnitudes are directly comparable.

use blazes_bench::{fig11_point, FIG11_VIRTUAL_NS};
use blazes_dataflow::backend::BackendSpec;
use blazes_dataflow::par::ParTuning;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The positional runs argument is any token that is neither a flag nor
    // a flag's value, whatever the ordering.
    let backend_pos = args.iter().position(|a| a == "--backend");
    let trace_pos = args.iter().position(|a| a == "--trace");
    let runs: u64 = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !a.starts_with("--")
                && backend_pos != Some(i.wrapping_sub(1))
                && trace_pos != Some(i.wrapping_sub(1))
        })
        .find_map(|(_, s)| s.parse().ok())
        .unwrap_or(3);
    let trace = trace_pos.and_then(|i| args.get(i + 1)).cloned();
    if trace.is_some() {
        blazes_obs::global().set_enabled(true);
    }
    let backend = backend_pos
        .and_then(|i| args.get(i + 1))
        .map_or("sim", String::as_str);
    let virtual_time = args.iter().any(|a| a == "--virtual-time");
    if virtual_time && backend != "par" {
        eprintln!("--virtual-time only applies to --backend par");
        std::process::exit(2);
    }
    // On par the cluster size also picks the thread count, capped at 8.
    let spec_for = |cluster: usize| match backend {
        "sim" => BackendSpec::Sim,
        "par" => BackendSpec::Par {
            workers: cluster.clamp(1, 8),
            tuning: ParTuning::default()
                .with_virtual_service_ns(virtual_time.then_some(FIG11_VIRTUAL_NS)),
        },
        other => {
            eprintln!("unknown backend {other:?}: expected sim or par");
            std::process::exit(2);
        }
    };

    let unit = if backend == "par" && virtual_time {
        "tweets/virtualized-wall-second"
    } else if backend == "par" {
        "tweets/wall-second"
    } else {
        "tweets/virtual-second"
    };
    println!("# Figure 11: wordcount throughput ({unit}, backend={backend})");
    println!("# cluster  transactional  sealed  ratio  (±stddev over {runs} runs)");
    for workers in [5, 10, 15, 20] {
        let spec = spec_for(workers);
        let tx = fig11_point(workers, true, runs, &spec);
        let sealed = fig11_point(workers, false, runs, &spec);
        let ratio = sealed.mean_throughput / tx.mean_throughput;
        println!(
            "{workers:7}  {tx:13.0}  {sealed:6.0}  {ratio:5.2}  (tx ±{txs:.0}, sealed ±{ss:.0})",
            tx = tx.mean_throughput,
            sealed = sealed.mean_throughput,
            txs = tx.stddev_throughput,
            ss = sealed.stddev_throughput,
        );
    }
    println!("# paper shape: sealed/transactional ratio ~1.8x at 5 nodes growing to ~3x at 20");
    if let Some(path) = trace {
        match blazes_obs::global().export_chrome(&path) {
            Ok(()) => println!("# trace written to {path}"),
            Err(e) => {
                eprintln!("trace export failed for {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
