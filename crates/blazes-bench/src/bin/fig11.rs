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

#![forbid(unsafe_code)]

use blazes_bench::{cli, fig11_point, FIG11_VIRTUAL_NS};
use blazes_dataflow::backend::BackendSpec;
use blazes_dataflow::par::ParTuning;

const USAGE: &str = "usage: fig11 [runs] [--backend sim|par] [--virtual-time] [--trace FILE]";

fn main() {
    let (runs, par, virtual_time, trace) = cli::parse_or_exit(USAGE, |mut a| {
        let par = match a.value::<String>("--backend")?.as_deref() {
            None | Some("sim") => false,
            Some("par") => true,
            Some(other) => return Err(format!("unknown backend {other:?}: expected sim or par")),
        };
        let virtual_time = a.switch("--virtual-time");
        if virtual_time && !par {
            return Err("--virtual-time only applies to --backend par".to_string());
        }
        let trace: Option<String> = a.value("--trace")?;
        let runs: u64 = match a.positionals()?.as_slice() {
            [] => 3,
            [runs] => runs
                .parse()
                .map_err(|_| format!("invalid run count {runs:?}"))?,
            [_, extra, ..] => return Err(format!("unexpected argument {extra:?}")),
        };
        Ok((runs, par, virtual_time, trace))
    });
    if trace.is_some() {
        blazes_obs::global().set_enabled(true);
    }
    // On par the cluster size also picks the thread count, capped at 8.
    let spec_for = |cluster: usize| {
        if par {
            BackendSpec::Par {
                workers: cluster.clamp(1, 8),
                tuning: ParTuning::default()
                    .with_virtual_service_ns(virtual_time.then_some(FIG11_VIRTUAL_NS)),
            }
        } else {
            BackendSpec::Sim
        }
    };

    let backend = if par { "par" } else { "sim" };
    let unit = if virtual_time {
        "tweets/virtualized-wall-second"
    } else if par {
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
