//! One rep of one workload: set up, run, check — in that order, each
//! timed on its own, inside a fresh process the orchestrator spawned.
//!
//! Set-up is everything up to (not including) the run call: generating the
//! inputs, parsing/annotating/deriving the `CoordinationSpec`, the rewrite
//! pass and assembling the executor. The run call is `ParExecutor::run`,
//! `run_dist` or `ModuleInstance::tick`, sources injected → quiescent with
//! sinks collected. On dist, spawning the worker processes happens inside
//! `run_dist` and therefore counts as run time.
//!
//! A *traced* rep does the same run through [`TracingBuilder`] and then the
//! per-layer replays of [`crate::layers`]; its timings never feed an
//! end-to-end metric.

use crate::json::Json;
use crate::layers::{self, Layer};
use crate::oracle::{self, Digests};
use crate::stats::{median, percentile};
use crate::trace::{
    Phases, TraceSink, TraceSummary, TracingBuilder, GATE_FAMILY, REPORT_FAMILY, SEQUENCER_FAMILY,
};
use crate::workloads::{
    ad_scenario, tc_chain, wordcount_scenario, wordcount_tweets, Size, Workload, THREADS,
};
use blazes_apps::adreport::AdScenario;
use blazes_apps::autocoord::{
    assemble_ad_auto, response_digests, wordcount_ordering_config, wordcount_spec, AdAutoAssembly,
};
use blazes_apps::dist::{dist_registry, encode_wordcount_params, WORDCOUNT_TOPOLOGY};
use blazes_apps::wordcount::{wordcount_topology, WordcountScenario};
use blazes_bloom::interp::ModuleInstance;
use blazes_bloom::parser::parse_module;
use blazes_dataflow::backend::{BackendSpec, NoopPass, RewritingBuilder};
use blazes_dataflow::dist::{run_dist, DistSpec, DistStats, ProbeBuilder, Registry};
use blazes_dataflow::metrics::TimeSeries;
use blazes_dataflow::par::{ParBuilder, ParExecutor, ParStats, ParTuning};
use blazes_dataflow::sinks::CollectorSink;
use blazes_storm::topology::CoordinationOutcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The repo's transitive-closure example module, the `bloom-tc` program.
pub const TC_SOURCE: &str = include_str!("../../examples/blz/transitive_closure.blz");

/// Environment variable naming the directory where dist workers (this same
/// binary) leave their exit summaries. The benchmark's own: nothing outside
/// this package reads it.
pub const ENV_TMP: &str = "BLAZES_BENCH_TMP";

/// Set-up is sampled this many times per rep (once before the run, the
/// rest after the check) unless [`SETUP_BUDGET`] runs out first.
const SETUP_SAMPLES: usize = 101;
/// Wall time a rep may spend on extra set-up samples.
const SETUP_BUDGET: Duration = Duration::from_millis(300);

/// Registry name of the wordcount assembled through the decorator.
const TRACED_WORDCOUNT: &str = "traced:wordcount";

/// Probes of the traced dist assembly in this process (a dist worker, or
/// the coordinator's structure-only pass).
fn dist_trace_sink() -> &'static TraceSink {
    static SINK: OnceLock<TraceSink> = OnceLock::new();
    SINK.get_or_init(TraceSink::new)
}

/// The registry both the coordinator and the workers hold: the case-study
/// topologies as shipped, plus a traced twin of the wordcount that
/// delegates to the same assembly through the tracing decorator.
pub fn registry() -> Registry {
    let mut registry = dist_registry();
    registry.register(TRACED_WORDCOUNT, |builder, params| {
        let mut tracing = TracingBuilder::new(builder, dist_trace_sink().clone());
        dist_registry()
            .assemble(WORDCOUNT_TOPOLOGY, params, &mut tracing)
            .expect("the case-study registry knows the wordcount")
    });
    registry
}

/// Called by a dist worker after `worker_main` returns: leave this
/// process's peak RSS and traced totals where the coordinator's rep can
/// find them. Best-effort — a worker that cannot write only loses its
/// contribution to the memory metric.
pub fn write_worker_summary() {
    let Some(dir) = std::env::var_os(ENV_TMP) else {
        return;
    };
    let index = std::env::var(blazes_dataflow::dist::ENV_INDEX).unwrap_or_default();
    let epoch = std::env::var(blazes_dataflow::dist::ENV_EPOCH).unwrap_or_default();
    let summary = Json::obj([
        ("rss_mb", Json::from(vm_hwm_mb())),
        ("trace", dist_trace_sink().summary().to_json()),
    ]);
    let path = Path::new(&dir).join(format!("worker-{index}-{epoch}.json"));
    let _ = std::fs::write(path, summary.to_string());
}

/// This process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` does
/// not say.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a rep needs from its surroundings.
#[derive(Debug, Clone)]
pub struct RepEnv {
    /// argv that re-enters this program as a dist worker.
    pub worker_command: Vec<String>,
    /// Where dist workers leave their exit summaries, when anywhere.
    pub tmp: Option<PathBuf>,
}

/// Everything one rep measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepResult {
    /// Input records fed (clicks, tweets, or expected path tuples).
    pub records: u64,
    /// Wall seconds of the run call.
    pub run_s: f64,
    /// Wall seconds of every set-up sample; the first preceded the run.
    pub setup_samples_s: Vec<f64>,
    /// Peak RSS of this process right after the run, plus the largest
    /// worker's on dist, in MiB.
    pub rss_mb: f64,
    /// Expected output tuples.
    pub attempted: u64,
    /// Expected output tuples missing or wrong.
    pub failed: u64,
    /// Why operations failed, when any did.
    pub notes: Vec<String>,
    /// Counters that must repeat exactly for a fixed seed.
    pub counters: BTreeMap<String, u64>,
    /// Per-layer metrics (traced reps only).
    pub layer: Layer,
    /// `(phase, start_us, dur_us)` since the rep started.
    pub phases: Vec<(String, u64, u64)>,
}

impl RepResult {
    /// Median of the set-up samples.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples_s)
    }

    /// Records per second of the run call.
    pub fn throughput_rps(&self) -> f64 {
        if self.run_s > 0.0 {
            self.records as f64 / self.run_s
        } else {
            0.0
        }
    }

    /// JSON form: what a rep child prints as its last line.
    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::from(*x)).collect());
        Json::obj([
            ("records", Json::from(self.records)),
            ("run_s", Json::from(self.run_s)),
            ("setup_samples_s", nums(&self.setup_samples_s)),
            ("rss_mb", Json::from(self.rss_mb)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n.clone())).collect()),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "layer",
                Json::Obj(
                    self.layer
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(name, start, dur)| {
                            Json::Arr(vec![
                                Json::str(name.clone()),
                                Json::from(*start),
                                Json::from(*dur),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Read back what [`RepResult::to_json`] wrote.
    pub fn from_json(json: &Json) -> Option<RepResult> {
        let floats =
            |v: &Json| -> Option<Vec<f64>> { v.as_arr()?.iter().map(Json::as_f64).collect() };
        Some(RepResult {
            records: json.get("records")?.as_u64()?,
            run_s: json.get("run_s")?.as_f64()?,
            setup_samples_s: floats(json.get("setup_samples_s")?)?,
            rss_mb: json.get("rss_mb")?.as_f64()?,
            attempted: json.get("attempted")?.as_u64()?,
            failed: json.get("failed")?.as_u64()?,
            notes: json
                .get("notes")?
                .as_arr()?
                .iter()
                .map(|n| n.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            counters: json
                .get("counters")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect::<Option<_>>()?,
            layer: json
                .get("layer")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
            phases: json
                .get("phases")?
                .as_arr()?
                .iter()
                .map(|p| {
                    let p = p.as_arr()?;
                    Some((
                        p.first()?.as_str()?.to_string(),
                        p.get(1)?.as_u64()?,
                        p.get(2)?.as_u64()?,
                    ))
                })
                .collect::<Option<_>>()?,
        })
    }
}

/// Run one rep of `workload`. `seal_reference` is the simulator digest for
/// `adreport-seal-par` when the orchestrator already computed it; without
/// it the rep computes its own (outside every timed phase).
pub fn run_rep(
    workload: Workload,
    seed: u64,
    size: Size,
    traced: bool,
    seal_reference: Option<&Digests>,
    env: &RepEnv,
) -> RepResult {
    let mut rep = match workload {
        Workload::AdSealPar | Workload::AdOrderPar => {
            rep_ad(workload, seed, size, traced, seal_reference)
        }
        Workload::WordcountPar => rep_wordcount_par(seed, size, traced),
        Workload::WordcountDist => rep_wordcount_dist(seed, size, traced, env),
        Workload::BloomTc => rep_tc(seed, size, traced),
    };
    if rep.failed > 0 && rep.notes.is_empty() {
        rep.notes.push(format!(
            "{} of {} expected output tuples missing or wrong",
            rep.failed, rep.attempted
        ));
    }
    rep
}

/// Time `build` as one set-up sample.
fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let built = build();
    (built, start.elapsed().as_secs_f64())
}

/// The rep's remaining set-up samples: build again and drop, a few times.
/// Runs after the check so the discarded executors never inflate the peak
/// RSS read after the run.
fn more_setup_samples<T>(first: f64, traced: bool, mut build: impl FnMut() -> T) -> Vec<f64> {
    let mut samples = vec![first];
    let budget = Instant::now();
    while !traced && samples.len() < SETUP_SAMPLES && budget.elapsed() < SETUP_BUDGET {
        let (built, seconds) = timed(&mut build);
        samples.push(seconds);
        drop(built);
    }
    samples
}

/// Charge every owed operation when a pinned structural fact is off.
fn pin(rep: &mut RepResult, holds: bool, what: impl FnOnce() -> String) {
    if !holds {
        rep.failed = rep.attempted;
        rep.notes.push(what());
    }
}

// ---------------------------------------------------------------------
// adreport-seal-par / adreport-order-par
// ---------------------------------------------------------------------

fn par_builder(seed: u64) -> ParBuilder {
    ParBuilder::new(seed)
        .with_workers(THREADS)
        .with_tuning(ParTuning::default())
        .expect("default parallel tuning is valid")
}

/// Assemble the bare ad network through the auto-coordination rewrite onto
/// the par backend — `run_ad_auto`'s `Par` arm up to its run call.
fn ad_setup(sc: &AdScenario, sink: Option<&TraceSink>) -> (ParExecutor, AdAutoAssembly) {
    let mut builder = par_builder(sc.seed);
    let assembly = match sink {
        Some(sink) => assemble_ad_auto(
            sc,
            false,
            &mut TracingBuilder::new(&mut builder, sink.clone()),
        ),
        None => assemble_ad_auto(sc, false, &mut builder),
    };
    (builder.build(), assembly)
}

fn rep_ad(
    workload: Workload,
    seed: u64,
    size: Size,
    traced: bool,
    seal_reference: Option<&Digests>,
) -> RepResult {
    let mut phases = Phases::start();
    let sink = traced.then(TraceSink::new);
    let ((sc, exec, assembly), first_setup) = timed(|| {
        phases.time("setup.assemble", || {
            let sc = ad_scenario(workload, seed, size);
            let (exec, assembly) = ad_setup(&sc, sink.as_ref());
            (sc, exec, assembly)
        })
    });
    let (stats, run_s) = timed(|| phases.time("run", || exec.run()));
    let rss_mb = vm_hwm_mb();

    let mut rep = RepResult {
        records: sc.workload.total_entries() as u64,
        run_s,
        rss_mb,
        ..RepResult::default()
    };
    let injected = assembly.report.stats.injected_operators as u64;
    let sinks: Vec<CollectorSink> = assembly.responses.into_iter().map(|(_, s)| s).collect();
    phases.time("check", || {
        let (attempted, failed) = if workload == Workload::AdSealPar {
            let actual = oracle::digests_of(&sinks);
            match seal_reference {
                Some(expected) => oracle::check_ad_seal(expected, &actual),
                None => oracle::check_ad_seal(&oracle::sim_reference(&sc).0, &actual),
            }
        } else {
            let totals: Vec<u64> = assembly.series.iter().map(TimeSeries::total).collect();
            let responses = response_digests(&sinks);
            let verdict = oracle::check_ad_order(&sc, &totals, &responses);
            if verdict.1 > 0 {
                let answers: Vec<usize> = responses.iter().map(Vec::len).collect();
                rep.notes.push(format!(
                    "replica totals {totals:?} (clicks {}), answers per replica {answers:?}",
                    sc.workload.total_entries()
                ));
            }
            verdict
        };
        (rep.attempted, rep.failed) = (attempted, failed);
        let want = if workload == Workload::AdSealPar {
            3
        } else {
            1
        };
        pin(&mut rep, injected == want, || {
            format!("autocoord.injected_ops is {injected}, pinned at {want}")
        });
    });
    rep.counters
        .insert("autocoord.injected_ops".to_string(), injected);
    rep.counters
        .insert("par.events".to_string(), stats.events_processed);

    if let Some(sink) = &sink {
        let summary = sink.summary();
        par_layer(&stats, run_s, &summary, &mut rep.layer);
        ad_traced_layer(workload, &summary, &mut rep.layer);
        layers::core_ad(&sc, &mut rep.layer);
        layers::bloom_static(&sc.query.module_source(), &mut rep.layer);
        layers::bloom_ticks(&sc, &mut rep.layer);
        layers::autocoord_rewrite_ad(&sc, &mut rep.layer);
        if workload == Workload::AdSealPar {
            layers::coord_seal(&sc, &mut rep.layer);
        } else {
            layers::coord_sequencer(&sc, &mut rep.layer);
        }
    }
    rep.setup_samples_s = more_setup_samples(first_setup, traced, || ad_setup(&sc, None));
    rep.phases = phases.into_vec();
    rep
}

/// `par.*` from the run's own statistics plus the decorators' busy time.
fn par_layer(stats: &ParStats, run_s: f64, summary: &TraceSummary, out: &mut Layer) {
    // Everything the worker threads did that was not a component handler:
    // scheduling, mailboxes, stealing, parking.
    let capacity_ns = run_s * 1e9 * stats.workers as f64;
    let runtime_share = (1.0 - summary.total_busy_ns() as f64 / capacity_ns).max(0.0);
    layers::put_all(
        out,
        [
            ("par.events", stats.events_processed as f64),
            ("par.steals", stats.total_steals() as f64),
            ("par.parks", stats.total_parks() as f64),
            ("par.wakeups", stats.total_wakeups() as f64),
            ("par.push_retries", stats.total_push_retries() as f64),
            ("par.balance", stats.balance()),
            (
                "par.ns_per_event",
                run_s * 1e9 / stats.events_processed.max(1) as f64,
            ),
            ("par.runtime_share", runtime_share),
        ],
    );
}

fn ad_traced_layer(workload: Workload, summary: &TraceSummary, out: &mut Layer) {
    layers::put_all(
        out,
        [("bloom.busy_share", summary.busy_share(REPORT_FAMILY))],
    );
    if workload == Workload::AdOrderPar {
        let share = summary.busy_share(SEQUENCER_FAMILY);
        layers::put_all(out, [("coord.sequencer_busy_share", share)]);
        return;
    }
    let gates = summary.family(GATE_FAMILY);
    let holds_ms: Vec<f64> = summary
        .gate_holds_ns
        .iter()
        .map(|ns| *ns as f64 / 1e6)
        .collect();
    layers::put_all(
        out,
        [
            ("autocoord.gate_busy_share", summary.busy_share(GATE_FAMILY)),
            ("autocoord.gate_records_in", gates.messages_in as f64),
            ("autocoord.gate_records_out", gates.emitted as f64),
            ("autocoord.gate_hold_ms_p50", percentile(&holds_ms, 50.0)),
            ("autocoord.gate_hold_ms_p99", percentile(&holds_ms, 99.0)),
        ],
    );
}

// ---------------------------------------------------------------------
// wordcount-par / wordcount-dist
// ---------------------------------------------------------------------

fn storm_traced_layer(summary: &TraceSummary, out: &mut Layer) {
    layers::put_all(
        out,
        [
            ("storm.splitter_busy_share", summary.busy_share("Splitter")),
            ("storm.count_busy_share", summary.busy_share("Count")),
            ("storm.commit_busy_share", summary.busy_share("Commit")),
            ("bloom.busy_share", summary.busy_share(REPORT_FAMILY)),
        ],
    );
}

/// Check a wordcount run and pin its rewrite-freedom.
fn check_wordcount(
    rep: &mut RepResult,
    sc: &WordcountScenario,
    committed: &CollectorSink,
    outcome: &CoordinationOutcome,
) {
    let expected = oracle::wordcount_expected(sc);
    (rep.attempted, rep.failed) = oracle::check_wordcount(&expected, committed);
    let injected = outcome.rewrite.injected_operators as u64;
    pin(rep, outcome.is_rewrite_free() && injected == 0, || {
        format!("the sealed wordcount must be rewrite-free, got {outcome:?}")
    });
    rep.counters
        .insert("autocoord.injected_ops".to_string(), injected);
}

/// The par executor for the sealed wordcount. Untraced this is the public
/// `build_coordinated_on`; traced it is the same three steps with the
/// decorator between the rewrite pass and the par builder.
fn wordcount_par_setup(
    sc: &WordcountScenario,
    sink: Option<&TraceSink>,
    phases: &mut Phases,
) -> (
    Box<dyn FnOnce() -> ParStats>,
    CollectorSink,
    CoordinationOutcome,
) {
    let (mut topology, committed) = phases.time("setup.generate", || wordcount_topology(sc));
    let spec = phases.time("setup.analyze", || wordcount_spec(true));
    let ordering = wordcount_ordering_config(sc);
    phases.time("setup.assemble", || match sink {
        None => {
            let (mut exec, outcome) = topology
                .build_coordinated_on(&spec, &ordering, &BackendSpec::par(THREADS))
                .expect("spec fits the wordcount topology");
            let run: Box<dyn FnOnce() -> ParStats> = Box::new(move || {
                exec.run()
                    .as_par()
                    .expect("a Par spec returns Par statistics")
                    .clone()
            });
            (run, committed, outcome)
        }
        Some(sink) => {
            let mut outcome = topology
                .apply_coordination(&spec, &ordering)
                .expect("spec fits the wordcount topology");
            let mut par = par_builder(sc.seed);
            let mut tracing = TracingBuilder::new(&mut par, sink.clone());
            let mut rewriting = RewritingBuilder::new(&mut tracing, NoopPass);
            let _ = topology.assemble(&mut rewriting);
            outcome.rewrite = rewriting.finish().1;
            let exec = par.build();
            let run: Box<dyn FnOnce() -> ParStats> = Box::new(move || exec.run());
            (run, committed, outcome)
        }
    })
}

fn rep_wordcount_par(seed: u64, size: Size, traced: bool) -> RepResult {
    let mut phases = Phases::start();
    let sink = traced.then(TraceSink::new);
    let sc = wordcount_scenario(Workload::WordcountPar, seed, size);
    let ((run, committed, outcome), first_setup) =
        timed(|| wordcount_par_setup(&sc, sink.as_ref(), &mut phases));
    let (stats, run_s) = timed(|| phases.time("run", run));
    let rss_mb = vm_hwm_mb();

    let mut rep = RepResult {
        records: wordcount_tweets(&sc),
        run_s,
        rss_mb,
        ..RepResult::default()
    };
    phases.time("check", || {
        check_wordcount(&mut rep, &sc, &committed, &outcome)
    });
    rep.counters
        .insert("par.events".to_string(), stats.events_processed);
    if let Some(sink) = &sink {
        let summary = sink.summary();
        par_layer(&stats, run_s, &summary, &mut rep.layer);
        storm_traced_layer(&summary, &mut rep.layer);
        layers::core_wordcount(&mut rep.layer);
        layers::wordcount_assembly(&sc, &mut rep.layer);
    }
    rep.setup_samples_s = more_setup_samples(first_setup, traced, || {
        wordcount_par_setup(&sc, None, &mut Phases::start())
    });
    rep.phases = phases.into_vec();
    rep
}

/// The parent side of a dist wordcount up to `run_dist`: the arm of
/// `run_wordcount_auto` for `BackendSpec::Dist`, with the topology name
/// swapped for its traced twin when asked.
fn wordcount_dist_setup(
    sc: &WordcountScenario,
    traced: bool,
    env: &RepEnv,
    phases: &mut Phases,
) -> (DistSpec, CoordinationOutcome) {
    let (mut topology, _local_sink) = phases.time("setup.generate", || wordcount_topology(sc));
    let spec = phases.time("setup.analyze", || wordcount_spec(true));
    phases.time("setup.assemble", || {
        let mut outcome = topology
            .apply_coordination(&spec, &wordcount_ordering_config(sc))
            .expect("spec fits the wordcount topology");
        let mut probe = ProbeBuilder::new();
        let mut rewriting = RewritingBuilder::new(&mut probe, NoopPass);
        let _ = topology.assemble(&mut rewriting);
        outcome.rewrite = rewriting.finish().1;
        let name = if traced {
            TRACED_WORDCOUNT
        } else {
            WORDCOUNT_TOPOLOGY
        };
        let mut dist = DistSpec::new(
            name,
            encode_wordcount_params(sc, true),
            env.worker_command.clone(),
        );
        dist.processes = THREADS;
        dist.workers_per_process = 1;
        dist.seed = sc.seed;
        (dist, outcome)
    })
}

/// Run a dist spec and hand back the committed sink with the statistics.
fn run_wordcount_dist(dist: &DistSpec) -> (CollectorSink, DistStats) {
    let mut run = run_dist(dist, &registry()).expect("distributed wordcount run");
    let committed = run
        .sinks
        .pop()
        .map_or_else(CollectorSink::new, |(_, sink)| sink);
    (committed, run.stats)
}

/// Exit summaries the workers of the runs so far left in `dir`: the largest
/// peak RSS and the merged traced totals. Consumes the files.
fn collect_worker_summaries(dir: Option<&Path>) -> (f64, TraceSummary) {
    let mut rss_mb = 0.0f64;
    let mut trace = TraceSummary::default();
    let Some(entries) = dir.and_then(|d| std::fs::read_dir(d).ok()) else {
        return (rss_mb, trace);
    };
    for path in entries.flatten().map(|e| e.path()) {
        let is_summary = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("worker-") && n.ends_with(".json"));
        if !is_summary {
            continue;
        }
        if let Some(json) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
        {
            rss_mb = rss_mb.max(json.get("rss_mb").and_then(Json::as_f64).unwrap_or(0.0));
            if let Some(t) = json.get("trace").and_then(TraceSummary::from_json) {
                trace.merge(&t);
            }
        }
        let _ = std::fs::remove_file(path);
    }
    (rss_mb, trace)
}

fn rep_wordcount_dist(seed: u64, size: Size, traced: bool, env: &RepEnv) -> RepResult {
    let mut phases = Phases::start();
    let sc = wordcount_scenario(Workload::WordcountDist, seed, size);
    let ((dist, outcome), first_setup) =
        timed(|| wordcount_dist_setup(&sc, traced, env, &mut phases));
    let ((committed, stats), run_s) = timed(|| phases.time("run", || run_wordcount_dist(&dist)));
    let (worker_rss_mb, summary) = collect_worker_summaries(env.tmp.as_deref());
    let rss_mb = vm_hwm_mb() + worker_rss_mb;

    let mut rep = RepResult {
        records: wordcount_tweets(&sc),
        run_s,
        rss_mb,
        ..RepResult::default()
    };
    phases.time("check", || {
        check_wordcount(&mut rep, &sc, &committed, &outcome)
    });
    rep.counters
        .insert("dist.frames_routed".to_string(), stats.frames_routed);

    if traced {
        // The same job on par threads, for the price of the byte boundary.
        let (run, _, _) = wordcount_par_setup(&sc, None, &mut Phases::start());
        let (_, par_s) = timed(run);
        // Spawn + handshake + collect with nothing to route.
        let mut empty = sc.clone();
        empty.workload.batches = 0;
        let (empty_spec, _) = wordcount_dist_setup(&empty, false, env, &mut Phases::start());
        let (_, fixed_s) = timed(|| run_wordcount_dist(&empty_spec));
        let frames = stats.frames_routed as f64;
        layers::put_all(
            &mut rep.layer,
            [
                ("dist.frames_routed", frames),
                ("dist.frames_per_record", frames / rep.records.max(1) as f64),
                ("dist.heartbeats", stats.heartbeats as f64),
                ("dist.probe_rounds", stats.probe_rounds as f64),
                (
                    "dist.overhead_ratio",
                    if par_s > 0.0 { run_s / par_s } else { 0.0 },
                ),
                ("dist.fixed_cost_ms", fixed_s * 1e3),
                (
                    "wire.sink_result_bytes",
                    layers::sink_result_bytes(committed.entries()),
                ),
            ],
        );
        let _ = collect_worker_summaries(env.tmp.as_deref());
        storm_traced_layer(&summary, &mut rep.layer);
        layers::core_wordcount(&mut rep.layer);
        layers::wordcount_assembly(&sc, &mut rep.layer);
        layers::wire_and_recover(&sc, &mut rep.layer);
    }
    rep.setup_samples_s = more_setup_samples(first_setup, traced, || {
        wordcount_dist_setup(&sc, false, env, &mut Phases::start())
    });
    rep.phases = phases.into_vec();
    rep
}

// ---------------------------------------------------------------------
// bloom-tc
// ---------------------------------------------------------------------

fn rep_tc(seed: u64, size: Size, traced: bool) -> RepResult {
    let mut phases = Phases::start();
    let build = |phases: &mut Phases| {
        let (nodes, edges) = phases.time("setup.generate", || tc_chain(seed, size));
        let module = phases.time("setup.analyze", || {
            parse_module(TC_SOURCE).expect("the TC example parses")
        });
        let instance = phases.time("setup.assemble", || {
            ModuleInstance::new(module).expect("the TC example stratifies")
        });
        (nodes, edges, instance)
    };
    let ((nodes, edges, mut instance), first_setup) = timed(|| build(&mut phases));
    let edge_count = edges.len() as u64;
    let inputs = BTreeMap::from([("edge".to_string(), edges)]);
    let (output, run_s) = timed(|| phases.time("run", || instance.tick(inputs).expect("TC tick")));
    let rss_mb = vm_hwm_mb();

    let mut rep = RepResult {
        records: edge_count * (edge_count + 1) / 2,
        run_s,
        rss_mb,
        ..RepResult::default()
    };
    phases.time("check", || {
        (rep.attempted, rep.failed) = oracle::check_tc(&nodes, output.on("path"));
    });
    let mut engine = Layer::new();
    layers::bloom_counters(&instance, run_s, &mut engine);
    for name in [
        "bloom.derivations",
        "bloom.join_probes",
        "bloom.fixpoint_iters",
    ] {
        rep.counters.insert(name.to_string(), engine[name] as u64);
    }
    if traced {
        rep.layer = engine;
        layers::bloom_static(TC_SOURCE, &mut rep.layer);
    }
    drop((output, instance));
    rep.setup_samples_s = more_setup_samples(first_setup, traced, || build(&mut Phases::start()));
    rep.phases = phases.into_vec();
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_apps::autocoord::run_ad_auto;

    #[test]
    fn rep_results_survive_the_pipe() {
        let rep = RepResult {
            records: 40_000,
            run_s: 1.625,
            setup_samples_s: vec![0.011, 0.009, 0.0105],
            rss_mb: 91.25,
            attempted: 60,
            failed: 1,
            notes: vec!["one \"wrong\" tuple".to_string()],
            counters: BTreeMap::from([("par.events".to_string(), 305_245)]),
            layer: BTreeMap::from([("par.balance".to_string(), 1.04)]),
            phases: vec![("run".to_string(), 12, 1_625_000)],
        };
        let back = RepResult::from_json(&Json::parse(&rep.to_json().to_string()).unwrap());
        assert_eq!(back.as_ref(), Some(&rep));
        assert_eq!(rep.setup_s(), 0.0105);
        assert!((rep.throughput_rps() - 40_000.0 / 1.625).abs() < 1e-9);
    }

    /// Dist worker entry for the test harness: `run_dist` re-executes this
    /// test binary selecting exactly this test (see
    /// `libtest_worker_command`); inert in a normal test sweep.
    #[test]
    #[ignore = "dist worker entry point, only meaningful when spawned by run_dist"]
    fn dist_worker_entry() {
        if blazes_dataflow::dist::worker_main(&registry()) {
            write_worker_summary();
        }
    }

    /// Every workload passes its oracle at smoke size, plain and traced,
    /// and the traced reps fill only catalogue metrics.
    #[test]
    fn smoke_size_of_all_five_workloads_passes_its_oracles() {
        let started = Instant::now();
        let env = RepEnv {
            worker_command: blazes_dataflow::dist::libtest_worker_command(
                "rep::tests::dist_worker_entry",
            ),
            tmp: None,
        };
        for workload in Workload::ALL {
            for traced in [false, true] {
                let rep = run_rep(workload, 4, Size::Smoke, traced, None, &env);
                assert!(rep.attempted > 0, "{} owes operations", workload.name());
                assert_eq!(
                    rep.failed,
                    0,
                    "{} traced={traced}: {:?}",
                    workload.name(),
                    rep.notes
                );
                assert!(rep.run_s > 0.0 && rep.records > 0 && rep.rss_mb > 0.0);
                assert_eq!(rep.layer.is_empty(), !traced);
                for name in rep.layer.keys() {
                    assert!(
                        crate::metrics::per_layer(name).is_some(),
                        "{name} not in the catalogue"
                    );
                }
                if !traced {
                    assert!(
                        rep.setup_samples_s.len() > 1,
                        "set-up is sampled several times"
                    );
                }
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "smoke took {:?}",
            started.elapsed()
        );
    }

    /// The decorator is transparent: the coordinated ad report answers the
    /// same with and without it, on plain par threads and with time-warp
    /// speculation on (which exercises `snapshot`/`restore` forwarding).
    #[test]
    fn decorator_is_transparent_on_par_with_and_without_speculation() {
        let sc = ad_scenario(Workload::AdSealPar, 1, Size::Smoke);
        let (reference, _, _) = oracle::sim_reference(&sc);
        for speculation in [false, true] {
            let tuning = ParTuning::default().with_speculation(speculation);
            let (plain, _) = run_ad_auto(
                &sc,
                &BackendSpec::Par {
                    workers: THREADS,
                    tuning,
                },
            );
            assert_eq!(oracle::digests_of(&plain.responses), reference);

            let sink = TraceSink::new();
            let mut builder = ParBuilder::new(sc.seed)
                .with_workers(THREADS)
                .with_tuning(tuning)
                .unwrap();
            let assembly = assemble_ad_auto(
                &sc,
                speculation,
                &mut TracingBuilder::new(&mut builder, sink.clone()),
            );
            let _ = builder.build().run();
            let sinks: Vec<CollectorSink> =
                assembly.responses.into_iter().map(|(_, s)| s).collect();
            assert_eq!(
                oracle::digests_of(&sinks),
                reference,
                "decorated run diverged (speculation={speculation})"
            );
            assert_eq!(assembly.report.stats.injected_operators, 3);
            let summary = sink.summary();
            assert_eq!(
                summary.family(GATE_FAMILY).instances,
                3,
                "gates are decorated too"
            );
            assert!(summary.family(REPORT_FAMILY).busy_ns > 0);
        }
    }
}
