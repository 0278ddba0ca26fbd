//! The orchestrator: spawns every rep as a fresh child process of this
//! binary under a watchdog, turns rep results into the metrics of one
//! workload, and renders them.
//!
//! A fresh process per rep gives every rep a clean heap (so `VmHWM` is the
//! rep's own) and lets a hung run — the dist backend can block forever in a
//! socket send, see the README — be killed together with the worker
//! processes it spawned, charged as failed, and left behind.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::oracle::{self, Digests};
use crate::rep::{RepResult, ENV_TMP};
use crate::stats::{max, median, min};
use crate::trace::Span;
use crate::workloads::{ad_scenario, Size, Workload, THREADS};
use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Reps a measurement makes at least, however short its window.
const MIN_REPS: usize = 3;
/// One measurement (an invocation, in the contract's form) must end within
/// the contract's 180 s: no rep starts after [`MEASUREMENT_BUDGET`], and no
/// watchdog waits past [`MEASUREMENT_LIMIT`].
const MEASUREMENT_BUDGET: Duration = Duration::from_secs(120);
const MEASUREMENT_LIMIT: Duration = Duration::from_secs(165);

extern "C" {
    /// `kill(2)`: the only way to signal a whole process group.
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// SIGKILL every process of group `pgid`.
fn kill_group(pgid: i32) {
    // SAFETY: `kill` takes two plain integers and touches no memory of
    // ours; a negative pid addresses the process group the rep child was
    // made leader of at spawn, which contains only the rep and the dist
    // workers it started.
    unsafe { kill(-pgid, SIGKILL) };
}

/// After the rep child has been reaped: kill whatever it left in its
/// process group (dist workers a crashed or killed rep orphaned) and wait,
/// bounded, until the group is empty.
fn sweep_group(pgid: i32) {
    kill_group(pgid);
    let deadline = Instant::now() + Duration::from_secs(2);
    // SAFETY: as in `kill_group`; signal 0 only probes for the group's
    // existence.
    while unsafe { kill(-pgid, 0) } == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The simulator's reference answer for one `adreport-seal-par` input.
struct SealReference {
    seed: u64,
    size: Size,
    digests: Digests,
    file: PathBuf,
    /// Layer metrics of the single-threaded reference run.
    sim_layer: BTreeMap<String, f64>,
}

/// One benchmark process: the scratch directory, the span log, and the
/// reference answers computed so far.
pub struct Bench {
    exe: PathBuf,
    tmp: PathBuf,
    origin: Instant,
    spans: Vec<Span>,
    reps_spawned: u64,
    seal_reference: Option<SealReference>,
}

impl Bench {
    /// Set up the scratch directory next to the executable — inside the
    /// build directory, so inside the checkout and ignored by git.
    pub fn new() -> std::io::Result<Bench> {
        let exe = std::env::current_exe()?;
        let dir = exe.parent().unwrap_or(Path::new(".")).to_path_buf();
        // Relative to the working directory when possible: Unix socket
        // paths are capped near 100 bytes and the dist backend binds its
        // sockets under TMPDIR.
        let dir = std::env::current_dir()
            .ok()
            .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
            .unwrap_or(dir);
        let tmp = dir.join(format!("bt{}", std::process::id()));
        std::fs::create_dir_all(&tmp)?;
        Ok(Bench {
            exe,
            tmp,
            origin: Instant::now(),
            spans: Vec::new(),
            reps_spawned: 0,
            seal_reference: None,
        })
    }

    /// The reference answer for `adreport-seal-par` at `(seed, size)`,
    /// computed on first use, outside every timed window.
    fn seal_reference(&mut self, seed: u64, size: Size) -> &SealReference {
        let stale = self
            .seal_reference
            .as_ref()
            .is_none_or(|r| r.seed != seed || r.size != size);
        if stale {
            let sc = ad_scenario(Workload::AdSealPar, seed, size);
            let (digests, wall, stats) = oracle::sim_reference(&sc);
            let file = self.tmp.join("seal-reference.json");
            let json = Json::Arr(
                digests
                    .iter()
                    .map(|r| Json::Arr(r.iter().map(|m| Json::str(m.clone())).collect()))
                    .collect(),
            );
            std::fs::write(&file, json.to_string()).expect("scratch directory is writable");
            let seconds = wall.as_secs_f64().max(f64::MIN_POSITIVE);
            let sim_layer = BTreeMap::from([
                (
                    "sim.baseline_rps".to_string(),
                    sc.workload.total_entries() as f64 / seconds,
                ),
                (
                    "sim.events_per_s".to_string(),
                    stats.events_processed as f64 / seconds,
                ),
            ]);
            self.seal_reference = Some(SealReference {
                seed,
                size,
                digests,
                file,
                sim_layer,
            });
        }
        self.seal_reference.as_ref().expect("just computed")
    }

    /// Run one rep in a child process under the watchdog.
    fn rep(
        &mut self,
        workload: Workload,
        seed: u64,
        size: Size,
        traced: bool,
        limit: Instant,
    ) -> Result<RepResult, String> {
        let expect =
            (workload == Workload::AdSealPar).then(|| self.seal_reference(seed, size).file.clone());
        self.reps_spawned += 1;
        let rep_index = self.reps_spawned;
        let dir = self.tmp.join(format!("r{rep_index}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch directory: {e}"))?;

        let mut cmd = Command::new(&self.exe);
        cmd.args(["--rep", "--workload", workload.name()])
            .args(["--seed", &seed.to_string()]);
        if size == Size::Smoke {
            cmd.arg("--smoke");
        }
        if traced {
            cmd.arg("--traced");
        }
        if let Some(file) = &expect {
            cmd.arg("--expect").arg(file);
        }
        cmd.env(ENV_TMP, &dir)
            .env("TMPDIR", &dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .process_group(0);

        // Ten times the expected time; a traced rep also replays layers.
        let scale = if size == Size::Smoke { 0.2 } else { 1.0 };
        let expected = workload.expected_rep_seconds() * scale * if traced { 4.0 } else { 1.0 };
        let timeout = Duration::from_secs_f64((10.0 * expected).max(5.0))
            .min(limit.saturating_duration_since(Instant::now()));

        let start = self.origin.elapsed();
        let mut child = cmd.spawn().map_err(|e| format!("spawning the rep: {e}"))?;
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let (done, finished) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stdout.read_to_string(&mut text);
            let _ = done.send(());
            text
        });
        let timed_out = finished.recv_timeout(timeout).is_err();
        let pgid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
        if timed_out {
            kill_group(pgid);
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the rep: {e}"))?;
        sweep_group(pgid);
        let text = reader
            .join()
            .map_err(|_| "the pipe reader panicked".to_string())?;
        let wall = self.origin.elapsed() - start;
        let _ = std::fs::remove_dir_all(&dir);

        if timed_out {
            return Err(format!(
                "watchdog: no result after {:.0} s, killed",
                timeout.as_secs_f64()
            ));
        }
        if !status.success() {
            return Err(format!("the rep exited with {status}"));
        }
        let result = text
            .lines()
            .last()
            .and_then(|line| Json::parse(line).ok())
            .and_then(|json| RepResult::from_json(&json))
            .ok_or_else(|| "the rep printed no readable result".to_string())?;
        self.record_spans(workload, rep_index, traced, start, wall, &result);
        Ok(result)
    }

    /// One root span per (workload, rep); the rep's phases nest under it.
    fn record_spans(
        &mut self,
        workload: Workload,
        rep_index: u64,
        traced: bool,
        start: Duration,
        wall: Duration,
        result: &RepResult,
    ) {
        let root = self.spans.len() as u64 + 1;
        let start_us = start.as_micros() as u64;
        self.spans.push(Span {
            id: root,
            parent: 0,
            root,
            name: format!(
                "rep {} #{rep_index}{}",
                workload.name(),
                if traced { " traced" } else { "" }
            ),
            start_us,
            dur_us: wall.as_micros() as u64,
        });
        for (name, phase_start, dur) in &result.phases {
            self.spans.push(Span {
                id: self.spans.len() as u64 + 1,
                parent: root,
                root,
                name: name.clone(),
                start_us: start_us + phase_start,
                dur_us: *dur,
            });
        }
    }

    /// The timed, untraced reps of one workload: as many as fit in
    /// `seconds` of wall time, at least [`MIN_REPS`].
    pub fn measure(
        &mut self,
        workload: Workload,
        seed: u64,
        size: Size,
        seconds: f64,
    ) -> Measurement {
        self.measure_within(workload, seed, size, seconds, Instant::now())
    }

    /// [`Bench::measure`] for a measurement that began at `started`.
    fn measure_within(
        &mut self,
        workload: Workload,
        seed: u64,
        size: Size,
        seconds: f64,
        started: Instant,
    ) -> Measurement {
        if workload == Workload::AdSealPar {
            self.seal_reference(seed, size); // before the window opens
        }
        let mut m = Measurement::new(workload);
        let window = Instant::now();
        while (m.reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < seconds)
            && started.elapsed() < MEASUREMENT_BUDGET
        {
            match self.rep(workload, seed, size, false, started + MEASUREMENT_LIMIT) {
                Ok(rep) => m.reps.push(rep),
                Err(why) => {
                    // A stuck or crashed rep fails everything it owed; one
                    // is enough to call the workload, move on.
                    m.errors.push(why);
                    break;
                }
            }
        }
        let reference = self.seal_reference.as_ref().map(|r| &r.digests);
        m.settle(
            seed,
            size,
            reference.filter(|_| workload == Workload::AdSealPar),
        );
        m
    }

    /// The traced pass of one workload: a few untraced reps for the
    /// overhead baseline, then one traced rep with the layer replays.
    pub fn trace(
        &mut self,
        workload: Workload,
        seed: u64,
        size: Size,
        seconds: f64,
    ) -> Measurement {
        let started = Instant::now();
        let mut m = self.measure_within(workload, seed, size, seconds / 2.0, started);
        if !m.errors.is_empty() {
            return m;
        }
        match self.rep(workload, seed, size, true, started + MEASUREMENT_LIMIT) {
            Ok(traced) => {
                let untraced = median(&m.reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
                let mut layer = traced.layer.clone();
                for (name, count) in &traced.counters {
                    layer.entry(name.clone()).or_insert(*count as f64);
                }
                if untraced > 0.0 {
                    layer.insert("trace.overhead_ratio".to_string(), traced.run_s / untraced);
                }
                if workload == Workload::AdSealPar {
                    if let Some(reference) = &self.seal_reference {
                        layer.extend(reference.sim_layer.clone());
                    }
                }
                m.attempted += traced.attempted;
                m.failed += traced.failed;
                m.notes.extend(traced.notes.iter().cloned());
                m.layer = Some(layer);
            }
            Err(why) => {
                m.errors.push(format!("traced rep: {why}"));
                let owed = oracle::expected_ops(workload, seed, size, None);
                m.attempted += owed;
                m.failed += owed;
            }
        }
        m
    }

    /// Write the report to `out` and the spans to its sibling
    /// `*.trace.json`.
    pub fn write_report(&self, out: &Path, report: &Json) -> std::io::Result<()> {
        std::fs::write(out, format!("{report}\n"))?;
        let trace = Json::obj([
            (
                "about",
                Json::str(
                    "One root span per (workload, rep) with parent 0; its phases \
                     (setup.generate, setup.analyze, setup.assemble, run, check) carry its id in \
                     `parent` and `root`. Times are microseconds since the benchmark started.",
                ),
            ),
            (
                "spans",
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
        ]);
        std::fs::write(out.with_extension("trace.json"), format!("{trace}\n"))
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// What the reps of one workload added up to.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The workload measured.
    pub workload: Workload,
    /// Results of the untraced reps that finished.
    pub reps: Vec<RepResult>,
    /// Why a rep did not finish, when one did not.
    pub errors: Vec<String>,
    /// Expected output tuples over every rep, finished or not.
    pub attempted: u64,
    /// Of those, missing or wrong.
    pub failed: u64,
    /// Oracle notes of reps that failed operations.
    pub notes: Vec<String>,
    /// Per-layer metrics, after a traced pass.
    pub layer: Option<BTreeMap<String, f64>>,
}

impl Measurement {
    fn new(workload: Workload) -> Measurement {
        Measurement {
            workload,
            reps: Vec::new(),
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            layer: None,
        }
    }

    /// Add up operations: finished reps report their own; a rep that
    /// errored, panicked or timed out fails everything it owed.
    fn settle(&mut self, seed: u64, size: Size, reference: Option<&Digests>) {
        for rep in &self.reps {
            self.attempted += rep.attempted;
            self.failed += rep.failed;
            self.notes.extend(rep.notes.iter().cloned());
        }
        if !self.errors.is_empty() {
            let owed = oracle::expected_ops(self.workload, seed, size, reference);
            self.attempted += owed * self.errors.len() as u64;
            self.failed += owed * self.errors.len() as u64;
        }
    }

    /// Did every operation of every rep succeed?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && !self.reps.is_empty()
    }

    /// Per-rep samples of an end-to-end metric.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        self.reps
            .iter()
            .map(|rep| match metric {
                "throughput_rps" => rep.throughput_rps(),
                "setup_s" => rep.setup_s(),
                "peak_rss_mb" => rep.rss_mb,
                other => panic!("{other} is not an end-to-end metric"),
            })
            .collect()
    }

    /// The reported value of an end-to-end metric: the median over reps.
    pub fn value(&self, metric: &str) -> f64 {
        median(&self.samples(metric))
    }

    /// Counters that must repeat exactly, from the first finished rep, and
    /// whether every rep of this measurement agreed on them.
    pub fn counters(&self) -> (BTreeMap<String, u64>, bool) {
        let first = self
            .reps
            .first()
            .map(|r| r.counters.clone())
            .unwrap_or_default();
        let agree = self.reps.iter().all(|r| r.counters == first);
        (first, agree)
    }

    /// The metrics object of the contract's result line.
    fn metrics_json(&self, traced: bool) -> Json {
        let entry = |def: &MetricDef, value: f64| {
            (
                def.name.to_string(),
                Json::obj([("value", Json::from(value)), ("unit", Json::str(def.unit))]),
            )
        };
        if traced {
            let layer = self.layer.clone().unwrap_or_default();
            Json::Obj(
                PER_LAYER
                    .iter()
                    .map(|def| entry(def, layer.get(def.name).copied().unwrap_or(0.0)))
                    .collect(),
            )
        } else {
            Json::Obj(
                END_TO_END
                    .iter()
                    .map(|def| entry(def, self.value(def.name)))
                    .collect(),
            )
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, traced: bool) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", self.metrics_json(traced)),
        ])
    }

    /// The fuller record `--out` writes: the result line plus per-rep
    /// samples, counters and failure notes.
    pub fn report(&self, seed: u64, traced: bool) -> Json {
        let (counters, counters_agree) = self.counters();
        let samples =
            |metric: &str| Json::Arr(self.samples(metric).into_iter().map(Json::from).collect());
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::from(seed)),
            ("cores", Json::from(cores() as u64)),
            ("threads", Json::from(THREADS as u64)),
            ("reps", Json::from(self.reps.len() as u64)),
            ("result", self.result_line(traced)),
            (
                "samples",
                Json::Obj(
                    END_TO_END
                        .iter()
                        .map(|d| (d.name.to_string(), samples(d.name)))
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    counters
                        .into_iter()
                        .map(|(k, v)| (k, Json::from(v)))
                        .collect(),
                ),
            ),
            ("counters_agree", Json::from(counters_agree)),
            (
                "errors",
                Json::Arr(
                    self.errors
                        .iter()
                        .chain(&self.notes)
                        .map(|e| Json::str(e.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Print every metric by name with its unit, for a person.
    pub fn print(&self, seed: u64, traced: bool) {
        let w = self.workload;
        println!(
            "workload {}  seed {seed}  cores {}  threads {THREADS}  untraced reps {}",
            w.name(),
            cores(),
            self.reps.len()
        );
        let records = self.reps.first().map_or(0, |r| r.records);
        for def in &END_TO_END {
            let samples = self.samples(def.name);
            println!(
                "  {:<34} {:>14} {:<6} {} is better; median of {} reps (min {}, max {})",
                def.name,
                readable(median(&samples)),
                def.unit,
                def.better,
                samples.len(),
                readable(min(&samples)),
                readable(max(&samples)),
            );
        }
        println!(
            "  one record = one of the {records} {} a run is fed",
            w.record_noun()
        );
        if traced {
            let layer = self.layer.clone().unwrap_or_default();
            for def in &PER_LAYER {
                let exact = if def.exact { "exact; " } else { "" };
                match layer.get(def.name) {
                    Some(value) => println!(
                        "  {:<34} {:>14} {:<6} {exact}moves {}",
                        def.name,
                        readable(*value),
                        def.unit,
                        def.moves
                    ),
                    None => println!(
                        "  {:<34} {:>14} {:<6} {}",
                        def.name,
                        "n/a",
                        def.unit,
                        absent_reason(def.name, w)
                    ),
                }
            }
        } else {
            let (counters, agree) = self.counters();
            let agree = if agree { "" } else { "; REPS DISAGREE" };
            for (name, value) in &counters {
                println!("  {name:<34} {value:>14} count  exact{agree}");
            }
        }
        println!(
            "  operations attempted {}  failed {}",
            self.attempted, self.failed
        );
        for problem in self.errors.iter().chain(&self.notes) {
            println!("  FAILED: {problem}");
        }
    }
}

/// A value for people: four decimals, or three significant digits in
/// scientific notation when that would print as zero.
pub fn readable(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.3e}")
    } else {
        format!("{value:.4}")
    }
}

/// Cores the machine offers, stamped next to every result.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Why a per-layer metric has no value on `workload`.
pub fn absent_reason(metric: &str, workload: Workload) -> &'static str {
    let layer = metric.split('.').next().unwrap_or(metric);
    match (layer, workload) {
        (_, _) if metric == "trace.overhead_ratio" => "no traced rep finished",
        ("core", _) => "bloom-tc runs no dataflow graph",
        ("bloom", _) => "no Bloom module on this workload's path",
        ("coord", _) if metric.contains("seal") => "no seal protocol on this workload's path",
        ("coord", _) => "no sequencer on this workload's path",
        ("autocoord", Workload::BloomTc) => "bloom-tc assembles no topology",
        ("autocoord", _) => "no seal gate was injected",
        ("par", Workload::WordcountDist) => "the workers' ParStats stay in the worker processes",
        ("par", _) => "single-threaded engine, no par runtime",
        ("storm", _) => "not a Storm topology",
        ("dist" | "wire" | "recover", _) => "single-process run, nothing crosses a byte boundary",
        ("sim", _) => "the simulator is the oracle of adreport-seal-par only",
        _ => "not measured on this workload",
    }
}

/// Regression bounds of the end-to-end metrics, from `BENCHMARK.json`.
pub fn bounds_from(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "an end_to_end entry lacks name or bound".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished_rep() -> RepResult {
        RepResult {
            records: 40_000,
            run_s: 1.6,
            setup_samples_s: vec![0.006, 0.005, 0.007],
            rss_mb: 30.5,
            attempted: 60,
            failed: 0,
            counters: BTreeMap::from([("par.events".to_string(), 305_245)]),
            ..RepResult::default()
        }
    }

    fn measurement(reps: Vec<RepResult>) -> Measurement {
        let mut m = Measurement::new(Workload::AdOrderPar);
        m.reps = reps;
        m.settle(0, Size::Smoke, None);
        m
    }

    /// The names `BENCHMARK.json` promises, per list.
    fn promised(list: &str) -> Vec<(String, String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
        doc.get(list)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    #[test]
    fn result_lines_parse_and_carry_every_promised_metric() {
        let mut m = measurement(vec![finished_rep(), finished_rep()]);
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            if traced {
                m.layer = Some(BTreeMap::from([("par.events".to_string(), 305_245.0)]));
            }
            let line = Json::parse(&m.result_line(traced).to_string()).expect("result line parses");
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(120));
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            let promised = promised(list);
            assert_eq!(metrics.len(), promised.len());
            for ((name, value), (want_name, want_unit, _)) in metrics.iter().zip(&promised) {
                assert_eq!(name, want_name, "metric order follows BENCHMARK.json");
                assert_eq!(
                    value.get("unit").and_then(Json::as_str),
                    Some(want_unit.as_str())
                );
                assert!(value.get("value").and_then(Json::as_f64).is_some());
            }
        }
        assert_eq!(m.value("throughput_rps"), 25_000.0);
        assert_eq!(m.value("setup_s"), 0.006);
    }

    #[test]
    fn benchmark_json_matches_the_catalogue_and_the_workloads() {
        for (list, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(promised(list), want, "{list} differs from the catalogue");
        }
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = Json::parse(&text).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        let bounds = bounds_from(&text).unwrap();
        assert!(bounds.values().all(|b| *b > 0.0 && *b <= 0.25));
        assert_eq!(bounds.len(), END_TO_END.len());
    }

    #[test]
    fn a_rep_that_died_fails_everything_it_owed() {
        let mut m = Measurement::new(Workload::AdOrderPar);
        m.reps = vec![finished_rep()];
        m.errors = vec!["watchdog: no result after 25 s, killed".to_string()];
        m.settle(0, Size::Smoke, None);
        assert_eq!((m.attempted, m.failed), (120, 60));
        assert!(!m.correct());
        let line = m.result_line(false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(60));
    }

    #[test]
    fn every_absent_metric_has_a_reason() {
        for w in Workload::ALL {
            for def in &PER_LAYER {
                assert!(!absent_reason(def.name, w).is_empty());
            }
        }
        assert_eq!(
            absent_reason("par.events", Workload::WordcountDist),
            "the workers' ParStats stay in the worker processes"
        );
    }
}
