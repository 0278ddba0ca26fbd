//! The `bloom_scaling` benchmark harness: the Bloom evaluation engine
//! swept over workloads, scales and evaluation modes.
//!
//! Four workloads cover the engine's cost regimes:
//!
//! * **tc** — transitive closure over a chain: deep recursion, where
//!   naive evaluation re-derives every shorter path on every iteration
//!   (O(n^4) probe work on a chain of n edges) and semi-naive touches
//!   each path once.
//! * **triangle** — a two-stage equi-join closing two-edge paths with a
//!   compound key: shallow recursion, so the win comes almost entirely
//!   from hash-join indexes over the nested-loop cross product.
//! * **adreport** — the paper's ad-report query (aggregation + join
//!   across strata): bounded fixpoints, measuring that the optimized
//!   engine does not regress the common non-recursive case.
//! * **adreport-ticks** — the same module fed its clicks 50 per tick, one
//!   request tick at the end: the only multi-tick workload, recording the
//!   per-tick work (`derivations + join_probes`) of the first and last
//!   tenth of ticks. A tick must cost what it changed, not what the log
//!   holds ([`BloomScalingReport::per_tick_work_tracks_delta`]).
//!
//! Every point records wall time **and** the engine's own work counters
//! ([`blazes_bloom::interp::TickStats`]); each optimized run is digest-
//! checked against the naive oracle's output. Results render as
//! `BENCH_bloom_scaling.json` and gate CI on the *counters* (semi-naive
//! derivations must not exceed naive's on the recursive workload, and its
//! per-tick work must not grow with the table), which are
//! machine-independent, plus an optional wall-clock speedup floor for
//! recorded runs.

use crate::json;
use blazes_bloom::interp::{EvalMode, ModuleInstance, TickOutput, TickStats};
use blazes_bloom::parse_module;
use blazes_dataflow::value::{Tuple, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The repository's transitive-closure example: the module the CLI, the
/// allocation gate and the benchmark's `bloom-tc` workload also run.
const TC_MODULE: &str = include_str!("../../../examples/blz/transitive_closure.blz");

const TRIANGLE_MODULE: &str = r#"
module Triangle {
  input edge(src, dst)
  output tri(a, b, c)
  table e1(src, dst)
  table e2(src, dst)
  table e3(src, dst)
  scratch hop(a, b, c)
  e1 <= edge
  e2 <= edge
  e3 <= edge
  hop <= (e1 * e2) on (e1.dst = e2.src) -> (e1.src, e1.dst, e2.dst)
  tri <= (hop * e3) on (hop.c = e3.src, hop.a = e3.dst) -> (hop.a, hop.b, hop.c)
}
"#;

const ADREPORT_MODULE: &str = r#"
module Report {
  input click(id, campaign)
  input request(id)
  output response(id, n)
  table log(id, campaign)
  scratch poor(id, n)
  log <= click
  poor <= log group by (log.id) agg count(*) as n having n < 1000
  response <~ (poor * request) on (poor.id = request.id) -> (poor.id, poor.n)
}
"#;

/// Configuration of one engine sweep.
#[derive(Debug, Clone)]
pub struct BloomScalingConfig {
    /// Chain lengths for the transitive-closure workload.
    pub tc_scales: Vec<usize>,
    /// Vertex counts for the triangle workload (edges = 4x vertices).
    pub triangle_scales: Vec<usize>,
    /// Click counts for the ad-report workload.
    pub adreport_scales: Vec<usize>,
    /// Click counts for the multi-tick ad-report workload (naive runs, as
    /// the per-tick oracle, at the smallest only).
    pub adreport_tick_scales: Vec<usize>,
    /// Timed repetitions per point (best-of).
    pub reps: u32,
}

impl Default for BloomScalingConfig {
    fn default() -> Self {
        BloomScalingConfig {
            tc_scales: vec![32, 64, 128],
            triangle_scales: vec![50, 100, 200],
            adreport_scales: vec![500, 1_000, 2_000],
            adreport_tick_scales: vec![2_000, 8_000, 32_000],
            reps: 2,
        }
    }
}

impl BloomScalingConfig {
    /// A fast configuration for CI smoke runs and tests: small scales,
    /// one repetition. The counter gates are scale-independent, so the
    /// smoke run still checks everything but wall-clock floors.
    #[must_use]
    pub fn smoke() -> Self {
        BloomScalingConfig {
            tc_scales: vec![24, 48],
            triangle_scales: vec![40],
            adreport_scales: vec![300],
            adreport_tick_scales: vec![1_000, 4_000],
            reps: 1,
        }
    }
}

/// Per-tick work of a multi-tick point: mean `derivations + join_probes`
/// of a click tick over the first and the last tenth of the click ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickWork {
    /// Ticks executed (click ticks plus the final request tick).
    pub ticks: usize,
    /// Mean work per tick over the first tenth.
    pub first_tenth: f64,
    /// Mean work per tick over the last tenth.
    pub last_tenth: f64,
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct BloomPoint {
    /// `"tc"`, `"triangle"`, `"adreport"` or `"adreport-ticks"`.
    pub workload: &'static str,
    /// Cores the machine that measured this point reported. Stamped into
    /// every record so mixed-provenance files stay self-describing even
    /// when points are spliced between JSON files.
    pub cores: usize,
    /// Workload scale (chain length, vertices, or clicks).
    pub scale: usize,
    /// `"naive"` or `"semi-naive"`.
    pub mode: String,
    /// Best wall-clock milliseconds over the configured repetitions.
    pub millis: f64,
    /// Engine work counters of the best repetition (summed over the ticks
    /// of a multi-tick point).
    pub stats: TickStats,
    /// Per-tick work, on multi-tick points.
    pub tick_work: Option<TickWork>,
    /// Did every repetition produce the naive oracle's exact output?
    pub correct: bool,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct BloomScalingReport {
    /// Cores the machine reported (`std::thread::available_parallelism`).
    pub cores: usize,
    /// Timed repetitions per point.
    pub reps: u32,
    /// All measured points.
    pub points: Vec<BloomPoint>,
    /// Free-form provenance notes carried into the emitted JSON.
    pub notes: Vec<String>,
}

impl BloomScalingReport {
    /// Look up a point.
    #[must_use]
    pub fn point(&self, workload: &str, scale: usize, mode: &str) -> Option<&BloomPoint> {
        self.points
            .iter()
            .find(|p| p.workload == workload && p.scale == scale && p.mode == mode)
    }

    /// The largest scale measured for a workload.
    #[must_use]
    pub fn max_scale(&self, workload: &str) -> Option<usize> {
        self.points
            .iter()
            .filter(|p| p.workload == workload)
            .map(|p| p.scale)
            .max()
    }

    /// The headline metric: naive wall time over semi-naive wall time on
    /// transitive closure at the largest measured scale.
    #[must_use]
    pub fn headline_speedup(&self) -> f64 {
        let Some(scale) = self.max_scale("tc") else {
            return 0.0;
        };
        match (
            self.point("tc", scale, "naive"),
            self.point("tc", scale, "semi-naive"),
        ) {
            (Some(n), Some(s)) if s.millis > 0.0 => n.millis / s.millis,
            _ => 0.0,
        }
    }

    /// Did every optimized point reproduce the naive oracle's output?
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.points.iter().all(|p| p.correct)
    }

    /// The machine-independent no-re-derivation claim: on every
    /// transitive-closure point, semi-naive evaluation derived at most as
    /// many tuples as naive evaluation at the same scale — and at the
    /// largest scale, strictly fewer than half.
    #[must_use]
    pub fn counters_confirm_no_rederivation(&self) -> bool {
        let Some(max) = self.max_scale("tc") else {
            return false;
        };
        self.points
            .iter()
            .filter(|p| p.workload == "tc" && p.mode == "naive")
            .all(|n| {
                self.point("tc", n.scale, "semi-naive").is_some_and(|s| {
                    s.stats.derivations <= n.stats.derivations
                        && (n.scale < max || s.stats.derivations * 2 < n.stats.derivations)
                })
            })
    }

    /// The machine-independent incrementality claim: on every semi-naive
    /// multi-tick point (and there is one), a tick late in the run does at
    /// most 1.5x the work of an early one — the ticks all carry the same
    /// 50 clicks, so anything more is work proportional to the table.
    #[must_use]
    pub fn per_tick_work_tracks_delta(&self) -> bool {
        let mut semi = self
            .points
            .iter()
            .filter(|p| p.mode == "semi-naive")
            .filter_map(|p| p.tick_work)
            .peekable();
        semi.peek().is_some() && semi.all(|w| w.last_tenth <= 1.5 * w.first_tenth)
    }

    /// Render as pretty-printed JSON (hand-rolled).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"bloom_scaling\",");
        let _ = writeln!(s, "  \"cores\": {},", self.cores);
        let _ = writeln!(s, "  \"reps\": {},", self.reps);
        let _ = writeln!(
            s,
            "  \"headline_tc_speedup_semi_vs_naive\": {:.3},",
            self.headline_speedup()
        );
        let _ = writeln!(
            s,
            "  \"counters_confirm_no_rederivation\": {},",
            self.counters_confirm_no_rederivation()
        );
        let _ = writeln!(
            s,
            "  \"per_tick_work_tracks_delta\": {},",
            self.per_tick_work_tracks_delta()
        );
        let _ = writeln!(s, "  \"all_correct\": {},", self.all_correct());
        let notes = self.notes.iter().map(|n| json::quoted(n));
        json::array(&mut s, "notes", notes, false);
        let points = self.points.iter().map(|p| {
            let tick_work = p.tick_work.map_or_else(String::new, |w| {
                format!(
                    "\"ticks\": {}, \"work_first_tenth\": {:.1}, \"work_last_tenth\": {:.1}, ",
                    w.ticks, w.first_tenth, w.last_tenth
                )
            });
            format!(
                "{{\"workload\": \"{}\", \"cores\": {}, \"scale\": {}, \"mode\": \"{}\", \
                 \"millis\": {:.3}, \"derivations\": {}, \"join_probes\": {}, \
                 \"fixpoint_iters\": {}, {tick_work}\"correct\": {}}}",
                p.workload,
                p.cores,
                p.scale,
                p.mode,
                p.millis,
                p.stats.derivations,
                p.stats.join_probes,
                p.stats.fixpoint_iters,
                p.correct
            )
        });
        json::array(&mut s, "points", points, true);
        let _ = writeln!(s, "}}");
        s
    }

    /// Render the human-readable table the bin prints.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# bloom_scaling: evaluation-engine sweep, {} core(s), best of {} rep(s)",
            self.cores, self.reps
        );
        let _ = writeln!(
            s,
            "# workload       scale   mode         ms      derivations   join-probes  iters"
        );
        for p in &self.points {
            let _ = writeln!(
                s,
                "{:14} {:6} {:11} {:9.2} {:13} {:13} {:6}{}{}",
                p.workload,
                p.scale,
                p.mode,
                p.millis,
                p.stats.derivations,
                p.stats.join_probes,
                p.stats.fixpoint_iters,
                p.tick_work.map_or_else(String::new, |w| format!(
                    "  work/tick {:.1} -> {:.1} over {} ticks",
                    w.first_tenth, w.last_tenth, w.ticks
                )),
                if p.correct { "" } else { "  DIGEST MISMATCH" },
            );
        }
        s
    }
}

/// A workload instance: module text plus the single tick of inputs.
struct Workload {
    name: &'static str,
    scale: usize,
    module: &'static str,
    inputs: BTreeMap<String, Vec<Tuple>>,
}

fn pair(a: i64, b: i64) -> Tuple {
    Tuple(vec![Value::Int(a), Value::Int(b)])
}

fn tc_workload(n: usize) -> Workload {
    let edges = (0..n).map(|i| pair(i as i64, i as i64 + 1)).collect();
    Workload {
        name: "tc",
        scale: n,
        module: TC_MODULE,
        inputs: BTreeMap::from([("edge".to_string(), edges)]),
    }
}

fn triangle_workload(v: usize) -> Workload {
    let edges = (0..4 * v)
        .map(|i| pair((i % v) as i64, ((i * 7 + 3) % v) as i64))
        .collect();
    Workload {
        name: "triangle",
        scale: v,
        module: TRIANGLE_MODULE,
        inputs: BTreeMap::from([("edge".to_string(), edges)]),
    }
}

fn adreport_workload(clicks: usize) -> Workload {
    let ids = (clicks / 8).max(1);
    let click_tuples = (0..clicks)
        .map(|i| pair((i % ids) as i64, (i % 7) as i64))
        .collect();
    let requests = (0..ids)
        .map(|i| Tuple(vec![Value::Int(i as i64)]))
        .collect();
    Workload {
        name: "adreport",
        scale: clicks,
        module: ADREPORT_MODULE,
        inputs: BTreeMap::from([
            ("click".to_string(), click_tuples),
            ("request".to_string(), requests),
        ]),
    }
}

fn mode_label(mode: EvalMode) -> String {
    match mode {
        EvalMode::Naive => "naive".to_string(),
        EvalMode::SemiNaive => "semi-naive".to_string(),
    }
}

fn run_once(w: &Workload, mode: EvalMode) -> (TickOutput, TickStats) {
    let m = parse_module(w.module).expect("bench module must parse");
    let mut inst = ModuleInstance::with_mode(m, mode).expect("bench module must stratify");
    let out = inst
        .tick(w.inputs.clone())
        .expect("bench tick must succeed");
    (out, inst.last_tick_stats())
}

/// Time one point: best-of-`reps` wall clock, counters from the best
/// repetition, output compared against the oracle on every repetition.
fn timed_point(
    w: &Workload,
    mode: EvalMode,
    expected: &TickOutput,
    reps: u32,
    cores: usize,
) -> BloomPoint {
    let mut best = f64::INFINITY;
    let mut stats = TickStats::default();
    let mut correct = true;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let (out, s) = run_once(w, mode);
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        if elapsed < best {
            best = elapsed;
            stats = s;
        }
        correct &= out == *expected;
    }
    BloomPoint {
        workload: w.name,
        cores,
        scale: w.scale,
        mode: mode_label(mode),
        millis: best,
        stats,
        tick_work: None,
        correct,
    }
}

/// Clicks per tick of the multi-tick workload (the ad report's batch).
const TICK_CLICKS: usize = 50;

/// `adreport-ticks`: the ad-report module over a whole run — the clicks
/// arrive [`TICK_CLICKS`] per tick, one request tick for every id closes.
struct TickWorkload {
    scale: usize,
    ticks: Vec<BTreeMap<String, Vec<Tuple>>>,
    /// The final tick's `response`, in closed form (no engine involved).
    response: Vec<Tuple>,
}

fn adreport_ticks_workload(clicks: usize) -> TickWorkload {
    let ids = (clicks / 8).max(1);
    // Distinct by construction: click `i` is the `i / ids`-th of its id.
    let tuples: Vec<Tuple> = (0..clicks)
        .map(|i| pair((i % ids) as i64, (i / ids) as i64))
        .collect();
    let mut ticks: Vec<_> = tuples
        .chunks(TICK_CLICKS)
        .map(|chunk| BTreeMap::from([("click".to_string(), chunk.to_vec())]))
        .collect();
    let requests = (0..ids)
        .map(|k| Tuple(vec![Value::Int(k as i64)]))
        .collect();
    ticks.push(BTreeMap::from([("request".to_string(), requests)]));
    TickWorkload {
        scale: clicks,
        ticks,
        // Id `k` is clicked by every i < clicks with i % ids == k.
        response: (0..ids)
            .map(|k| pair(k as i64, (clicks - k).div_ceil(ids) as i64))
            .collect(),
    }
}

/// Run the multi-tick workload once: every tick's output, every tick's
/// work, the cumulative counters.
fn run_ticks(w: &TickWorkload, mode: EvalMode) -> (Vec<TickOutput>, Vec<u64>, TickStats) {
    let m = parse_module(ADREPORT_MODULE).expect("bench module must parse");
    let mut inst = ModuleInstance::with_mode(m, mode).expect("bench module must stratify");
    let mut work = Vec::with_capacity(w.ticks.len());
    let outs = w
        .ticks
        .iter()
        .map(|inputs| {
            let out = inst.tick(inputs.clone()).expect("bench tick must succeed");
            let s = inst.last_tick_stats();
            work.push(s.derivations + s.join_probes);
            out
        })
        .collect();
    (outs, work, inst.cumulative_stats())
}

/// Time one multi-tick point. Every repetition's final response is checked
/// against the closed form, and against `oracle` (the naive run's per-tick
/// outputs) where one is given.
fn timed_ticks_point(
    w: &TickWorkload,
    mode: EvalMode,
    oracle: Option<&[TickOutput]>,
    reps: u32,
    cores: usize,
) -> BloomPoint {
    let mut best = f64::INFINITY;
    let mut stats = TickStats::default();
    let mut tick_work = None;
    let mut correct = true;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let (outs, work, s) = run_ticks(w, mode);
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        if elapsed < best {
            best = elapsed;
            stats = s;
        }
        correct &= outs.last().is_some_and(|o| o.on("response") == w.response)
            && oracle.is_none_or(|expected| outs == expected);
        // The closing request tick is not a click tick.
        let clicks = &work[..work.len() - 1];
        let tenth = (clicks.len() / 10).max(1);
        let mean = |ticks: &[u64]| ticks.iter().sum::<u64>() as f64 / ticks.len() as f64;
        tick_work = Some(TickWork {
            ticks: work.len(),
            first_tenth: mean(&clicks[..tenth]),
            last_tenth: mean(&clicks[clicks.len() - tenth..]),
        });
    }
    BloomPoint {
        workload: "adreport-ticks",
        cores,
        scale: w.scale,
        mode: mode_label(mode),
        millis: best,
        stats,
        tick_work,
        correct,
    }
}

/// Run the full sweep: every single-tick workload at every scale under
/// naive and semi-naive, digest-checked against naive; the multi-tick
/// workload under semi-naive, with naive beside it at the smallest scale.
#[must_use]
pub fn run_bloom_scaling(cfg: &BloomScalingConfig) -> BloomScalingReport {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut workloads = Vec::new();
    workloads.extend(cfg.tc_scales.iter().map(|&n| tc_workload(n)));
    workloads.extend(cfg.triangle_scales.iter().map(|&v| triangle_workload(v)));
    workloads.extend(cfg.adreport_scales.iter().map(|&c| adreport_workload(c)));

    let mut points = Vec::new();
    for w in &workloads {
        // The naive run is both a measured point and the oracle digest.
        let (expected, _) = run_once(w, EvalMode::Naive);
        points.push(timed_point(w, EvalMode::Naive, &expected, cfg.reps, cores));
        points.push(timed_point(
            w,
            EvalMode::SemiNaive,
            &expected,
            cfg.reps,
            cores,
        ));
    }
    let smallest = cfg.adreport_tick_scales.iter().copied().min();
    for &clicks in &cfg.adreport_tick_scales {
        let w = adreport_ticks_workload(clicks);
        // Naive re-scans the log every tick: affordable, and worth a row to
        // show what per-tick work looks like when it tracks the table,
        // at the smallest scale only.
        let oracle = (Some(clicks) == smallest).then(|| run_ticks(&w, EvalMode::Naive).0);
        if let Some(expected) = &oracle {
            points.push(timed_ticks_point(
                &w,
                EvalMode::Naive,
                Some(expected),
                cfg.reps,
                cores,
            ));
        }
        points.push(timed_ticks_point(
            &w,
            EvalMode::SemiNaive,
            oracle.as_deref(),
            cfg.reps,
            cores,
        ));
    }

    BloomScalingReport {
        cores,
        reps: cfg.reps,
        points,
        notes: vec![
            "wall-clock speedups are engine-algorithmic (semi-naive deltas + hash \
             indexes beat per-iteration re-derivation with nested loops), so they \
             hold on a single core"
                .to_string(),
            "derivation/probe counters come from the engine itself and are \
             machine-independent; CI gates on those rather than wall clock"
                .to_string(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_a_complete_gated_report() {
        let cfg = BloomScalingConfig::smoke();
        let report = run_bloom_scaling(&cfg);
        let workload_count =
            cfg.tc_scales.len() + cfg.triangle_scales.len() + cfg.adreport_scales.len();
        let modes = 2;
        // Multi-tick: semi-naive at every scale, naive at the smallest.
        let tick_points = cfg.adreport_tick_scales.len() + 1;
        assert_eq!(report.points.len(), workload_count * modes + tick_points);
        assert!(report.all_correct(), "an optimized engine diverged");
        assert!(
            report.per_tick_work_tracks_delta(),
            "a late tick did more work than an early one:\n{}",
            report.render_table()
        );
        assert!(
            report.counters_confirm_no_rederivation(),
            "semi-naive re-derived on transitive closure"
        );
        assert!(report.headline_speedup() > 0.0);
        assert!(
            report.points.iter().all(|p| p.cores == report.cores),
            "every record carries the measuring machine's core count"
        );
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"bloom_scaling\""));
        assert!(json.contains(&format!(
            "\"workload\": \"tc\", \"cores\": {},",
            report.cores
        )));
        assert!(json.contains("\"workload\": \"tc\""));
        assert!(json.contains("\"workload\": \"triangle\""));
        assert!(json.contains("\"workload\": \"adreport\""));
        assert!(json.contains("\"counters_confirm_no_rederivation\": true"));
        assert!(json.contains("\"workload\": \"adreport-ticks\""));
        assert!(json.contains("\"per_tick_work_tracks_delta\": true"));
        let table = report.render_table();
        assert!(table.contains("semi-naive"));
    }

    #[test]
    fn semi_naive_counters_dominate_on_recursion() {
        let report = run_bloom_scaling(&BloomScalingConfig {
            tc_scales: vec![48],
            triangle_scales: vec![],
            adreport_scales: vec![],
            adreport_tick_scales: vec![],
            reps: 1,
        });
        let naive = report.point("tc", 48, "naive").unwrap();
        let semi = report.point("tc", 48, "semi-naive").unwrap();
        assert!(semi.stats.derivations * 2 < naive.stats.derivations);
        assert!(semi.stats.join_probes * 10 < naive.stats.join_probes);
    }

    #[test]
    fn per_tick_work_gate_separates_incremental_from_whole_state() {
        let report = run_bloom_scaling(&BloomScalingConfig {
            tc_scales: vec![],
            triangle_scales: vec![],
            adreport_scales: vec![],
            adreport_tick_scales: vec![1_000],
            reps: 1,
        });
        let naive = report.point("adreport-ticks", 1_000, "naive").unwrap();
        let semi = report.point("adreport-ticks", 1_000, "semi-naive").unwrap();
        assert!(naive.correct && semi.correct);
        let (n, s) = (naive.tick_work.unwrap(), semi.tick_work.unwrap());
        assert_eq!((n.ticks, s.ticks), (21, 21), "20 click ticks + 1 request");
        // Every click tick is 50 derivations (`log <= click`) plus 50 select
        // probes and 50 aggregate-delta probes, whatever the log holds.
        assert_eq!((s.first_tenth, s.last_tenth), (150.0, 150.0));
        assert!(report.per_tick_work_tracks_delta());
        // The whole-state oracle is what the gate exists to reject.
        assert!(n.last_tenth > 1.5 * n.first_tenth);
        // Without a multi-tick point the claim is not made.
        let empty = BloomScalingReport {
            points: Vec::new(),
            ..report
        };
        assert!(!empty.per_tick_work_tracks_delta());
    }
}
