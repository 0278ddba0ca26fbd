//! The `bloom_scaling` benchmark harness: the Bloom evaluation engine
//! swept over workloads, scales and evaluation modes.
//!
//! Three workloads cover the engine's cost regimes:
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
//!
//! Every point records wall time **and** the engine's own work counters
//! ([`blazes_bloom::interp::TickStats`]); each optimized run is digest-
//! checked against the naive oracle's output. Results render as
//! `BENCH_bloom_scaling.json` and gate CI on the *counters* (semi-naive
//! derivations must not exceed naive's on the recursive workload), which
//! are machine-independent, plus an optional wall-clock speedup floor
//! for recorded runs.

use blazes_bloom::interp::{EvalMode, ModuleInstance, TickOutput, TickStats};
use blazes_bloom::parse_module;
use blazes_dataflow::value::{Tuple, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const TC_MODULE: &str = r#"
module TC {
  input edge(src, dst)
  output path(src, dst)
  table e(src, dst)
  scratch p(src, dst)
  e <= edge
  p <= e
  p <= (p * e) on (p.dst = e.src) -> (p.src, e.dst)
  path <= p
}
"#;

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
    /// Timed repetitions per point (best-of).
    pub reps: u32,
}

impl Default for BloomScalingConfig {
    fn default() -> Self {
        BloomScalingConfig {
            tc_scales: vec![32, 64, 128],
            triangle_scales: vec![50, 100, 200],
            adreport_scales: vec![500, 1_000, 2_000],
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
            reps: 1,
        }
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct BloomPoint {
    /// `"tc"`, `"triangle"` or `"adreport"`.
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
    /// Engine work counters of the best repetition.
    pub stats: TickStats,
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

    /// Render as pretty-printed JSON (hand-rolled; the vendored serde
    /// shim has no serializer).
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
        let _ = writeln!(s, "  \"all_correct\": {},", self.all_correct());
        let _ = writeln!(s, "  \"notes\": [");
        for (i, note) in self.notes.iter().enumerate() {
            let comma = if i + 1 == self.notes.len() { "" } else { "," };
            let escaped = note.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(s, "    \"{escaped}\"{comma}");
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 == self.points.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"workload\": \"{}\", \"cores\": {}, \"scale\": {}, \"mode\": \"{}\", \
                 \"millis\": {:.3}, \"derivations\": {}, \"join_probes\": {}, \
                 \"fixpoint_iters\": {}, \"correct\": {}}}{comma}",
                p.workload,
                p.cores,
                p.scale,
                p.mode,
                p.millis,
                p.stats.derivations,
                p.stats.join_probes,
                p.stats.fixpoint_iters,
                p.correct
            );
        }
        let _ = writeln!(s, "  ]");
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
            "# workload  scale   mode         ms      derivations   join-probes  iters"
        );
        for p in &self.points {
            let _ = writeln!(
                s,
                "{:9} {:6} {:11} {:9.2} {:13} {:13} {:6}{}",
                p.workload,
                p.scale,
                p.mode,
                p.millis,
                p.stats.derivations,
                p.stats.join_probes,
                p.stats.fixpoint_iters,
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
        correct,
    }
}

/// Run the full sweep: every workload at every scale under naive and
/// semi-naive, digest-checked against naive.
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
        assert_eq!(report.points.len(), workload_count * modes);
        assert!(report.all_correct(), "an optimized engine diverged");
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
        let table = report.render_table();
        assert!(table.contains("semi-naive"));
    }

    #[test]
    fn semi_naive_counters_dominate_on_recursion() {
        let report = run_bloom_scaling(&BloomScalingConfig {
            tc_scales: vec![48],
            triangle_scales: vec![],
            adreport_scales: vec![],
            reps: 1,
        });
        let naive = report.point("tc", 48, "naive").unwrap();
        let semi = report.point("tc", 48, "semi-naive").unwrap();
        assert!(semi.stats.derivations * 2 < naive.stats.derivations);
        assert!(semi.stats.join_probes * 10 < naive.stats.join_probes);
    }
}
