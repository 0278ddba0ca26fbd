//! The `par_scaling` benchmark harness: heavy-compute workloads swept over
//! worker counts, with the seeded simulator as the single-threaded
//! baseline.
//!
//! Three workloads from [`blazes_apps::heavy`]:
//!
//! * **uniform** — evenly distributed keys; measures how the parallel
//!   executor scales with workers against the simulator.
//! * **skewed** — one Zipf-dominated key partition; measures how well the
//!   shared run queue spreads it (per-worker event balance).
//! * **fanin** — many light producers into one consumer; measures the
//!   mailbox hot path rather than compute.
//!
//! Results render as `BENCH_par_scaling.json` and gate CI: the speedup of
//! the 4-worker run over the simulator must not drop below a
//! recorded floor. The floor is scaled by the machine's core count
//! ([`effective_floor`]): parallel speedup is physics-bound by available
//! cores, so a 1-core runner only checks for parity with the simulator
//! while a 4-core runner enforces the real multiple.

use crate::json;
use blazes_apps::adreport::AdScenario;
use blazes_apps::autocoord::{response_digests, run_ad_auto};
use blazes_apps::heavy::{
    expected_digest, expected_fanin_digest, run_fanin, run_heavy, FaninConfig, HeavyConfig,
};
use blazes_apps::queries::ReportQuery;
use blazes_apps::workload::{CampaignPlacement, ClickWorkload};
use blazes_dataflow::backend::{BackendRunStats, BackendSpec};
use blazes_dataflow::message::Message;
use blazes_dataflow::par::ParTuning;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Configuration of one scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Total records per workload.
    pub records: usize,
    /// Hash rounds per record (per-record CPU weight).
    pub hash_rounds: u32,
    /// Worker counts to sweep.
    pub worker_counts: Vec<usize>,
    /// Timed repetitions per point (best-of).
    pub reps: u32,
    /// Records for the fan-in contention microbench (small payloads, one
    /// consumer — measures the mailbox itself rather than compute).
    pub fanin_records: usize,
    /// Producer instances of the fan-in microbench.
    pub fanin_producers: usize,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            records: 60_000,
            hash_rounds: 384,
            worker_counts: vec![1, 2, 4, 8],
            reps: 2,
            fanin_records: 120_000,
            fanin_producers: 16,
        }
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// `"uniform"`, `"skewed"` or `"fanin"`.
    pub workload: &'static str,
    /// Cores the machine that measured this point reported. Stamped into
    /// every record so mixed-provenance files are self-describing and the
    /// overwrite guard can tell a laptop sweep from a CI-runner sweep.
    pub cores: usize,
    /// Worker threads.
    pub workers: usize,
    /// Best wall-clock milliseconds over the configured repetitions.
    pub millis: f64,
    /// Simulator wall time of the same workload over this point's time.
    pub speedup_vs_sim: f64,
    /// Max-over-mean worker event balance (1.0 = even).
    pub balance: f64,
    /// Total idle waits on the run queue's condvar across workers.
    pub parks: u64,
    /// Total notifies this run's worker pushes sent to idle peers.
    pub wakeups: u64,
    /// Mailbox pushes over processed events: each activation pushes one
    /// run per destination, so this is the machine-independent measure of
    /// how much cross-thread traffic batching saved (1.0 would be a push
    /// per event).
    pub pushes_per_event: f64,
    /// Median per-tuple source-to-sink latency, microseconds, from one
    /// extra traced repetition (the timed reps run untraced). `None`
    /// (JSON `null`) below two samples: the fan-in consumer emits one
    /// summary tuple on the last EOS, and that one arrival times
    /// last-EOS-to-sink, not a distribution of tuple latencies.
    pub lat_p50_us: Option<f64>,
    /// 99th-percentile per-tuple latency, microseconds; `None` as above.
    pub lat_p99_us: Option<f64>,
    /// 99.9th-percentile per-tuple latency, microseconds; `None` as above.
    pub lat_p999_us: Option<f64>,
    /// Samples behind the latency percentiles (sink arrivals observed by
    /// the traced repetition; 0 means the probe saw no sinks).
    pub lat_samples: u64,
    /// Did the run produce exactly the expected digest?
    pub correct: bool,
}

/// Tuple-latency summary of one traced repetition, read from its
/// `ParStats::latency`.
struct LatencyProbe {
    samples: u64,
    /// p50, p99 and p999 in microseconds, when there are at least two
    /// samples to take percentiles of.
    percentiles: Option<[f64; 3]>,
}

/// Serializes traced repetitions: enabling tracing is process-wide, so
/// concurrent sweeps (the test suite) must not switch it off under each
/// other's probes.
static OBS_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run one extra repetition with tracing enabled and read the per-tuple
/// source-to-sink latency histogram its sinks populated; it covers that
/// repetition alone. Trace rings are left alone so a `--trace` export
/// still sees the whole bench run. The previous enablement state is
/// restored afterwards, so the timed repetitions stay untraced unless the
/// caller opted in.
fn probe_latency(run: impl FnOnce() -> (BTreeSet<Message>, BackendRunStats)) -> LatencyProbe {
    let _gate = OBS_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let obs = blazes_obs::global();
    let was_enabled = obs.enabled();
    obs.set_enabled(true);
    let (_, stats) = run();
    obs.set_enabled(was_enabled);
    let snap = stats.as_par().and_then(|p| p.latency).unwrap_or_default();
    LatencyProbe {
        samples: snap.count,
        percentiles: (snap.count > 1)
            .then(|| [snap.p50, snap.p99, snap.p999].map(|ns| ns as f64 / 1e3)),
    }
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Cores the machine reported (`std::thread::available_parallelism`).
    pub cores: usize,
    /// Records per workload.
    pub records: usize,
    /// Hash rounds per record.
    pub hash_rounds: u32,
    /// Simulator baseline for the uniform workload, milliseconds.
    pub sim_uniform_ms: f64,
    /// Simulator baseline for the skewed workload, milliseconds.
    pub sim_skewed_ms: f64,
    /// Simulator baseline for the fan-in contention workload, milliseconds.
    pub sim_fanin_ms: f64,
    /// All measured parallel points.
    pub points: Vec<ScalingPoint>,
    /// The time-warp race, when the caller ran it
    /// ([`run_speculation_race`]).
    pub speculation: Option<SpeculationRace>,
    /// Free-form provenance notes carried into the emitted JSON (e.g.
    /// before/after context for executor changes the numbers reflect).
    pub notes: Vec<String>,
}

/// Blocking seal coordination raced against time-warp speculation on the
/// ad-reporting scenario with a straggling ad server.
///
/// Both runs execute the *same* auto-coordinated topology under virtual
/// service times ([`ParTuning::with_virtual_service_ns`]): ad server 0
/// carries extra per-message service, so its seal punctuations lag and the
/// blocking `SealGate` stalls every covered partition on its vote. The
/// speculative run checkpoints consumers at the seal boundary and runs
/// ahead; late-arriving straggler records roll the affected consumers back
/// and replay. `latency_win` is the blocking wall time over the
/// speculative wall time (>1.0 = time-warp wins), and `digest_match`
/// certifies the optimism was free: every run, both modes, produced
/// identical response digests.
///
/// The win is physics-bound like the scaling floor: overlapping gated
/// work with the straggler's delay needs a spare core, so a 1-core
/// machine shows only the speculation overhead (win < 1) while the
/// digests still must match — only `digest_match` gates CI.
#[derive(Debug, Clone)]
pub struct SpeculationRace {
    /// Worker threads used for both runs.
    pub workers: usize,
    /// Wall-clock nanoseconds realized per modeled service unit.
    pub virtual_ns: u64,
    /// Best blocking-coordination wall time, milliseconds.
    pub blocking_ms: f64,
    /// Best time-warp wall time, milliseconds.
    pub speculative_ms: f64,
    /// `blocking_ms / speculative_ms` (>1.0 = speculation wins).
    pub latency_win: f64,
    /// Speculative checkpoints taken (best speculative rep).
    pub speculations: u64,
    /// Rollbacks forced by violations (best speculative rep).
    pub rollbacks: u64,
    /// Committed events replayed after rollbacks (best speculative rep).
    pub replayed_events: u64,
    /// `rollbacks / speculations` (0 when nothing speculated).
    pub rollback_rate: f64,
    /// Did every rep of both modes produce identical response digests?
    pub digest_match: bool,
}

impl ScalingReport {
    /// Look up a point.
    #[must_use]
    pub fn point(&self, workload: &str, workers: usize) -> Option<&ScalingPoint> {
        self.points
            .iter()
            .find(|p| p.workload == workload && p.workers == workers)
    }

    /// The headline metric: speedup over the simulator on the uniform
    /// heavy-compute workload at 4 workers.
    #[must_use]
    pub fn headline_speedup(&self) -> f64 {
        self.point("uniform", 4).map_or(0.0, |p| p.speedup_vs_sim)
    }

    /// The mailbox-contention metric: fan-in wall time at 4 workers
    /// (lower = the consumer mailbox absorbs concurrent producers better).
    #[must_use]
    fn fanin_contention_ms(&self) -> f64 {
        self.point("fanin", 4).map_or(0.0, |p| p.millis)
    }

    /// Did every measured point reproduce the expected digest?
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.points.iter().all(|p| p.correct)
    }

    /// Render as pretty-printed JSON (hand-rolled).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"par_scaling\",");
        let _ = writeln!(s, "  \"cores\": {},", self.cores);
        let _ = writeln!(s, "  \"records\": {},", self.records);
        let _ = writeln!(s, "  \"hash_rounds\": {},", self.hash_rounds);
        let _ = writeln!(s, "  \"sim_uniform_ms\": {:.3},", self.sim_uniform_ms);
        let _ = writeln!(s, "  \"sim_skewed_ms\": {:.3},", self.sim_skewed_ms);
        let _ = writeln!(s, "  \"sim_fanin_ms\": {:.3},", self.sim_fanin_ms);
        let _ = writeln!(
            s,
            "  \"fanin_contention_ms_4w\": {:.3},",
            self.fanin_contention_ms()
        );
        let _ = writeln!(
            s,
            "  \"headline_speedup_vs_sim_4w\": {:.3},",
            self.headline_speedup()
        );
        let _ = writeln!(s, "  \"all_correct\": {},", self.all_correct());
        match &self.speculation {
            Some(r) => {
                let _ = writeln!(s, "  \"speculation\": {{");
                let _ = writeln!(s, "    \"workers\": {},", r.workers);
                let _ = writeln!(s, "    \"virtual_ns\": {},", r.virtual_ns);
                let _ = writeln!(s, "    \"blocking_ms\": {:.3},", r.blocking_ms);
                let _ = writeln!(s, "    \"speculative_ms\": {:.3},", r.speculative_ms);
                let _ = writeln!(s, "    \"latency_win\": {:.3},", r.latency_win);
                let _ = writeln!(s, "    \"speculations\": {},", r.speculations);
                let _ = writeln!(s, "    \"rollbacks\": {},", r.rollbacks);
                let _ = writeln!(s, "    \"replayed_events\": {},", r.replayed_events);
                let _ = writeln!(s, "    \"rollback_rate\": {:.4},", r.rollback_rate);
                let _ = writeln!(s, "    \"digest_match\": {}", r.digest_match);
                let _ = writeln!(s, "  }},");
            }
            None => {
                let _ = writeln!(s, "  \"speculation\": null,");
            }
        }
        let notes = self.notes.iter().map(|n| json::quoted(n));
        json::array(&mut s, "notes", notes, false);
        let points = self.points.iter().map(|p| {
            format!(
                "{{\"workload\": \"{}\", \"cores\": {}, \"workers\": {}, \
                 \"millis\": {:.3}, \"speedup_vs_sim\": {:.3}, \"balance\": {:.3}, \
                 \"parks\": {}, \"wakeups\": {}, \
                 \"pushes_per_event\": {:.4}, \
                 \"lat_p50_us\": {}, \"lat_p99_us\": {}, \
                 \"lat_p999_us\": {}, \"lat_samples\": {}, \"correct\": {}}}",
                p.workload,
                p.cores,
                p.workers,
                p.millis,
                p.speedup_vs_sim,
                p.balance,
                p.parks,
                p.wakeups,
                p.pushes_per_event,
                json_us(p.lat_p50_us),
                json_us(p.lat_p99_us),
                json_us(p.lat_p999_us),
                p.lat_samples,
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
            "# par_scaling: heavy-compute workload, {} records x {} hash rounds, {} core(s)",
            self.records, self.hash_rounds, self.cores
        );
        let _ = writeln!(
            s,
            "# sim baseline: uniform {:.1} ms, skewed {:.1} ms, fanin {:.1} ms",
            self.sim_uniform_ms, self.sim_skewed_ms, self.sim_fanin_ms
        );
        let _ = writeln!(
            s,
            "# workload  workers  ms        vs-sim  balance   parks  wakeups  pushes/ev  p50us    p99us   p999us"
        );
        for p in &self.points {
            let _ = writeln!(
                s,
                "{:9} {:8} {:9.1} {:7.2}x {:8.2} {:7} {:8} {:10.4} {}{}",
                p.workload,
                p.workers,
                p.millis,
                p.speedup_vs_sim,
                p.balance,
                p.parks,
                p.wakeups,
                p.pushes_per_event,
                match (p.lat_p50_us, p.lat_p99_us, p.lat_p999_us) {
                    (Some(p50), Some(p99), Some(p999)) => format!("{p50:8.1} {p99:8.1} {p999:8.1}"),
                    _ => format!(
                        " n/a ({} sample{})",
                        p.lat_samples,
                        if p.lat_samples == 1 { "" } else { "s" }
                    ),
                },
                if p.correct { "" } else { "  DIGEST MISMATCH" },
            );
        }
        if let Some(r) = &self.speculation {
            let _ = writeln!(
                s,
                "# time-warp race ({} workers, {} ns/unit): blocking {:.1} ms vs \
                 speculative {:.1} ms = {:.2}x win; {} speculations, {} rollbacks \
                 ({:.1}% rollback rate), {} replayed; digests {}",
                r.workers,
                r.virtual_ns,
                r.blocking_ms,
                r.speculative_ms,
                r.latency_win,
                r.speculations,
                r.rollbacks,
                r.rollback_rate * 100.0,
                r.replayed_events,
                if r.digest_match { "match" } else { "DIVERGED" },
            );
        }
        s
    }
}

/// Scale a requested speedup floor to what the machine can physically
/// deliver: a 1-core box can only be asked for rough parity with the
/// simulator, while 4+ cores must show a real multiple. The formula is
/// `min(requested, max(0.85, 0.45 * cores))`.
#[must_use]
pub fn effective_floor(requested: f64, cores: usize) -> f64 {
    requested.min((0.45 * cores as f64).max(0.85))
}

/// Time a simulator run: best-of-`reps` wall clock, digest checked on
/// every repetition.
fn timed_sim(
    expected: &BTreeSet<Message>,
    reps: u32,
    run: impl Fn() -> BTreeSet<Message>,
) -> (f64, bool) {
    let mut best = f64::INFINITY;
    let mut correct = true;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let digest = run();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        correct &= digest == *expected;
    }
    (best, correct)
}

/// Time one parallel point: best-of-`reps` wall clock, stats from the best
/// repetition, digest checked on every repetition.
fn timed_par(
    workload: &'static str,
    cores: usize,
    workers: usize,
    sim_ms: f64,
    expected: &BTreeSet<Message>,
    reps: u32,
    run: impl Fn() -> (BTreeSet<Message>, BackendRunStats),
) -> ScalingPoint {
    let mut best = f64::INFINITY;
    let mut balance = 0.0;
    let mut parks = 0;
    let mut wakeups = 0;
    let mut pushes_per_event = 0.0;
    let mut correct = true;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let (digest, stats) = run();
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        let stats = stats.as_par().expect("parallel run");
        if elapsed < best {
            best = elapsed;
            balance = stats.balance();
            parks = stats.total_parks();
            wakeups = stats.total_wakeups();
            pushes_per_event =
                stats.total_mailbox_pushes() as f64 / stats.events_processed.max(1) as f64;
        }
        correct &= digest == *expected;
    }
    let lat = probe_latency(&run);
    ScalingPoint {
        workload,
        cores,
        workers,
        millis: best,
        speedup_vs_sim: if best > 0.0 { sim_ms / best } else { 0.0 },
        balance,
        parks,
        wakeups,
        pushes_per_event,
        lat_p50_us: lat.percentiles.map(|p| p[0]),
        lat_p99_us: lat.percentiles.map(|p| p[1]),
        lat_p999_us: lat.percentiles.map(|p| p[2]),
        lat_samples: lat.samples,
        correct,
    }
}

/// A latency column as JSON: microseconds to one decimal, or `null`.
fn json_us(us: Option<f64>) -> String {
    us.map_or_else(|| "null".to_string(), |us| format!("{us:.1}"))
}

/// The parallel backend every sweep point runs on.
fn par_spec(workers: usize) -> BackendSpec {
    BackendSpec::Par {
        workers,
        tuning: ParTuning {
            batch_size: 32,
            ..ParTuning::default()
        },
    }
}

/// Run the full sweep.
#[must_use]
pub fn run_scaling(cfg: &ScalingConfig) -> ScalingReport {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workloads: [(&'static str, HeavyConfig); 2] = [
        (
            "uniform",
            HeavyConfig::uniform(cfg.records, cfg.hash_rounds),
        ),
        ("skewed", HeavyConfig::skewed(cfg.records, cfg.hash_rounds)),
    ];

    let mut sim_ms = [0.0f64; 2];
    let mut points = Vec::new();
    for (wi, (name, heavy)) in workloads.iter().enumerate() {
        // One sequential reference fold per workload, shared by the sim
        // check and every parallel point.
        let expected = expected_digest(heavy);
        let (ms, sim_ok) = timed_sim(&expected, cfg.reps, || {
            run_heavy(heavy, &BackendSpec::Sim).0
        });
        assert!(sim_ok, "simulator digest mismatch on {name}");
        sim_ms[wi] = ms;
        for &workers in &cfg.worker_counts {
            let backend = par_spec(workers);
            points.push(timed_par(
                name,
                cores,
                workers,
                ms,
                &expected,
                cfg.reps,
                || run_heavy(heavy, &backend),
            ));
        }
    }

    // The fan-in contention microbench: many light producers into one
    // consumer, so wall time tracks the mailbox hot path, not compute.
    let fanin = FaninConfig {
        producers: cfg.fanin_producers,
        records: cfg.fanin_records,
        ..FaninConfig::default()
    };
    let fanin_expected = expected_fanin_digest(&fanin);
    let (sim_fanin_ms, fanin_sim_ok) = timed_sim(&fanin_expected, cfg.reps, || {
        run_fanin(&fanin, &BackendSpec::Sim).0
    });
    assert!(fanin_sim_ok, "simulator digest mismatch on fanin");
    for &workers in &cfg.worker_counts {
        let backend = par_spec(workers);
        points.push(timed_par(
            "fanin",
            cores,
            workers,
            sim_fanin_ms,
            &fanin_expected,
            cfg.reps,
            || run_fanin(&fanin, &backend),
        ));
    }

    ScalingReport {
        cores,
        records: cfg.records,
        hash_rounds: cfg.hash_rounds,
        sim_uniform_ms: sim_ms[0],
        sim_skewed_ms: sim_ms[1],
        sim_fanin_ms,
        points,
        speculation: None,
        // Structural (run-independent) provenance; per-run measurement
        // context belongs to the caller (`par_scaling --note ...`).
        notes: vec![
            "in-flight accounting is sharded per worker: an activation charges all \
             its emissions to the worker's private padded cell in one RMW before \
             publication, batches settle once per activation, and quiescence is \
             detected by an epoch-validated idle scan; event and delivery totals are \
             summed from per-worker and per-instance stats at run end, so no counter \
             every worker bumps is left on the message hot path"
                .to_string(),
            "the message hot path locks per activation, never per message: each \
             activation stages its emissions and appends one run per destination \
             mailbox (a locked list of 64-item rings: one lock per run, one per \
             batched drain), the run queue is one Mutex over a ready FIFO popped \
             before an injected FIFO, instance cells are Mutexes the scheduled \
             flag keeps uncontended (one try_lock per activation), and idle \
             workers wait on one Condvar with no timeout; \
             pushes_per_event is the machine-independent batching column, and the \
             fanin workload measures the remaining consumer-mailbox contention"
                .to_string(),
        ],
    }
}

/// The straggler scenario both racers run: at-least-once click delivery
/// (the seeded fault RNG), analyst requests racing ingestion on the
/// execution substrate, and ad server 0 carrying 12.5x everyone's service
/// time so its seal punctuations arrive last.
fn race_scenario() -> AdScenario {
    AdScenario {
        workload: ClickWorkload {
            ad_servers: 3,
            entries_per_server: 120,
            batch_size: 20,
            sleep_between_batches: 50_000,
            entry_interval: 200,
            campaigns: 6,
            ads_per_campaign: 4,
            placement: CampaignPlacement::Spread,
            seed: 11,
        },
        query: ReportQuery::Campaign,
        replicas: 3,
        requests: 8,
        report_service: 200,
        tick_every: 1,
        click_duplicates: 0.15,
        straggler_service: 2_500,
        requests_via_analyst: true,
        seed: 17,
        ..AdScenario::default()
    }
}

/// Race blocking seal coordination against time-warp speculation on the
/// straggler ad-report scenario. Both modes run `reps` times (best-of wall
/// clock); response digests are compared across *every* repetition of
/// *both* modes, so `digest_match` is the full determinism claim, not a
/// sample.
#[must_use]
pub fn run_speculation_race(workers: usize, reps: u32) -> SpeculationRace {
    let sc = race_scenario();
    let virtual_ns = 300;
    let tuning = ParTuning::default().with_virtual_service_ns(Some(virtual_ns));

    let mut reference: Option<Vec<Vec<Message>>> = None;
    let mut digest_match = true;
    let mut check = |digests: Vec<Vec<Message>>, matched: &mut bool| match &reference {
        None => reference = Some(digests),
        Some(r) => *matched &= digests == *r,
    };

    let mut blocking_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let (res, _) = run_ad_auto(&sc, &BackendSpec::Par { workers, tuning });
        blocking_ms = blocking_ms.min(started.elapsed().as_secs_f64() * 1e3);
        check(response_digests(&res.responses), &mut digest_match);
    }

    let mut speculative_ms = f64::INFINITY;
    let mut speculations = 0;
    let mut rollbacks = 0;
    let mut replayed_events = 0;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let (res, _) = run_ad_auto(
            &sc,
            &BackendSpec::Par {
                workers,
                tuning: tuning.with_speculation(true),
            },
        );
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        if elapsed < speculative_ms {
            speculative_ms = elapsed;
            let stats = res.stats.as_par().expect("parallel run");
            speculations = stats.total_speculations();
            rollbacks = stats.total_rollbacks();
            replayed_events = stats.total_replayed_events();
        }
        check(response_digests(&res.responses), &mut digest_match);
    }

    SpeculationRace {
        workers,
        virtual_ns,
        blocking_ms,
        speculative_ms,
        latency_win: if speculative_ms > 0.0 {
            blocking_ms / speculative_ms
        } else {
            0.0
        },
        speculations,
        rollbacks,
        replayed_events,
        rollback_rate: if speculations > 0 {
            rollbacks as f64 / speculations as f64
        } else {
            0.0
        },
        digest_match,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_scales_with_cores() {
        assert!((effective_floor(2.0, 1) - 0.85).abs() < 1e-12);
        assert!((effective_floor(2.0, 2) - 0.9).abs() < 1e-12);
        assert!((effective_floor(2.0, 4) - 1.8).abs() < 1e-12);
        assert!(
            (effective_floor(2.0, 8) - 2.0).abs() < 1e-12,
            "capped at the request"
        );
        assert!((effective_floor(1.5, 16) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn tiny_sweep_produces_a_complete_report() {
        let report = run_scaling(&ScalingConfig {
            records: 2_000,
            hash_rounds: 16,
            worker_counts: vec![1, 4],
            reps: 1,
            fanin_records: 3_000,
            fanin_producers: 4,
        });
        assert_eq!(report.points.len(), 3 * 2); // workloads x workers
        assert!(report.all_correct());
        assert!(report.headline_speedup() > 0.0);
        assert!(report.fanin_contention_ms() > 0.0);
        assert!(
            report.points.iter().all(|p| p.cores == report.cores),
            "every record carries the measuring machine's core count"
        );
        assert!(
            report.points.iter().all(|p| p.lat_samples > 0),
            "every point's traced repetition observed sink arrivals"
        );
        for p in &report.points {
            let pct = [p.lat_p50_us, p.lat_p99_us, p.lat_p999_us];
            if p.workload == "fanin" {
                assert_eq!(p.lat_samples, 1, "one summary tuple reaches the sink");
                assert_eq!(pct, [None; 3], "one sample has no percentiles");
            } else {
                let [p50, p99, p999] = pct.map(|v| v.expect("per-tuple percentiles"));
                assert!(
                    p50 <= p99 && p99 <= p999,
                    "latency percentiles are monotone"
                );
            }
        }
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"par_scaling\""));
        assert!(json.contains("\"workload\": \"skewed\""));
        assert!(json.contains("\"workload\": \"fanin\""));
        assert!(json.contains("\"fanin_contention_ms_4w\""));
        assert!(json.contains("\"lat_p50_us\""));
        assert!(json.contains("\"lat_p999_us\""));
        assert!(json.contains("\"pushes_per_event\""));
        assert!(
            report.points.iter().all(|p| p.pushes_per_event > 0.0),
            "every point's runs pushed mail"
        );
        assert!(json.contains("\"speculation\": null"));
        assert!(json.contains(&format!(
            "\"workload\": \"uniform\", \"cores\": {},",
            report.cores
        )));
        let table = report.render_table();
        assert!(table.contains("uniform"));
    }

    #[test]
    fn speculation_race_is_deterministic_and_renders() {
        let race = run_speculation_race(2, 1);
        assert!(race.digest_match, "time-warp diverged from blocking");
        assert!(race.blocking_ms > 0.0 && race.speculative_ms > 0.0);
        let mut report = run_scaling(&ScalingConfig {
            records: 500,
            hash_rounds: 4,
            worker_counts: vec![1],
            reps: 1,
            fanin_records: 500,
            fanin_producers: 2,
        });
        report.speculation = Some(race);
        let json = report.to_json();
        assert!(json.contains("\"speculation\": {"));
        assert!(json.contains("\"digest_match\": true"));
        assert!(json.contains("\"rollback_rate\""));
        assert!(report.render_table().contains("time-warp race"));
    }
}
