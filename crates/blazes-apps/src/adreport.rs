//! The ad-tracking network of the paper's Sections I-B and VIII-B, runnable
//! under all four coordination strategies of Figures 12–14.
//!
//! Topology (simulated):
//!
//! ```text
//! ad servers ──clicks──▶ [Sequencer]? ──▶ Report replicas ──▶ response sinks
//! analysts  ──requests─▶      │                ▲
//!                             └── ordered ─────┘
//! ```
//!
//! * **Uncoordinated** — clicks flow straight to every replica over
//!   jittered channels; replicas may answer queries inconsistently.
//! * **Ordered** — every click and request is routed through a total-order
//!   [`blazes_coord::Sequencer`] (the Zookeeper stand-in). Replicas agree,
//!   but all traffic serializes through one service.
//! * **Sealed** — ad servers append campaign punctuations; each replica
//!   runs the synthesized seal protocol ([`blazes_coord::SealManager`]):
//!   buffer per campaign, release on a unanimous producer vote. Whether the
//!   vote needs one seal or one per server depends on the workload's
//!   [`CampaignPlacement`] ("Independent Seal" vs "Seal" in Fig. 14).
//!
//! The measured signal is the paper's: cumulative click-log records
//! *processed* by the reporting servers over virtual time.

use crate::queries::ReportQuery;
use crate::workload::{CampaignPlacement, ClickWorkload};
use blazes_bloom::interp::ModuleInstance;
use blazes_coord::registry::ProducerRegistry;
use blazes_coord::seal::{SealManager, SealOutcome};
use blazes_coord::sequencer::Sequencer;
use blazes_dataflow::backend::{
    build_local, BackendRunStats, BackendSpec, ExecutorBuilder, PortId,
};
use blazes_dataflow::channel::ChannelConfig;
use blazes_dataflow::component::{Component, Context};
use blazes_dataflow::dist::{run_dist, ProbeBuilder, SinkSet};
use blazes_dataflow::message::{Message, SealKey};
use blazes_dataflow::metrics::TimeSeries;
use blazes_dataflow::sim::{InstanceId, Time};
use blazes_dataflow::sinks::CollectorSink;
use blazes_dataflow::value::{Tuple, Value};
use std::collections::BTreeMap;

/// Coordination strategy for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// No coordination: fastest, inconsistent.
    Uncoordinated,
    /// Total ordering through a sequencer.
    Ordered,
    /// Seal-based coordination (voting per the workload's placement).
    Sealed,
    /// No hand-wired coordination, but the ad servers' campaign
    /// punctuations still flow: the bare topology `blazes-autocoord`
    /// rewrites (see [`crate::autocoord::run_ad_auto`]). Running it
    /// *without* the rewrite behaves like [`StrategyKind::Uncoordinated`]
    /// plus ignored punctuations.
    Bare,
}

impl StrategyKind {
    /// Label used in the figures.
    #[must_use]
    pub fn label(self, placement: CampaignPlacement) -> &'static str {
        match (self, placement) {
            (StrategyKind::Uncoordinated, _) => "Uncoordinated",
            (StrategyKind::Ordered, _) => "Ordered",
            (StrategyKind::Sealed, CampaignPlacement::Independent) => "Independent Seal",
            (StrategyKind::Sealed, CampaignPlacement::Spread) => "Seal",
            (StrategyKind::Bare, _) => "Auto (bare)",
        }
    }
}

/// Scenario configuration.
#[derive(Debug, Clone)]
pub struct AdScenario {
    /// The click workload (including placement).
    pub workload: ClickWorkload,
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Number of reporting-server replicas (the paper uses 3).
    pub replicas: usize,
    /// Analyst requests posed during the run (each goes to every replica).
    pub requests: usize,
    /// Per-message service time at each reporting server.
    pub report_service: Time,
    /// Per-message service time at the sequencer (ordering strategy only).
    pub sequencer_service: Time,
    /// The continuous query installed (the paper's runs use CAMPAIGN).
    pub query: ReportQuery,
    /// Bloom timesteps are batched: run one tick per `tick_every` buffered
    /// clicks (requests always force a tick). Purely an interpreter
    /// throughput knob; does not change outcomes.
    pub tick_every: usize,
    /// Duplicate-delivery probability on the ad-server → replica click
    /// channels (at-least-once replay, drawn from the per-wire seeded
    /// fault RNG). Applies to the strategies that wire clicks directly
    /// (uncoordinated / sealed / bare).
    pub click_duplicates: f64,
    /// Extra per-message service time at ad server 0, making it the
    /// *straggler*: its clicks and (crucially) its seal punctuations lag
    /// everyone else's, so blocking seal coordination stalls on it while
    /// time-warp speculation runs ahead. Only observable where service
    /// times apply — the simulator, or the parallel backend with
    /// `ParTuning::with_virtual_service_ns`.
    pub straggler_service: Time,
    /// Route analyst requests through an `analyst` broadcast instance
    /// wired to every replica, instead of injecting them directly. As a
    /// topology participant the analyst *races* with click ingestion on
    /// the execution substrate — the knob that surfaces the paper's
    /// Section III-A cross-instance nondeterminism on the threaded
    /// backend. Ignored under the ordering strategy (requests go through
    /// the sequencer either way).
    pub requests_via_analyst: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for AdScenario {
    fn default() -> Self {
        AdScenario {
            workload: ClickWorkload::default(),
            strategy: StrategyKind::Uncoordinated,
            replicas: 3,
            requests: 10,
            report_service: 100,
            sequencer_service: 4_000,
            query: ReportQuery::Campaign,
            tick_every: 25,
            click_duplicates: 0.0,
            straggler_service: 0,
            requests_via_analyst: false,
            seed: 3,
        }
    }
}

/// Result of one scenario run on any backend.
///
/// Series *totals* are meaningful everywhere they exist (records
/// processed); series *times* are virtual microseconds on the simulator
/// and per-instance event ordinals on the parallel executor. On
/// [`BackendSpec::Dist`] `series` is empty: those counters live inside the
/// worker processes and only the response sinks are streamed back.
#[derive(Debug)]
pub struct AdRunResult {
    /// Per-replica cumulative processed-records series (empty on dist).
    pub series: Vec<TimeSeries>,
    /// Per-replica response collections.
    pub responses: Vec<CollectorSink>,
    /// Backend-tagged run statistics.
    pub stats: BackendRunStats,
    /// Records each replica was expected to process.
    pub expected_records: u64,
}

impl AdRunResult {
    /// Virtual time at which the slowest replica finished processing every
    /// record (`None` if some replica never did). Meaningful on the
    /// simulator, where series times are virtual microseconds.
    #[must_use]
    pub fn completion_time(&self) -> Option<Time> {
        self.series
            .iter()
            .map(|s| s.time_to_reach(self.expected_records))
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(0))
    }

    /// Did every replica process every record? `None` on the distributed
    /// backend, whose series never leave the workers.
    #[must_use]
    pub fn processed_everything(&self) -> Option<bool> {
        if matches!(self.stats, BackendRunStats::Dist(_)) {
            return None;
        }
        Some(
            self.series
                .iter()
                .all(|s| s.total() == self.expected_records),
        )
    }

    /// Do all replicas report identical response sets?
    #[must_use]
    pub fn responses_consistent(&self) -> bool {
        let sets: Vec<_> = self
            .responses
            .iter()
            .map(CollectorSink::message_set)
            .collect();
        sets.windows(2).all(|w| w[0] == w[1])
    }

    /// Total responses seen across replicas.
    #[must_use]
    pub fn total_responses(&self) -> usize {
        self.responses.iter().map(CollectorSink::len).sum()
    }
}

/// The reporting-server replica component.
///
/// Input convention (any port): data tuples of arity 3 are clicks
/// `(id, campaign, window)`; arity 1 are requests `(id)`. Seal messages
/// carry `campaign` and `producer` keys. Responses are emitted on port 0.
pub struct ReportServer {
    bloom: ModuleInstance,
    seal: Option<SealManager>,
    series: TimeSeries,
    pending_clicks: Vec<Tuple>,
    /// Sealed mode only: requests are re-posed after every partition
    /// release, so replicas answer from *final* partition contents only —
    /// the query-delay half of the synthesized seal protocol (paper
    /// Section V-B1 footnote 2).
    pending_requests: Vec<Tuple>,
    tick_every: usize,
    name: String,
}

impl ReportServer {
    /// Build a replica running `query`; `seal_registry` enables the sealed
    /// strategy.
    pub fn new(
        query: ReportQuery,
        seal_registry: Option<ProducerRegistry>,
        tick_every: usize,
        name: impl Into<String>,
    ) -> Self {
        ReportServer {
            bloom: ModuleInstance::new(query.module()).expect("query module stratifies"),
            seal: seal_registry.map(SealManager::new),
            series: TimeSeries::new(),
            pending_clicks: Vec::new(),
            pending_requests: Vec::new(),
            tick_every: tick_every.max(1),
            name: name.into(),
        }
    }

    /// The processed-records series (shared handle).
    #[must_use]
    pub fn series(&self) -> TimeSeries {
        self.series.clone()
    }

    fn flush_clicks(&mut self, ctx: &mut Context) {
        if self.pending_clicks.is_empty() {
            return;
        }
        let clicks = std::mem::take(&mut self.pending_clicks);
        let mut inputs = BTreeMap::new();
        inputs.insert("click".to_string(), clicks);
        let out = self.bloom.tick(inputs).expect("click tick");
        // Click ticks may produce responses only when joined with pending
        // requests (there are none buffered), so `out` is typically empty;
        // emit anything derived for completeness.
        for t in out.on("response") {
            ctx.emit(0, Message::Data(t.clone()));
        }
    }

    fn ingest_click(&mut self, tuple: Tuple, ctx: &mut Context) {
        self.series.increment(ctx.now);
        self.pending_clicks.push(tuple);
        if self.pending_clicks.len() >= self.tick_every {
            self.flush_clicks(ctx);
        }
    }

    fn handle_request(&mut self, tuple: Tuple, ctx: &mut Context) {
        if self.seal.is_some() {
            // Query delay: remember the request and answer (again) after
            // each partition release, so only final contents are read.
            self.pending_requests.push(tuple.clone());
        }
        self.flush_clicks(ctx);
        let mut inputs = BTreeMap::new();
        inputs.insert("request".to_string(), vec![tuple]);
        let out = self.bloom.tick(inputs).expect("request tick");
        for t in out.on("response") {
            ctx.emit(0, Message::Data(t.clone()));
        }
    }

    /// Re-pose all pending requests (sealed mode, after a release).
    fn replay_requests(&mut self, ctx: &mut Context) {
        if self.pending_requests.is_empty() {
            return;
        }
        let mut inputs = BTreeMap::new();
        inputs.insert("request".to_string(), self.pending_requests.clone());
        let out = self.bloom.tick(inputs).expect("request replay tick");
        for t in out.on("response") {
            ctx.emit(0, Message::Data(t.clone()));
        }
    }
}

/// Checkpoint of a replica's state for time-warp speculation: the Bloom
/// interpreter instance plus the batching buffers, and the length of the
/// shared processed-records series (truncated on restore).
struct ReportSnapshot {
    bloom: ModuleInstance,
    pending_clicks: Vec<Tuple>,
    pending_requests: Vec<Tuple>,
    series_len: usize,
}

impl Component for ReportServer {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(tuple) if tuple.arity() == 3 => {
                match &mut self.seal {
                    None => self.ingest_click(tuple, ctx),
                    Some(mgr) => {
                        let campaign = tuple.get(1).cloned().expect("click tuple has a campaign");
                        match mgr.on_data(campaign, tuple) {
                            SealOutcome::Buffered => {}
                            SealOutcome::Released(tuples) => {
                                for t in tuples {
                                    self.ingest_click(t, ctx);
                                }
                                self.flush_clicks(ctx);
                                self.replay_requests(ctx);
                            }
                            SealOutcome::LateArrival => {
                                // A protocol violation; count it processed so
                                // runs terminate, but it would be a bug.
                                debug_assert!(false, "late click after seal");
                            }
                        }
                    }
                }
            }
            Message::Data(tuple) => self.handle_request(tuple, ctx),
            Message::Seal(key) => {
                let Some(mgr) = &mut self.seal else { return };
                let (Some(campaign), Some(producer)) = (
                    key.value_of("campaign").cloned(),
                    key.value_of("producer").and_then(Value::as_int),
                ) else {
                    return;
                };
                if let SealOutcome::Released(tuples) = mgr.on_seal(campaign, producer as usize) {
                    for t in tuples {
                        self.ingest_click(t, ctx);
                    }
                    self.flush_clicks(ctx);
                    self.replay_requests(ctx);
                }
            }
            Message::Eos => self.flush_clicks(ctx),
        }
    }

    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        if self.seal.is_some() {
            // Native sealed mode runs the blocking protocol inside the
            // replica; its SealManager state is not checkpointed, so opt
            // out and let the runtime defer speculative deliveries.
            return None;
        }
        Some(Box::new(ReportSnapshot {
            bloom: self.bloom.clone(),
            pending_clicks: self.pending_clicks.clone(),
            pending_requests: self.pending_requests.clone(),
            series_len: self.series.len(),
        }))
    }

    fn restore(&mut self, snapshot: Box<dyn std::any::Any + Send>) {
        let snap = snapshot
            .downcast::<ReportSnapshot>()
            .expect("report snapshot");
        self.bloom = snap.bloom;
        self.pending_clicks = snap.pending_clicks;
        self.pending_requests = snap.pending_requests;
        self.series.truncate(snap.series_len);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Forwarder used for ad servers: broadcasts whatever is injected into it
/// to all wired consumers.
struct Broadcast {
    name: String,
}

impl Component for Broadcast {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        ctx.emit(0, msg);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The producer registry the seal protocol votes against, per the
/// workload's campaign placement (who produces which campaign).
#[must_use]
pub fn seal_registry_for(workload: &ClickWorkload) -> ProducerRegistry {
    match workload.placement {
        CampaignPlacement::Spread => ProducerRegistry::all_produce(0..workload.ad_servers),
        CampaignPlacement::Independent => {
            let mut reg = ProducerRegistry::new();
            for c in 0..workload.campaigns as i64 {
                reg.register(Value::Int(c), [(c as usize) % workload.ad_servers]);
            }
            reg
        }
    }
}

/// Assemble the ad-reporting topology on any backend. Returns the
/// per-replica processed-records series and response sinks, the latter
/// paired with their backend instance ids so a distributed run can tell
/// which process owns (and must stream back) which sink.
pub fn assemble_scenario<B: ExecutorBuilder + ?Sized>(
    sc: &AdScenario,
    b: &mut B,
) -> (Vec<TimeSeries>, Vec<(InstanceId, CollectorSink)>) {
    // Reporting replicas + response sinks.
    let registry = (sc.strategy == StrategyKind::Sealed).then(|| seal_registry_for(&sc.workload));
    let mut replica_ids = Vec::with_capacity(sc.replicas);
    let mut series = Vec::with_capacity(sc.replicas);
    let mut responses = Vec::with_capacity(sc.replicas);
    for r in 0..sc.replicas {
        let server = ReportServer::new(
            sc.query,
            registry.clone(),
            sc.tick_every,
            format!("report[{r}]"),
        );
        series.push(server.series());
        let id = b.add_instance(Box::new(server));
        b.set_service_time(id, sc.report_service);
        let sink = CollectorSink::new();
        let sid = b.add_instance(Box::new(sink.clone()));
        b.connect_with(id, PortId(0), sid, PortId(0), ChannelConfig::lan());
        responses.push((sid, sink));
        replica_ids.push(id);
    }

    // Optional sequencer.
    let sequencer = (sc.strategy == StrategyKind::Ordered).then(|| {
        let id = b.add_instance(Box::new(Sequencer::new()));
        b.set_service_time(id, sc.sequencer_service);
        let ordered = b.add_channel(ChannelConfig::ordered(1_000));
        for &rid in &replica_ids {
            b.connect(id, PortId(0), rid, PortId(0), ordered);
        }
        id
    });

    // Ad servers: broadcast instances fed by injection.
    let click_channel = ChannelConfig::lan()
        .with_jitter(5_000)
        .with_duplicates(sc.click_duplicates);
    let mut latest: Time = 0;
    for s in 0..sc.workload.ad_servers {
        let ad = b.add_instance(Box::new(Broadcast {
            name: format!("adserver[{s}]"),
        }));
        if s == 0 && sc.straggler_service != 0 {
            b.set_service_time(ad, sc.straggler_service);
        }
        match sequencer {
            Some(seq) => b.connect_with(ad, PortId(0), seq, PortId(0), ChannelConfig::lan()),
            None => {
                for &rid in &replica_ids {
                    b.connect_with(ad, PortId(0), rid, PortId(0), click_channel.clone());
                }
            }
        }
        let log = sc.workload.generate(s);
        for (at, click) in &log.clicks {
            b.inject(*at, ad, PortId(0), Message::Data(click.clone()));
        }
        latest = latest.max(log.end_time);
        if matches!(sc.strategy, StrategyKind::Sealed | StrategyKind::Bare) {
            for (at, c) in &log.seals {
                b.inject(
                    *at,
                    ad,
                    PortId(0),
                    Message::Seal(SealKey::new([
                        ("campaign", Value::Int(*c)),
                        ("producer", Value::Int(s as i64)),
                    ])),
                );
            }
        }
    }

    // Analyst requests, spread over the generation span, each posed to all
    // replicas — through the sequencer under ordering, otherwise through
    // an analyst broadcast instance whose forwarding *races* with click
    // ingestion on the execution substrate (the race behind the paper's
    // Section III-A cross-instance nondeterminism).
    let ad_space = (sc.workload.campaigns * sc.workload.ads_per_campaign) as i64;
    let analyst = (sequencer.is_none() && sc.requests_via_analyst).then(|| {
        let analyst = b.add_instance(Box::new(Broadcast {
            name: "analyst".to_string(),
        }));
        for &rid in &replica_ids {
            b.connect_with(
                analyst,
                PortId(0),
                rid,
                PortId(0),
                ChannelConfig::lan().with_jitter(5_000),
            );
        }
        analyst
    });
    for r in 0..sc.requests {
        let at = (latest * (r as u64 + 1)) / (sc.requests as u64 + 1);
        let req = Message::Data(Tuple(vec![Value::Int(r as i64 % ad_space)]));
        match (sequencer, analyst) {
            (Some(seq), _) => b.inject(at, seq, PortId(0), req),
            (None, Some(analyst)) => b.inject(at, analyst, PortId(0), req),
            (None, None) => {
                for &rid in &replica_ids {
                    b.inject(at, rid, PortId(0), req.clone());
                }
            }
        }
    }

    (series, responses)
}

/// Run one hand-wired scenario to quiescence on the backend selected by
/// `backend`. The sequencer (ordered strategy) and seal managers are
/// ordinary components, so every strategy runs on every backend; modeled
/// service times apply on the simulator only.
///
/// On [`BackendSpec::Dist`] the spec's `topology`/`params` fields are
/// overwritten with the ad-report registry entry for `sc`; everything
/// else (process count, wire faults, worker command) is honored as given.
///
/// # Panics
/// Panics when a `Par` spec is invalid, and on any distributed transport
/// failure.
#[must_use]
pub fn run_scenario(sc: &AdScenario, backend: &BackendSpec) -> AdRunResult {
    run_on(sc, backend, false, |b| {
        let (series, responses) = assemble_scenario(sc, b);
        (series, responses, ())
    })
    .0
}

/// Shared body of [`run_scenario`] and [`crate::autocoord::run_ad_auto`]:
/// run `assemble` on `backend` and collect the result, plus whatever else
/// the assembly reported. `auto` says which variant of the
/// [`crate::dist::AD_TOPOLOGY`] registry entry re-creates `assemble`
/// inside the worker processes of a distributed run; the parent then only
/// probes the assembly for its report.
pub(crate) fn run_on<R>(
    sc: &AdScenario,
    backend: &BackendSpec,
    auto: bool,
    assemble: impl FnOnce(&mut dyn ExecutorBuilder) -> (Vec<TimeSeries>, SinkSet, R),
) -> (AdRunResult, R) {
    let (series, responses, stats, report) = if let BackendSpec::Dist(d) = backend {
        let (_, _, report) = assemble(&mut ProbeBuilder::new());
        let mut spec = d.clone();
        spec.topology = crate::dist::AD_TOPOLOGY.to_string();
        spec.params = crate::dist::encode_ad_params(sc, auto, backend.speculation());
        let run =
            run_dist(&spec, &crate::dist::dist_registry()).expect("distributed ad-report run");
        (
            Vec::new(),
            run.sinks,
            BackendRunStats::Dist(run.stats),
            report,
        )
    } else {
        let (exec, (series, responses, report)) =
            build_local(backend, sc.seed, assemble).unwrap_or_else(|e| panic!("{e}"));
        (series, responses, exec.run(), report)
    };
    let result = AdRunResult {
        series,
        responses: responses.into_iter().map(|(_, s)| s).collect(),
        stats,
        expected_records: sc.workload.total_entries() as u64,
    };
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload(placement: CampaignPlacement) -> ClickWorkload {
        ClickWorkload {
            ad_servers: 3,
            entries_per_server: 60,
            batch_size: 20,
            sleep_between_batches: 50_000,
            entry_interval: 200,
            campaigns: 6,
            ads_per_campaign: 4,
            placement,
            seed: 5,
        }
    }

    fn scenario(strategy: StrategyKind, placement: CampaignPlacement) -> AdScenario {
        AdScenario {
            workload: small_workload(placement),
            strategy,
            replicas: 3,
            requests: 6,
            report_service: 100,
            sequencer_service: 2_000,
            query: ReportQuery::Campaign,
            tick_every: 10,
            click_duplicates: 0.0,
            straggler_service: 0,
            requests_via_analyst: false,
            seed: 21,
        }
    }

    #[test]
    fn uncoordinated_processes_everything() {
        let res = run_scenario(
            &scenario(StrategyKind::Uncoordinated, CampaignPlacement::Spread),
            &BackendSpec::Sim,
        );
        assert_eq!(res.expected_records, 180);
        for s in &res.series {
            assert_eq!(s.total(), 180, "every replica sees every record");
        }
        assert!(res.completion_time().is_some());
    }

    #[test]
    fn sealed_spread_processes_everything() {
        let res = run_scenario(
            &scenario(StrategyKind::Sealed, CampaignPlacement::Spread),
            &BackendSpec::Sim,
        );
        for s in &res.series {
            assert_eq!(s.total(), 180, "all partitions released");
        }
    }

    #[test]
    fn sealed_independent_processes_everything() {
        let res = run_scenario(
            &scenario(StrategyKind::Sealed, CampaignPlacement::Independent),
            &BackendSpec::Sim,
        );
        for s in &res.series {
            assert_eq!(s.total(), 180);
        }
    }

    #[test]
    fn ordered_processes_everything_and_is_consistent() {
        let res = run_scenario(
            &scenario(StrategyKind::Ordered, CampaignPlacement::Spread),
            &BackendSpec::Sim,
        );
        for s in &res.series {
            assert_eq!(s.total(), 180);
        }
        assert!(res.responses_consistent(), "total order implies agreement");
    }

    #[test]
    fn sealed_responses_are_consistent() {
        // CAMPAIGN + campaign seals: deterministic outcomes (paper VI-B2).
        // Requests race with ongoing partitions in general, but with the
        // CAMPAIGN query a replica only answers from *released* partitions,
        // which every replica releases with identical contents.
        let res = run_scenario(
            &scenario(StrategyKind::Sealed, CampaignPlacement::Spread),
            &BackendSpec::Sim,
        );
        assert!(res.responses_consistent());
    }

    #[test]
    fn parallel_backend_processes_everything_under_every_strategy() {
        // Figures 12–14's scenarios, threaded: every strategy must still
        // deliver all records to all replicas.
        for strategy in [
            StrategyKind::Uncoordinated,
            StrategyKind::Ordered,
            StrategyKind::Sealed,
        ] {
            let res = run_scenario(
                &scenario(strategy, CampaignPlacement::Spread),
                &BackendSpec::par(3),
            );
            assert_eq!(
                res.processed_everything(),
                Some(true),
                "{strategy:?}: {:?}",
                res.series.iter().map(TimeSeries::total).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn parallel_sealed_responses_are_consistent() {
        // Replicas only answer from released (seal-complete) partitions,
        // so agreement must survive real thread nondeterminism.
        let res = run_scenario(
            &scenario(StrategyKind::Sealed, CampaignPlacement::Spread),
            &BackendSpec::par(4),
        );
        assert_eq!(res.processed_everything(), Some(true));
        assert!(res.responses_consistent());
    }

    #[test]
    fn ordered_is_slower_than_uncoordinated() {
        let fast = run_scenario(
            &scenario(StrategyKind::Uncoordinated, CampaignPlacement::Spread),
            &BackendSpec::Sim,
        );
        let slow = run_scenario(
            &scenario(StrategyKind::Ordered, CampaignPlacement::Spread),
            &BackendSpec::Sim,
        );
        assert!(
            slow.completion_time().unwrap() > fast.completion_time().unwrap(),
            "ordering must cost time: {:?} vs {:?}",
            slow.completion_time(),
            fast.completion_time()
        );
    }

    #[test]
    fn independent_seals_release_earlier_than_spread() {
        let ind = run_scenario(
            &scenario(StrategyKind::Sealed, CampaignPlacement::Independent),
            &BackendSpec::Sim,
        );
        let spread = run_scenario(
            &scenario(StrategyKind::Sealed, CampaignPlacement::Spread),
            &BackendSpec::Sim,
        );
        // Under spread placement, each campaign waits for *every* server's
        // seal, which only happens at end-of-log: releases cluster late.
        // Independent campaigns release as soon as their one master seals.
        let t_ind = ind.series[0].time_to_reach(60).unwrap();
        let t_spread = spread.series[0].time_to_reach(60).unwrap();
        assert!(
            t_ind <= t_spread,
            "first third of records should land no later under independent seals \
             ({t_ind} vs {t_spread})"
        );
    }

    #[test]
    fn strategy_labels_match_figures() {
        assert_eq!(
            StrategyKind::Sealed.label(CampaignPlacement::Independent),
            "Independent Seal"
        );
        assert_eq!(
            StrategyKind::Sealed.label(CampaignPlacement::Spread),
            "Seal"
        );
        assert_eq!(
            StrategyKind::Ordered.label(CampaignPlacement::Spread),
            "Ordered"
        );
    }
}
