//! The ad-tracking network of the paper's Sections I-B and VIII-B: the
//! scenario, the Report replica, and the *uncoordinated* wiring of Fig. 4.
//!
//! ```text
//! ad servers ──clicks (+ punctuations)──▶ Report replicas ──▶ response sinks
//! analysts  ──requests──────────────────▶
//! ```
//!
//! Nothing in this file coordinates anything. Coordination is synthesized:
//! [`crate::autocoord::assemble_ad_auto`] derives a spec from the query's
//! white-box annotations and threads this wiring through the
//! `blazes-autocoord` rewrite pass, which interposes what the spec demands.
//! [`StrategyKind`] only states what the analysis is told:
//!
//! * **Uncoordinated** — nothing. Clicks flow straight to every replica
//!   over jittered channels; replicas may answer queries inconsistently.
//! * **Ordered** — the campaign punctuations are withheld, so the analysis
//!   has to order a non-confluent query: every click and request funnels
//!   through one injected sequencer (the Zookeeper stand-in). Replicas
//!   agree, but all traffic serializes through one service.
//! * **Sealed** — the ad servers emit campaign punctuations and declare
//!   them. Where they are compatible with the query (CAMPAIGN) each replica
//!   gets a seal gate: buffer per campaign, release on a unanimous producer
//!   vote, delay each query until its partition is sealed. Whether the vote
//!   needs one seal or one per server depends on the workload's
//!   [`CampaignPlacement`] ("Independent Seal" vs "Seal" in Fig. 14). Where
//!   they are not (POOR) the analysis orders instead, and a confluent query
//!   (THRESH) is left alone under every strategy.
//!
//! The measured signal is the paper's: cumulative click-log records
//! *processed* by the reporting servers over virtual time.

use crate::queries::ReportQuery;
use crate::workload::{CampaignPlacement, ClickWorkload};
use blazes_bloom::interp::ModuleInstance;
use blazes_coord::registry::ProducerRegistry;
use blazes_coord::seal::PRODUCER_ATTR;
use blazes_dataflow::backend::{BackendRunStats, ExecutorBuilder, PortId};
use blazes_dataflow::channel::ChannelConfig;
use blazes_dataflow::component::{Component, Context};
use blazes_dataflow::message::{Message, SealKey};
use blazes_dataflow::metrics::TimeSeries;
use blazes_dataflow::sim::{InstanceId, Time};
use blazes_dataflow::sinks::CollectorSink;
use blazes_dataflow::value::{Tuple, Value};
use std::collections::BTreeMap;

/// What the coordination analysis is told about a run (see
/// `ad_network_spec` in [`crate::autocoord`]); the mechanism is its choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Nothing: the analysis is skipped and the wiring runs as is — fastest,
    /// inconsistent.
    Uncoordinated,
    /// The campaign punctuations are withheld (neither declared nor
    /// emitted), so the analysis orders every non-confluent query through
    /// one shared sequencer.
    Ordered,
    /// The campaign punctuations are emitted and declared: the analysis
    /// seals where they are compatible with the query (votes per the
    /// workload's placement) and falls back to ordering where they are not.
    Sealed,
}

impl StrategyKind {
    /// Legend label of Figures 12–14. The figures run CAMPAIGN, for which
    /// [`StrategyKind::Sealed`] does resolve to the seal protocol.
    #[must_use]
    pub fn label(self, placement: CampaignPlacement) -> &'static str {
        match (self, placement) {
            (StrategyKind::Uncoordinated, _) => "Uncoordinated",
            (StrategyKind::Ordered, _) => "Ordered",
            (StrategyKind::Sealed, CampaignPlacement::Independent) => "Independent Seal",
            (StrategyKind::Sealed, CampaignPlacement::Spread) => "Seal",
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
    /// Per-message service time at the injected sequencer — charged
    /// whenever the analysis orders, which includes POOR under
    /// [`StrategyKind::Sealed`].
    pub sequencer_service: Time,
    /// The continuous query installed (the paper's runs use CAMPAIGN).
    pub query: ReportQuery,
    /// Bloom timesteps are batched: run one tick per `tick_every` buffered
    /// clicks (requests always force a tick). Purely an interpreter
    /// throughput knob; does not change outcomes.
    pub tick_every: usize,
    /// Duplicate-delivery probability on the ad-server → replica click
    /// channels (at-least-once replay, drawn from the per-wire seeded
    /// fault RNG). Applies under every strategy: the rewrite pass reroutes
    /// a click wire together with its channel, so an injected seal gate or
    /// sequencer sees the replays.
    pub click_duplicates: f64,
    /// Extra per-message service time at ad server 0, making it the
    /// *straggler*: its clicks and (under [`StrategyKind::Sealed`],
    /// crucially) its punctuations lag everyone else's, so a blocking seal
    /// gate stalls on it while time-warp speculation runs ahead, and an
    /// uncoordinated analyst races it. Only observable where service
    /// times apply — the simulator, or the parallel backend with
    /// `ParTuning::with_virtual_service_ns`.
    pub straggler_service: Time,
    /// Route analyst requests through an `analyst` broadcast instance
    /// wired to every replica, instead of injecting them directly. As a
    /// topology participant the analyst *races* with click ingestion on
    /// the execution substrate — the knob that surfaces the paper's
    /// Section III-A cross-instance nondeterminism on the threaded
    /// backend. Coordinated runs keep the analyst: the rewrite pass
    /// reroutes its wires through the injected gates or sequencer.
    pub requests_via_analyst: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for AdScenario {
    fn default() -> Self {
        AdScenario {
            workload: ClickWorkload::default(),
            // Declare the punctuations the workload emits and let the
            // analysis decide whether they suffice: the Blazes default.
            strategy: StrategyKind::Sealed,
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
/// [`BackendSpec::Dist`](blazes_dataflow::backend::BackendSpec::Dist) `series` is empty: those counters live inside the
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
}

/// The reporting-server replica component.
///
/// Input convention (any port): data tuples of arity 3 are clicks
/// `(id, campaign, window)`; arity 1 are requests `(id)`. A replica answers
/// every request from whatever it has ingested so far and ignores
/// punctuations — holding clicks and queries back until a partition is
/// sealed is the job of the gate the rewrite pass puts in front of it.
/// Responses are emitted on port 0.
pub struct ReportServer {
    bloom: ModuleInstance,
    series: TimeSeries,
    pending_clicks: Vec<Tuple>,
    tick_every: usize,
    name: String,
}

impl ReportServer {
    /// Build a replica running `query`.
    pub fn new(query: ReportQuery, tick_every: usize, name: impl Into<String>) -> Self {
        ReportServer {
            bloom: ModuleInstance::new(query.module()).expect("query module stratifies"),
            series: TimeSeries::new(),
            pending_clicks: Vec::new(),
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
        self.flush_clicks(ctx);
        let mut inputs = BTreeMap::new();
        inputs.insert("request".to_string(), vec![tuple]);
        let out = self.bloom.tick(inputs).expect("request tick");
        for t in out.on("response") {
            ctx.emit(0, Message::Data(t.clone()));
        }
    }
}

/// Checkpoint of a replica's state for time-warp speculation: the Bloom
/// interpreter instance plus the click batching buffer, and the length of
/// the shared processed-records series (truncated on restore).
struct ReportSnapshot {
    bloom: ModuleInstance,
    pending_clicks: Vec<Tuple>,
    series_len: usize,
}

impl Component for ReportServer {
    fn on_message(&mut self, _port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(tuple) if tuple.arity() == 3 => self.ingest_click(tuple, ctx),
            Message::Data(tuple) => self.handle_request(tuple, ctx),
            Message::Seal(_) => {}
            Message::Eos => self.flush_clicks(ctx),
        }
    }

    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(ReportSnapshot {
            bloom: self.bloom.clone(),
            pending_clicks: self.pending_clicks.clone(),
            series_len: self.series.len(),
        }))
    }

    fn restore(&mut self, snapshot: Box<dyn std::any::Any + Send>) {
        let snap = snapshot
            .downcast::<ReportSnapshot>()
            .expect("report snapshot");
        self.bloom = snap.bloom;
        self.pending_clicks = snap.pending_clicks;
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

/// Wire the ad-reporting topology of Fig. 4 onto `b`, with no coordination
/// of its own: [`crate::autocoord::assemble_ad_auto`] calls this through a
/// rewriting builder, which is where gates and sequencers come from. Only
/// `sc.strategy == Sealed` makes the ad servers emit their punctuations.
/// Returns the per-replica processed-records series and response sinks, the
/// latter paired with their backend instance ids so a distributed run can
/// tell which process owns (and must stream back) which sink.
pub(crate) fn assemble_scenario<B: ExecutorBuilder + ?Sized>(
    sc: &AdScenario,
    b: &mut B,
) -> (Vec<TimeSeries>, Vec<(InstanceId, CollectorSink)>) {
    // Reporting replicas + response sinks.
    let mut replica_ids = Vec::with_capacity(sc.replicas);
    let mut series = Vec::with_capacity(sc.replicas);
    let mut responses = Vec::with_capacity(sc.replicas);
    for r in 0..sc.replicas {
        let server = ReportServer::new(sc.query, sc.tick_every, format!("report[{r}]"));
        series.push(server.series());
        let id = b.add_instance(Box::new(server));
        b.set_service_time(id, sc.report_service);
        let sink = CollectorSink::new();
        let sid = b.add_instance(Box::new(sink.clone()));
        b.connect_with(id, PortId(0), sid, PortId(0), ChannelConfig::lan());
        responses.push((sid, sink));
        replica_ids.push(id);
    }

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
        for &rid in &replica_ids {
            b.connect_with(ad, PortId(0), rid, PortId(0), click_channel.clone());
        }
        let log = sc.workload.generate(s);
        for (at, click) in &log.clicks {
            b.inject(*at, ad, PortId(0), Message::Data(click.clone()));
        }
        latest = latest.max(log.end_time);
        if sc.strategy == StrategyKind::Sealed {
            for (at, c) in &log.seals {
                b.inject(
                    *at,
                    ad,
                    PortId(0),
                    Message::Seal(SealKey::new([
                        ("campaign", Value::Int(*c)),
                        (PRODUCER_ATTR, Value::Int(s as i64)),
                    ])),
                );
            }
        }
    }

    // Analyst requests, spread over the generation span, each posed to all
    // replicas — directly, or through an analyst broadcast instance whose
    // forwarding *races* with click ingestion on the execution substrate
    // (the race behind the paper's Section III-A cross-instance
    // nondeterminism).
    let ad_space = (sc.workload.campaigns * sc.workload.ads_per_campaign) as i64;
    let analyst = sc.requests_via_analyst.then(|| {
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
        match analyst {
            Some(analyst) => b.inject(at, analyst, PortId(0), req),
            None => {
                for &rid in &replica_ids {
                    b.inject(at, rid, PortId(0), req.clone());
                }
            }
        }
    }

    (series, responses)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::autocoord::{run_ad_auto, AutoCoordReport};
    use blazes_dataflow::backend::BackendSpec;

    /// The small scenario every ad-report unit test runs, here and in
    /// [`crate::autocoord`]: 3 × 60 clicks, 6 campaigns, 6 requests.
    pub(crate) fn scenario(
        query: ReportQuery,
        strategy: StrategyKind,
        placement: CampaignPlacement,
    ) -> AdScenario {
        AdScenario {
            workload: ClickWorkload {
                ad_servers: 3,
                entries_per_server: 60,
                batch_size: 20,
                sleep_between_batches: 50_000,
                entry_interval: 200,
                campaigns: 6,
                ads_per_campaign: 4,
                placement,
                seed: 5,
            },
            strategy,
            requests: 6,
            sequencer_service: 2_000,
            query,
            tick_every: 10,
            seed: 21,
            ..AdScenario::default()
        }
    }

    /// Run `sc` on `backend` and check what holds for every row of the
    /// suite: all 180 records reach all 3 replicas, the pass injected
    /// exactly `injected` operators, and wherever it injected any the
    /// replicas agree.
    pub(crate) fn checked_run(
        sc: &AdScenario,
        backend: &BackendSpec,
        injected: usize,
    ) -> (AdRunResult, AutoCoordReport) {
        let (res, report) = run_ad_auto(sc, backend);
        let row = format!("{:?}/{:?} on {}", sc.query, sc.strategy, backend.name());
        let totals: Vec<_> = res.series.iter().map(TimeSeries::total).collect();
        assert_eq!(res.expected_records, 180, "{row}");
        assert!(
            totals.iter().all(|&t| t == res.expected_records),
            "{row}: {totals:?}"
        );
        assert_eq!(report.stats.injected_operators, injected, "{row}");
        assert_eq!(report.stats.is_untouched(), injected == 0, "{row}");
        assert!(injected == 0 || res.responses_consistent(), "{row}");
        (res, report)
    }

    fn campaign(strategy: StrategyKind, placement: CampaignPlacement) -> AdScenario {
        scenario(ReportQuery::Campaign, strategy, placement)
    }

    #[test]
    fn uncoordinated_processes_everything() {
        let sc = campaign(StrategyKind::Uncoordinated, CampaignPlacement::Spread);
        let (res, report) = checked_run(&sc, &BackendSpec::Sim, 0);
        assert!(report.spec.is_empty(), "the analysis was told nothing");
        assert!(res.completion_time().is_some());
    }

    #[test]
    fn sealed_independent_processes_everything() {
        // One seal gate per replica; the Spread row is `autocoord`'s
        // `auto_sealed_campaign_processes_everything_and_agrees`.
        let sc = campaign(StrategyKind::Sealed, CampaignPlacement::Independent);
        let _ = checked_run(&sc, &BackendSpec::Sim, 3);
    }

    #[test]
    fn ordered_processes_everything_and_is_consistent() {
        // Punctuations withheld: one shared sequencer, and total order
        // implies agreement.
        let sc = campaign(StrategyKind::Ordered, CampaignPlacement::Spread);
        let _ = checked_run(&sc, &BackendSpec::Sim, 1);
    }

    #[test]
    fn parallel_backend_processes_everything_under_every_strategy() {
        // Figures 12–14's scenarios, threaded: every strategy must still
        // deliver all records to all replicas.
        for (strategy, injected) in [
            (StrategyKind::Uncoordinated, 0),
            (StrategyKind::Ordered, 1),
            (StrategyKind::Sealed, 3),
        ] {
            let sc = campaign(strategy, CampaignPlacement::Spread);
            let _ = checked_run(&sc, &BackendSpec::par(3), injected);
        }
    }

    #[test]
    fn parallel_sealed_responses_are_consistent() {
        // Queries wait at the gate for their partition's seal, so
        // agreement must survive real thread nondeterminism.
        let sc = campaign(StrategyKind::Sealed, CampaignPlacement::Spread);
        let _ = checked_run(&sc, &BackendSpec::par(4), 3);
    }

    #[test]
    fn ordered_is_slower_than_uncoordinated() {
        let time = |strategy| {
            let sc = campaign(strategy, CampaignPlacement::Spread);
            run_ad_auto(&sc, &BackendSpec::Sim).0.completion_time()
        };
        let fast = time(StrategyKind::Uncoordinated).unwrap();
        let slow = time(StrategyKind::Ordered).unwrap();
        assert!(slow > fast, "ordering must cost time: {slow} vs {fast}");
    }

    #[test]
    fn independent_seals_release_earlier_than_spread() {
        // Under spread placement, each campaign waits for *every* server's
        // seal, which only happens at end-of-log: releases cluster late.
        // Independent campaigns release as soon as their one master seals.
        let first_third = |placement| {
            let sc = campaign(StrategyKind::Sealed, placement);
            let (res, _) = run_ad_auto(&sc, &BackendSpec::Sim);
            res.series[0].time_to_reach(60).unwrap()
        };
        let t_ind = first_third(CampaignPlacement::Independent);
        let t_spread = first_third(CampaignPlacement::Spread);
        assert!(t_ind <= t_spread, "{t_ind} vs {t_spread}");
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
