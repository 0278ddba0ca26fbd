//! The benchmark's own tracing: a decorator around every component of a
//! traced run, and the phase spans of every rep.
//!
//! Nothing here touches the program: [`TracingBuilder`] wraps any
//! [`ExecutorBuilder`] the same way `RewritingBuilder` does, and boxes each
//! added instance — gates and sequencers the rewrite pass allocates beneath
//! it included — in a [`Traced`] decorator that forwards every `Component`
//! method and counts, per instance, messages in, emissions out and
//! nanoseconds spent inside the handler. Instances aggregate into *name
//! families* (`report[2]` → `report`, `autocoord-seal(Report@3:0)` →
//! `autocoord-seal`), which is what the per-layer busy shares are computed
//! from. Gate instances additionally match each covered tuple's arrival to
//! its re-emission to measure how long the gate held it.

use crate::json::Json;
use blazes_dataflow::backend::{ChannelId, ExecutorBuilder, PortId};
use blazes_dataflow::channel::ChannelConfig;
use blazes_dataflow::component::{Component, Context};
use blazes_dataflow::message::Message;
use blazes_dataflow::sim::{InstanceId, Time};
use blazes_dataflow::value::Tuple;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Name family of the injected seal gates.
pub const GATE_FAMILY: &str = "autocoord-seal";
/// Name family of the injected (and hand-wired) sequencer.
pub const SEQUENCER_FAMILY: &str = "sequencer";
/// Name family of the Bloom-backed report replicas.
pub const REPORT_FAMILY: &str = "report";

/// Counters of one traced instance. Relaxed atomics: each is a statistic
/// that publishes no other data, and an instance is only ever run by one
/// thread at a time.
#[derive(Debug)]
struct Probe {
    name: String,
    messages_in: AtomicU64,
    emitted: AtomicU64,
    busy_ns: AtomicU64,
    /// Gate instances only: nanoseconds each released tuple was held.
    holds_ns: Mutex<Vec<u64>>,
}

/// Where the probes of one traced assembly are registered; cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    probes: Arc<Mutex<Vec<Arc<Probe>>>>,
}

/// Per-family totals of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FamilyAgg {
    /// Instances in the family.
    pub instances: u64,
    /// Messages delivered to the family's handlers.
    pub messages_in: u64,
    /// Messages the handlers emitted.
    pub emitted: u64,
    /// Nanoseconds spent inside the handlers.
    pub busy_ns: u64,
}

/// Everything a traced run measured, mergeable across processes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Totals per name family.
    pub families: BTreeMap<String, FamilyAgg>,
    /// Hold time of every tuple released by an injected gate.
    pub gate_holds_ns: Vec<u64>,
}

impl TraceSink {
    /// A sink with no probes yet.
    pub fn new() -> Self {
        TraceSink::default()
    }

    fn register(&self, name: &str) -> Arc<Probe> {
        let probe = Arc::new(Probe {
            name: name.to_string(),
            messages_in: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            holds_ns: Mutex::new(Vec::new()),
        });
        self.probes
            .lock()
            .expect("no thread panics while holding the probe list")
            .push(Arc::clone(&probe));
        probe
    }

    /// Fold every probe into per-family totals. Instances that never ran
    /// (the coordinator's structure-only assembly of a dist run) are left
    /// out so they do not inflate instance counts.
    pub fn summary(&self) -> TraceSummary {
        let mut out = TraceSummary::default();
        for probe in self
            .probes
            .lock()
            .expect("no thread panics while holding the probe list")
            .iter()
        {
            let messages_in = probe.messages_in.load(Ordering::Relaxed);
            let busy_ns = probe.busy_ns.load(Ordering::Relaxed);
            if messages_in == 0 && busy_ns == 0 {
                continue;
            }
            let agg = out.families.entry(family_of(&probe.name)).or_default();
            agg.instances += 1;
            agg.messages_in += messages_in;
            agg.emitted += probe.emitted.load(Ordering::Relaxed);
            agg.busy_ns += busy_ns;
            out.gate_holds_ns.extend(
                probe
                    .holds_ns
                    .lock()
                    .expect("no thread panics while holding a hold list")
                    .iter(),
            );
        }
        out
    }
}

/// `report[2]` → `report`, `autocoord-seal(Report@3:0)` → `autocoord-seal`.
pub fn family_of(name: &str) -> String {
    name.split(['[', '(']).next().unwrap_or(name).to_string()
}

impl TraceSummary {
    /// Add another process's summary into this one.
    pub fn merge(&mut self, other: &TraceSummary) {
        for (family, agg) in &other.families {
            let mine = self.families.entry(family.clone()).or_default();
            mine.instances += agg.instances;
            mine.messages_in += agg.messages_in;
            mine.emitted += agg.emitted;
            mine.busy_ns += agg.busy_ns;
        }
        self.gate_holds_ns.extend(&other.gate_holds_ns);
    }

    /// Nanoseconds busy summed over every family.
    pub fn total_busy_ns(&self) -> u64 {
        self.families.values().map(|f| f.busy_ns).sum()
    }

    /// The family's totals (zero when no such component ran).
    pub fn family(&self, family: &str) -> FamilyAgg {
        self.families.get(family).cloned().unwrap_or_default()
    }

    /// Share of all handler time spent in `family`; 0 when nothing ran.
    pub fn busy_share(&self, family: &str) -> f64 {
        let total = self.total_busy_ns();
        if total == 0 {
            return 0.0;
        }
        self.family(family).busy_ns as f64 / total as f64
    }

    /// JSON form, for worker summary files and rep results.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "families",
                Json::Obj(
                    self.families
                        .iter()
                        .map(|(name, f)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("instances", Json::from(f.instances)),
                                    ("messages_in", Json::from(f.messages_in)),
                                    ("emitted", Json::from(f.emitted)),
                                    ("busy_ns", Json::from(f.busy_ns)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "gate_holds_ns",
                Json::Arr(self.gate_holds_ns.iter().map(|&h| Json::from(h)).collect()),
            ),
        ])
    }

    /// Read back what [`TraceSummary::to_json`] wrote.
    pub fn from_json(json: &Json) -> Option<TraceSummary> {
        let mut out = TraceSummary::default();
        for (name, f) in json.get("families")?.as_obj()? {
            out.families.insert(
                name.clone(),
                FamilyAgg {
                    instances: f.get("instances")?.as_u64()?,
                    messages_in: f.get("messages_in")?.as_u64()?,
                    emitted: f.get("emitted")?.as_u64()?,
                    busy_ns: f.get("busy_ns")?.as_u64()?,
                },
            );
        }
        for h in json.get("gate_holds_ns")?.as_arr()? {
            out.gate_holds_ns.push(h.as_u64()?);
        }
        Some(out)
    }
}

/// The decorator: forwards every [`Component`] method to `inner` and
/// accounts for the call in its probe.
struct Traced {
    inner: Box<dyn Component>,
    probe: Arc<Probe>,
    /// Gate instances only: arrival instants of tuples not yet re-emitted,
    /// FIFO per distinct tuple so duplicates pair first-in first-out.
    pending: Option<HashMap<Tuple, VecDeque<Instant>>>,
}

impl Traced {
    /// Run one handler of `inner`, charging its time and emissions.
    fn observe(&mut self, ctx: &mut Context, call: impl FnOnce(&mut dyn Component, &mut Context)) {
        let emitted_before = ctx.emitted().len();
        let start = Instant::now();
        call(self.inner.as_mut(), ctx);
        let end = Instant::now();
        self.probe
            .busy_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        let new = &ctx.emitted()[emitted_before..];
        self.probe
            .emitted
            .fetch_add(new.len() as u64, Ordering::Relaxed);
        if let Some(pending) = &mut self.pending {
            let mut holds = self
                .probe
                .holds_ns
                .lock()
                .expect("no thread panics while holding a hold list");
            for (_, msg) in new {
                let Some(tuple) = msg.as_data() else { continue };
                if let Some(queue) = pending.get_mut(tuple) {
                    if let Some(arrived) = queue.pop_front() {
                        holds.push((end - arrived).as_nanos() as u64);
                    }
                    if queue.is_empty() {
                        pending.remove(tuple);
                    }
                }
            }
        }
    }
}

impl Component for Traced {
    fn on_message(&mut self, port: usize, msg: Message, ctx: &mut Context) {
        self.probe.messages_in.fetch_add(1, Ordering::Relaxed);
        if let (Some(pending), Some(tuple)) = (&mut self.pending, msg.as_data()) {
            pending
                .entry(tuple.clone())
                .or_default()
                .push_back(Instant::now());
        }
        self.observe(ctx, |inner, ctx| inner.on_message(port, msg, ctx));
    }

    fn on_tick(&mut self, ctx: &mut Context) {
        self.observe(ctx, |inner, ctx| inner.on_tick(ctx));
    }

    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: Box<dyn std::any::Any + Send>) {
        self.inner.restore(snapshot);
    }

    fn on_drain(&mut self, ctx: &mut Context) {
        self.observe(ctx, |inner, ctx| inner.on_drain(ctx));
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// An [`ExecutorBuilder`] that decorates every instance added through it
/// and forwards everything else untouched.
pub struct TracingBuilder<'a, B: ExecutorBuilder + ?Sized> {
    inner: &'a mut B,
    sink: TraceSink,
}

impl<'a, B: ExecutorBuilder + ?Sized> TracingBuilder<'a, B> {
    /// Wrap `inner`, registering every instance's probe with `sink`.
    pub fn new(inner: &'a mut B, sink: TraceSink) -> Self {
        TracingBuilder { inner, sink }
    }
}

impl<B: ExecutorBuilder + ?Sized> ExecutorBuilder for TracingBuilder<'_, B> {
    fn add_instance(&mut self, component: Box<dyn Component>) -> InstanceId {
        let probe = self.sink.register(component.name());
        let is_gate = family_of(component.name()) == GATE_FAMILY;
        self.inner.add_instance(Box::new(Traced {
            inner: component,
            probe,
            pending: is_gate.then(HashMap::new),
        }))
    }

    fn set_service_time(&mut self, id: InstanceId, service: Time) {
        self.inner.set_service_time(id, service);
    }

    fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        self.inner.add_channel(cfg)
    }

    fn connect(
        &mut self,
        from: InstanceId,
        out_port: PortId,
        to: InstanceId,
        in_port: PortId,
        channel: ChannelId,
    ) {
        self.inner.connect(from, out_port, to, in_port, channel);
    }

    fn inject(&mut self, at: Time, to: InstanceId, port: PortId, msg: Message) {
        self.inner.inject(at, to, port, msg);
    }
}

/// One timed interval of a rep. Spans of one rep share its root's id in
/// `root`; a root span has `parent == 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one trace file, starting at 1.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// The rep this span belongs to.
    pub root: u64,
    /// `rep` for a root; otherwise `setup.generate`, `setup.analyze`,
    /// `setup.assemble`, `run` or `check`.
    pub name: String,
    /// Microseconds since the benchmark started.
    pub start_us: u64,
    /// Length in microseconds.
    pub dur_us: u64,
}

impl Span {
    /// JSON form for the trace file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id)),
            ("parent", Json::from(self.parent)),
            ("root", Json::from(self.root)),
            ("name", Json::str(self.name.clone())),
            ("start_us", Json::from(self.start_us)),
            ("dur_us", Json::from(self.dur_us)),
        ])
    }
}

/// Phase timer of one rep: `(name, start, length)` in microseconds since
/// the rep's process started. The orchestrator turns these into [`Span`]s
/// under the rep's root.
#[derive(Debug)]
pub struct Phases {
    origin: Instant,
    done: Vec<(String, u64, u64)>,
}

impl Phases {
    /// Start the rep's clock.
    pub fn start() -> Self {
        Phases {
            origin: Instant::now(),
            done: Vec::new(),
        }
    }

    /// Time `body` as phase `name`.
    pub fn time<T>(&mut self, name: &str, body: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let out = body();
        let end = self.origin.elapsed();
        self.done.push((
            name.to_string(),
            start.as_micros() as u64,
            (end - start).as_micros() as u64,
        ));
        out
    }

    /// The recorded phases.
    pub fn into_vec(self) -> Vec<(String, u64, u64)> {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_dataflow::component::FnComponent;

    #[test]
    fn families_strip_instance_suffixes() {
        assert_eq!(family_of("report[2]"), "report");
        assert_eq!(family_of("autocoord-seal(Report@3:0)"), GATE_FAMILY);
        assert_eq!(family_of("sequencer"), SEQUENCER_FAMILY);
        assert_eq!(family_of("Count[0]"), "Count");
    }

    #[test]
    fn decorator_counts_messages_emissions_and_holds() {
        // A stand-in gate: holds every tuple until an Eos, then releases all.
        let mut held = Vec::new();
        let gate = FnComponent::new(
            "autocoord-seal(X@0:0)",
            move |_, msg: Message, ctx: &mut Context| match msg {
                Message::Eos => {
                    for m in held.drain(..) {
                        ctx.emit(0, m);
                    }
                }
                other => held.push(other),
            },
        );
        let sink = TraceSink::new();
        // Reach the decorator the way a run does: through the builder.
        struct Capture(Option<Box<dyn Component>>);
        impl ExecutorBuilder for Capture {
            fn add_instance(&mut self, c: Box<dyn Component>) -> InstanceId {
                self.0 = Some(c);
                InstanceId(0)
            }
            fn set_service_time(&mut self, _: InstanceId, _: Time) {}
            fn add_channel(&mut self, _: ChannelConfig) -> ChannelId {
                ChannelId(0)
            }
            fn connect(
                &mut self,
                _: InstanceId,
                _: PortId,
                _: InstanceId,
                _: PortId,
                _: ChannelId,
            ) {
            }
            fn inject(&mut self, _: Time, _: InstanceId, _: PortId, _: Message) {}
        }
        let mut capture = Capture(None);
        TracingBuilder::new(&mut capture, sink.clone()).add_instance(Box::new(gate));
        let mut traced = capture.0.expect("instance reached the inner builder");
        assert_eq!(traced.name(), "autocoord-seal(X@0:0)");

        let mut ctx = Context::new(0, InstanceId(0));
        traced.on_message(0, Message::data([1i64]), &mut ctx);
        traced.on_message(0, Message::data([1i64]), &mut ctx);
        traced.on_message(0, Message::data([2i64]), &mut ctx);
        assert!(ctx.emitted().is_empty());
        traced.on_message(0, Message::Eos, &mut ctx);
        assert_eq!(ctx.emitted().len(), 3);

        let summary = sink.summary();
        let gate = summary.family(GATE_FAMILY);
        assert_eq!((gate.instances, gate.messages_in, gate.emitted), (1, 4, 3));
        assert_eq!(
            summary.gate_holds_ns.len(),
            3,
            "one hold per released tuple"
        );
        assert!(summary.busy_share(GATE_FAMILY) <= 1.0);
        let back = TraceSummary::from_json(&Json::parse(&summary.to_json().to_string()).unwrap());
        assert_eq!(back, Some(summary));
    }

    #[test]
    fn phases_record_in_order_without_overlap() {
        let mut phases = Phases::start();
        phases.time("setup.generate", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert_eq!(phases.time("run", || 7), 7);
        let done = phases.into_vec();
        assert_eq!(done.len(), 2);
        assert!(done[0].2 >= 2_000, "the sleep is inside the first phase");
        assert!(done[1].1 >= done[0].1 + done[0].2, "phases do not overlap");
    }
}
