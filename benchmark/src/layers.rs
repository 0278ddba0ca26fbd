//! Per-layer *replay* measurements: the benchmark drives one layer's public
//! type directly with the workload's own generated data and times the
//! calls. These run in the traced rep, after the traced run, so they never
//! share a core with a timed run.

use blazes_apps::adreport::{seal_registry_for, AdScenario};
use blazes_apps::autocoord::{assemble_ad_auto, wordcount_ordering_config, wordcount_spec};
use blazes_apps::casestudy::{ad_network_graph, wordcount_graph};
use blazes_apps::wordcount::{wordcount_topology, WordcountScenario};
use blazes_bloom::analyze::annotate_module;
use blazes_bloom::interp::ModuleInstance;
use blazes_bloom::parser::parse_module;
use blazes_coord::seal::SealManager;
use blazes_coord::sequencer::Sequencer;
use blazes_core::graph::DataflowGraph;
use blazes_core::placement::CoordinationSpec;
use blazes_dataflow::backend::{NoopPass, RewritingBuilder};
use blazes_dataflow::component::{Component, Context};
use blazes_dataflow::dist::recover::{fnv1a, EgressLog, ReplayDedup, SeqLedger};
use blazes_dataflow::dist::wire::{self, Frame, FrameDecoder};
use blazes_dataflow::dist::ProbeBuilder;
use blazes_dataflow::message::Message;
use blazes_dataflow::sim::{InstanceId, Time};
use blazes_dataflow::value::{Tuple, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Per-layer metric values keyed by catalogue name.
pub type Layer = BTreeMap<String, f64>;

fn put(out: &mut Layer, name: &str, value: f64) {
    out.insert(name.to_string(), value);
}

/// Record several metrics at once.
pub fn put_all<const N: usize>(out: &mut Layer, entries: [(&str, f64); N]) {
    out.extend(entries.map(|(name, value)| (name.to_string(), value)));
}

/// Median over `reps` calls of `body`, in microseconds.
fn median_us(reps: usize, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per item of one timed pass over `items` items.
fn ns_per_item(items: usize, body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    body();
    start.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64
}

/// `core.*` for an ad-report workload: derive the spec from the query's
/// white-box graph (campaign punctuations declared, dynamic ordering).
pub fn core_ad(sc: &AdScenario, out: &mut Layer) {
    let (graph, _) = ad_network_graph(sc.query, Some(&["campaign"]));
    core_derive(&graph, true, out);
}

/// `core.*` for a wordcount workload: the sealed grey-box graph.
pub fn core_wordcount(out: &mut Layer) {
    let (graph, _) = wordcount_graph(true);
    core_derive(&graph, false, out);
}

fn core_derive(graph: &DataflowGraph, dynamic_ordering: bool, out: &mut Layer) {
    let derive =
        || CoordinationSpec::derive(graph, dynamic_ordering).expect("bundled graph analyzes");
    put(out, "core.directives", derive().len() as f64);
    put(
        out,
        "core.derive_us",
        median_us(200, || {
            black_box(derive());
        }),
    );
}

/// `bloom.parse_us` / `bloom.annotate_us` of one module source.
pub fn bloom_static(source: &str, out: &mut Layer) {
    let module = parse_module(source).expect("benchmark module parses");
    put(
        out,
        "bloom.parse_us",
        median_us(50, || {
            black_box(parse_module(black_box(source)).expect("benchmark module parses"));
        }),
    );
    put(
        out,
        "bloom.annotate_us",
        median_us(50, || {
            black_box(annotate_module(&module).expect("benchmark module annotates"));
        }),
    );
}

/// One generated ad-server event, in injection order.
enum AdEvent {
    Click(Tuple),
    Seal { campaign: i64, producer: usize },
}

/// Every server's clicks and seals merged by timestamp (ties by server,
/// clicks before seals), the order a FIFO network would deliver them in.
fn ad_events(sc: &AdScenario) -> Vec<AdEvent> {
    let mut timed: Vec<(Time, usize, u8, AdEvent)> = Vec::new();
    for server in 0..sc.workload.ad_servers {
        let log = sc.workload.generate(server);
        for (at, click) in log.clicks {
            timed.push((at, server, 0, AdEvent::Click(click)));
        }
        for (at, campaign) in log.seals {
            timed.push((
                at,
                server,
                1,
                AdEvent::Seal {
                    campaign,
                    producer: server,
                },
            ));
        }
    }
    timed.sort_by_key(|(at, server, kind, _)| (*at, *server, *kind));
    timed.into_iter().map(|(_, _, _, event)| event).collect()
}

fn ad_clicks(sc: &AdScenario) -> Vec<Tuple> {
    ad_events(sc)
        .into_iter()
        .filter_map(|event| match event {
            AdEvent::Click(click) => Some(click),
            AdEvent::Seal { .. } => None,
        })
        .collect()
}

/// `bloom.tick_*` and the Bloom counters for an ad-report workload: feed a
/// standalone instance of the Report module the workload's clicks
/// `tick_every` at a time, timing every tick — one replica's Bloom work
/// with the dataflow runtime taken away.
pub fn bloom_ticks(sc: &AdScenario, out: &mut Layer) {
    let mut instance = ModuleInstance::new(sc.query.module()).expect("query module stratifies");
    let clicks = ad_clicks(sc);
    let mut tick_us = Vec::with_capacity(clicks.len() / sc.tick_every.max(1) + 1);
    for chunk in clicks.chunks(sc.tick_every.max(1)) {
        let inputs = BTreeMap::from([("click".to_string(), chunk.to_vec())]);
        let start = Instant::now();
        black_box(instance.tick(inputs).expect("click tick"));
        tick_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let tenth = (tick_us.len() / 10).max(1);
    let first = median(&tick_us[..tenth]);
    let last = median(&tick_us[tick_us.len() - tenth..]);
    put(out, "bloom.tick_us_first", first);
    put(out, "bloom.tick_us_last", last);
    put(
        out,
        "bloom.tick_growth",
        if first > 0.0 { last / first } else { 0.0 },
    );
    let total_s = tick_us.iter().sum::<f64>() / 1e6;
    bloom_counters(&instance, total_s, out);
}

/// The engine's own cumulative counters, and derivations per second over
/// `seconds` of tick time.
pub fn bloom_counters(instance: &ModuleInstance, seconds: f64, out: &mut Layer) {
    let stats = instance.cumulative_stats();
    put(out, "bloom.derivations", stats.derivations as f64);
    put(out, "bloom.join_probes", stats.join_probes as f64);
    put(out, "bloom.fixpoint_iters", stats.fixpoint_iters as f64);
    put(
        out,
        "bloom.derivations_per_s",
        if seconds > 0.0 {
            stats.derivations as f64 / seconds
        } else {
            0.0
        },
    );
}

/// `coord.seal_ns_per_op`: the seal protocol's bookkeeping over the
/// workload's partition stream, without a gate or a runtime around it.
pub fn coord_seal(sc: &AdScenario, out: &mut Layer) {
    let events = ad_events(sc);
    let mut manager = SealManager::new(seal_registry_for(&sc.workload));
    let ops = events.len();
    put(
        out,
        "coord.seal_ns_per_op",
        ns_per_item(ops, || {
            for event in events {
                match event {
                    AdEvent::Click(click) => {
                        let campaign = click.get(1).cloned().expect("click has a campaign");
                        black_box(manager.on_data(campaign, click));
                    }
                    AdEvent::Seal { campaign, producer } => {
                        black_box(manager.on_seal(Value::Int(campaign), producer));
                    }
                }
            }
        }),
    );
}

/// `coord.sequencer_ns_per_msg`: the sequencer component's handler over
/// the workload's clicks, one fresh context per message as a runtime
/// hands it.
pub fn coord_sequencer(sc: &AdScenario, out: &mut Layer) {
    let messages: Vec<Message> = ad_clicks(sc).into_iter().map(Message::Data).collect();
    let mut sequencer = Sequencer::new();
    let count = messages.len();
    put(
        out,
        "coord.sequencer_ns_per_msg",
        ns_per_item(count, || {
            for msg in messages {
                let mut ctx = Context::new(0, InstanceId(0));
                sequencer.on_message(0, msg, &mut ctx);
                black_box(ctx);
            }
        }),
    );
}

/// `autocoord.rewrite_us` for an ad-report workload: the whole assembly
/// through the rewrite pass onto a structure-only builder.
pub fn autocoord_rewrite_ad(sc: &AdScenario, out: &mut Layer) {
    put(
        out,
        "autocoord.rewrite_us",
        median_us(5, || {
            let mut probe = ProbeBuilder::new();
            black_box(assemble_ad_auto(sc, false, &mut probe).report.stats);
        }),
    );
}

/// `autocoord.rewrite_us` and `storm.assemble_ms` for a wordcount workload:
/// topology construction plus assembly onto a structure-only builder, with
/// and without the (no-op) rewrite pass in between.
pub fn wordcount_assembly(sc: &WordcountScenario, out: &mut Layer) {
    put(
        out,
        "storm.assemble_ms",
        median_us(3, || {
            let (topology, _) = wordcount_topology(sc);
            let mut probe = ProbeBuilder::new();
            black_box(topology.assemble(&mut probe));
        }) / 1e3,
    );
    let spec = wordcount_spec(true);
    put(
        out,
        "autocoord.rewrite_us",
        median_us(3, || {
            let (mut topology, _) = wordcount_topology(sc);
            topology
                .apply_coordination(&spec, &wordcount_ordering_config(sc))
                .expect("spec fits the wordcount topology");
            let mut probe = ProbeBuilder::new();
            let mut rewriting = RewritingBuilder::new(&mut probe, NoopPass);
            black_box(topology.assemble(&mut rewriting));
            black_box(rewriting.finish().1);
        }),
    );
}

/// How many of the workload's messages the wire and recovery replays use.
const WIRE_MESSAGES: usize = 100_000;
/// Wires the replayed frames are spread over (the wordcount has a few
/// dozen cross wires; sequence numbers are per wire).
const WIRES: u64 = 16;
/// Frames between acknowledgement rounds, about one heartbeat's worth.
const ACK_EVERY: usize = 4_096;

/// The wordcount's own cross-process traffic: tweets and the words they
/// split into, in generation order.
fn wordcount_messages(sc: &WordcountScenario) -> Vec<Message> {
    let mut out = Vec::with_capacity(WIRE_MESSAGES);
    'spouts: for spout in 0..sc.spouts {
        for (_, tweet) in sc.workload.generate(spout) {
            let words: Vec<Tuple> = match (
                tweet.get(0).and_then(Value::as_str),
                tweet.get(1).and_then(Value::as_int),
            ) {
                (Some(text), Some(batch)) => text
                    .split_whitespace()
                    .map(|w| Tuple(vec![Value::str(w), Value::Int(batch)]))
                    .collect(),
                _ => Vec::new(),
            };
            out.push(Message::Data(tweet));
            out.extend(words.into_iter().map(Message::Data));
            if out.len() >= WIRE_MESSAGES {
                break 'spouts;
            }
        }
    }
    out.truncate(WIRE_MESSAGES);
    out
}

/// `wire.*` and `recover.*`: the codec and the always-on recovery
/// bookkeeping a cross-process tuple pays, over the workload's own
/// messages.
pub fn wire_and_recover(sc: &WordcountScenario, out: &mut Layer) {
    let frames: Vec<Frame> = wordcount_messages(sc)
        .into_iter()
        .enumerate()
        .map(|(i, msg)| Frame::Data {
            wire: i as u64 % WIRES,
            seq: i as u64 / WIRES,
            msg,
        })
        .collect();
    let n = frames.len();

    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(n);
    put(
        out,
        "wire.encode_ns_per_frame",
        ns_per_item(n, || {
            for frame in &frames {
                encoded.push(wire::encode(frame));
            }
        }),
    );
    let stream: Vec<u8> = encoded.concat();
    put(
        out,
        "wire.bytes_per_frame",
        stream.len() as f64 / n.max(1) as f64,
    );

    let mut decoded = 0usize;
    put(
        out,
        "wire.decode_ns_per_frame",
        ns_per_item(n, || {
            let mut decoder = FrameDecoder::new();
            for chunk in stream.chunks(64 * 1024) {
                decoder.push(chunk);
                while let Some(frame) = decoder.next_frame().expect("own encoding decodes") {
                    black_box(frame);
                    decoded += 1;
                }
            }
        }),
    );
    assert_eq!(decoded, n, "every encoded frame decodes");

    // Worker side: log each frame before writing it, trim on acks.
    let mut log = EgressLog::new();
    put(
        out,
        "recover.egress_log_ns_per_frame",
        ns_per_item(n, || {
            for (i, bytes) in encoded.iter().enumerate() {
                let (wire, seq) = (i as u64 % WIRES, i as u64 / WIRES);
                log.append(wire, seq, bytes.clone());
                if (i + 1) % ACK_EVERY == 0 {
                    for w in 0..WIRES {
                        log.ack(w, seq.saturating_sub(1));
                    }
                }
            }
        }),
    );
    black_box(log.len());

    // Coordinator side: sequence check, then content hash + replay filter.
    let mut ledger = SeqLedger::new();
    put(
        out,
        "recover.seq_ledger_ns_per_frame",
        ns_per_item(n, || {
            for i in 0..n as u64 {
                black_box(ledger.accept(i % WIRES, i / WIRES));
            }
        }),
    );
    let mut dedup = ReplayDedup::new();
    let mut routed: Vec<Vec<u64>> = vec![Vec::new(); WIRES as usize];
    put(
        out,
        "recover.dedup_ns_per_frame",
        ns_per_item(n, || {
            for frame in &frames {
                let Frame::Data { wire, msg, .. } = frame else {
                    continue;
                };
                let hash = fnv1a(&wire::message_bytes(msg));
                if dedup.admit(*wire, hash) {
                    routed[*wire as usize].push(hash);
                }
            }
        }),
    );
    black_box(routed);
}

/// `wire.sink_result_bytes`: the encoded size of the frame that carries a
/// sink's whole contents back to the coordinator.
pub fn sink_result_bytes(entries: Vec<(Time, Message)>) -> f64 {
    wire::encode(&Frame::SinkResult { sink: 0, entries }).len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ad_scenario, wordcount_scenario, Size, Workload};

    #[test]
    fn replays_fill_their_metrics_at_smoke_size() {
        let mut out = Layer::new();
        let ad = ad_scenario(Workload::AdSealPar, 0, Size::Smoke);
        core_ad(&ad, &mut out);
        bloom_static(&ad.query.module_source(), &mut out);
        bloom_ticks(&ad, &mut out);
        coord_seal(&ad, &mut out);
        coord_sequencer(&ad, &mut out);
        autocoord_rewrite_ad(&ad, &mut out);
        let wc = wordcount_scenario(Workload::WordcountDist, 0, Size::Smoke);
        wordcount_assembly(&wc, &mut out);
        wire_and_recover(&wc, &mut out);
        for (name, value) in &out {
            assert!(
                crate::metrics::per_layer(name).is_some(),
                "{name} is not in the catalogue"
            );
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        assert_eq!(
            out["core.directives"], 1.0,
            "the CAMPAIGN query seals Report"
        );
        assert!(out.len() >= 20);
    }

    #[test]
    fn ad_events_cover_every_click_and_seal_in_time_order() {
        let sc = ad_scenario(Workload::AdSealPar, 3, Size::Smoke);
        let events = ad_events(&sc);
        let clicks = events
            .iter()
            .filter(|e| matches!(e, AdEvent::Click(_)))
            .count();
        assert_eq!(clicks, sc.workload.total_entries());
        assert_eq!(
            events.len() - clicks,
            sc.workload.ad_servers * sc.workload.campaigns
        );
    }
}
