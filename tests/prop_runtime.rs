//! Property-based tests for the runtime substrates: the simulator, the
//! seal protocol and the Bloom interpreter must uphold the semantic
//! guarantees the analysis relies on.

use blazes::bloom::interp::ModuleInstance;
use blazes::bloom::parser::parse_module;
use blazes::coord::registry::ProducerRegistry;
use blazes::coord::seal::{SealManager, SealOutcome};
use blazes::dataflow::backend::{ExecutorBuilder, PortId, Topology};
use blazes::dataflow::channel::ChannelConfig;
use blazes::dataflow::component::{Component, Context, FnComponent};
use blazes::dataflow::message::Message;
use blazes::dataflow::sim::Simulator;
use blazes::dataflow::sinks::CollectorSink;
use blazes::dataflow::value::{Tuple, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn echo() -> Box<dyn Component> {
    Box::new(FnComponent::new("echo", |_, msg, ctx: &mut Context| {
        ctx.emit(0, msg)
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once lossless delivery: every injected message arrives
    /// exactly once, whatever the jitter and seed.
    #[test]
    fn lossless_channels_deliver_exactly_once(
        seed in any::<u64>(),
        jitter in 0u64..50_000,
        n in 1usize..60,
    ) {
        let mut b = Topology::new();
        let e = b.add_instance(echo());
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(e, PortId(0), s, PortId(0), ChannelConfig::lan().with_jitter(jitter));
        for i in 0..n {
            b.inject(0, e, PortId(0), Message::data([i as i64]));
        }
        Simulator::new(b, seed).run();
        prop_assert_eq!(sink.len(), n);
        // Order-insensitive contents match exactly.
        let expected: std::collections::BTreeSet<Message> =
            (0..n).map(|i| Message::data([i as i64])).collect();
        prop_assert_eq!(sink.message_set(), expected);
    }

    /// Determinism: identical (topology, workload, seed) triples produce
    /// identical delivery orders.
    #[test]
    fn same_seed_same_trace(seed in any::<u64>(), n in 1usize..40) {
        let run = |seed: u64| {
            let mut b = Topology::new();
            let e1 = b.add_instance(echo());
            let e2 = b.add_instance(echo());
            let sink = CollectorSink::new();
            let s = b.add_instance(Box::new(sink.clone()));
            b.connect_with(e1, PortId(0), s, PortId(0), ChannelConfig::lan().with_jitter(20_000));
            b.connect_with(e2, PortId(0), s, PortId(0), ChannelConfig::lan().with_jitter(20_000));
            for i in 0..n {
                b.inject(0, e1, PortId(0), Message::data([i as i64]));
                b.inject(0, e2, PortId(0), Message::data([1_000 + i as i64]));
            }
            Simulator::new(b, seed).run();
            sink.messages()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// The seal protocol releases every partition exactly once, with
    /// exactly the tuples that were buffered, under any interleaving of
    /// data and votes.
    #[test]
    fn seal_manager_releases_exactly_once(
        producers in 1usize..5,
        partitions in 1usize..6,
        tuples_per_partition in 1usize..8,
        vote_order in any::<u64>(),
    ) {
        let mut mgr = SealManager::new(ProducerRegistry::all_produce(0..producers));
        let mut released: BTreeMap<i64, Vec<Tuple>> = BTreeMap::new();

        for p in 0..partitions as i64 {
            for t in 0..tuples_per_partition as i64 {
                let out = mgr.on_data(Value::Int(p), Tuple(vec![Value::Int(p), Value::Int(t)]));
                prop_assert_eq!(out, None);
            }
        }
        // Vote in a seed-derived order over (partition, producer) pairs.
        let mut votes: Vec<(i64, usize)> = (0..partitions as i64)
            .flat_map(|p| (0..producers).map(move |pr| (p, pr)))
            .collect();
        let len = votes.len();
        let k = (vote_order as usize % len.max(1)).max(1);
        votes.rotate_left(k % len);
        for (p, pr) in votes {
            if let SealOutcome::Released(tuples) = mgr.on_seal(Value::Int(p), pr) {
                prop_assert!(released.insert(p, tuples).is_none(), "double release");
            }
        }
        prop_assert_eq!(released.len(), partitions, "every partition released");
        for (p, tuples) in released {
            prop_assert_eq!(tuples.len(), tuples_per_partition, "partition {} complete", p);
        }
    }

    /// CALM at runtime: a monotonic Bloom module reaches the same final
    /// table contents regardless of how its inputs are split and ordered
    /// across timesteps.
    #[test]
    fn monotonic_bloom_is_order_insensitive(perm_seed in any::<u64>(), n in 1usize..12) {
        let src = "module M { input a(x) output o(x) table t(x) t <= a o <= t }";
        let run = |order: &[i64]| {
            let mut inst = ModuleInstance::new(parse_module(src).unwrap()).unwrap();
            for &x in order {
                let mut inputs = BTreeMap::new();
                inputs.insert("a".to_string(), vec![Tuple(vec![Value::Int(x)])]);
                inst.tick(inputs).unwrap();
            }
            inst.table("t")
        };
        let forward: Vec<i64> = (0..n as i64).collect();
        // A seed-derived permutation.
        let mut shuffled = forward.clone();
        let k = (perm_seed as usize % n).max(1);
        shuffled.rotate_left(k % n);
        shuffled.reverse();
        prop_assert_eq!(run(&forward), run(&shuffled));
    }

    /// Nonmonotonic queries are genuinely order-sensitive: the POOR query
    /// read at different moments gives different answers (what NDRead
    /// models). Final answers (after all input) still agree.
    #[test]
    fn poor_transient_reads_vary_but_final_agrees(split in 1usize..99) {
        let poor = blazes::apps::queries::ReportQuery::Poor.module();
        // 150 distinct clicks for ad 1: final answer is "not poor".
        let clicks: Vec<Tuple> = (0..150)
            .map(|w| Tuple(vec![Value::Int(1), Value::Int(0), Value::Int(w)]))
            .collect();
        let run = |chunks: Vec<Vec<Tuple>>| {
            let mut inst = ModuleInstance::new(poor.clone()).unwrap();
            let mut transient = Vec::new();
            for chunk in chunks {
                let mut inputs = BTreeMap::new();
                inputs.insert("click".to_string(), chunk);
                inputs.insert("request".to_string(), vec![Tuple(vec![Value::Int(1)])]);
                let out = inst.tick(inputs).unwrap();
                transient.push(out.on("response").len());
            }
            transient
        };
        let split = split.min(149);
        let early_read = run(vec![clicks[..split].to_vec(), clicks[split..].to_vec()]);
        // The early read sees ad 1 as poor (count < 100) iff split < 100;
        // the final read never does.
        prop_assert_eq!(early_read[0] > 0, split < 100);
        prop_assert_eq!(*early_read.last().unwrap(), 0, "final answer: not poor");
    }
}
