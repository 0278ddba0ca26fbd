//! The benchmark's metric catalogue: every end-to-end and per-layer metric
//! by name, with its unit, which way is better, where the number comes
//! from (in the README) and — written down before anything was measured —
//! which end-to-end metric on which workload it is expected to move. `BENCHMARK.json` and
//! the README's glossary carry the same names; a unit test keeps the three
//! in step.

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Must the value repeat exactly for a fixed seed?
    pub exact: bool,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn end_to_end(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
        moves,
    }
}

const fn exact(name: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better: "lower",
        exact: true,
        moves,
    }
}

/// The end-to-end metrics every workload reports.
pub const END_TO_END: [MetricDef; 3] = [
    end_to_end("throughput_rps", "1/s", "higher"),
    end_to_end("setup_s", "s", "lower"),
    end_to_end("peak_rss_mb", "MiB", "lower"),
];

const ADREPORT: &str = "throughput_rps on adreport-*";
const BLOOM_TC: &str = "throughput_rps on bloom-tc";
const WC_DIST: &str = "throughput_rps on wordcount-dist";
const PAR_ALL: &str = "explains throughput_rps on *-par";

/// The per-layer metrics a traced run reports. Layers are the repo's
/// crates and modules.
pub const PER_LAYER: [MetricDef; 50] = [
    layer(
        "core.derive_us",
        "us",
        "lower",
        "setup_s, all dataflow workloads (tiny share)",
    ),
    exact("core.directives", "correctness pin"),
    layer(
        "bloom.parse_us",
        "us",
        "lower",
        "setup_s on adreport-*, bloom-tc",
    ),
    layer(
        "bloom.annotate_us",
        "us",
        "lower",
        "setup_s on adreport-*, bloom-tc",
    ),
    layer(
        "bloom.busy_share",
        "ratio",
        "lower",
        "throughput_rps on adreport-*; 0 on wordcount-*",
    ),
    layer("bloom.tick_us_first", "us", "lower", ADREPORT),
    layer("bloom.tick_us_last", "us", "lower", ADREPORT),
    layer(
        "bloom.tick_growth",
        "ratio",
        "lower",
        "throughput_rps on adreport-* (per-tick cost tracks total state)",
    ),
    exact("bloom.derivations", BLOOM_TC),
    exact("bloom.join_probes", BLOOM_TC),
    exact("bloom.fixpoint_iters", BLOOM_TC),
    layer("bloom.derivations_per_s", "1/s", "higher", BLOOM_TC),
    layer(
        "coord.seal_ns_per_op",
        "ns",
        "lower",
        "throughput_rps on adreport-seal-par",
    ),
    layer(
        "coord.sequencer_ns_per_msg",
        "ns",
        "lower",
        "throughput_rps on adreport-order-par",
    ),
    layer(
        "coord.sequencer_busy_share",
        "ratio",
        "lower",
        "throughput_rps on adreport-order-par only",
    ),
    layer(
        "autocoord.rewrite_us",
        "us",
        "lower",
        "setup_s on every dataflow workload",
    ),
    exact("autocoord.injected_ops", "correctness pin (3 / 1 / 0 / 0)"),
    layer(
        "autocoord.gate_busy_share",
        "ratio",
        "lower",
        "throughput_rps on adreport-seal-par",
    ),
    exact(
        "autocoord.gate_records_in",
        "throughput_rps on adreport-seal-par",
    ),
    exact(
        "autocoord.gate_records_out",
        "throughput_rps on adreport-seal-par",
    ),
    layer(
        "autocoord.gate_hold_ms_p50",
        "ms",
        "lower",
        "throughput_rps on adreport-seal-par",
    ),
    layer(
        "autocoord.gate_hold_ms_p99",
        "ms",
        "lower",
        "throughput_rps on adreport-seal-par",
    ),
    exact("par.events", PAR_ALL),
    layer("par.steals", "count", "lower", PAR_ALL),
    layer("par.parks", "count", "lower", PAR_ALL),
    layer("par.wakeups", "count", "lower", PAR_ALL),
    layer("par.push_retries", "count", "lower", PAR_ALL),
    layer("par.balance", "ratio", "lower", PAR_ALL),
    layer(
        "par.runtime_share",
        "ratio",
        "lower",
        "throughput_rps on wordcount-par (large share), barely on adreport-*",
    ),
    layer(
        "par.ns_per_event",
        "ns",
        "lower",
        "throughput_rps on wordcount-par",
    ),
    layer("storm.assemble_ms", "ms", "lower", "setup_s on wordcount-*"),
    layer(
        "storm.splitter_busy_share",
        "ratio",
        "lower",
        "throughput_rps on wordcount-*",
    ),
    layer(
        "storm.count_busy_share",
        "ratio",
        "lower",
        "throughput_rps on wordcount-*",
    ),
    layer(
        "storm.commit_busy_share",
        "ratio",
        "lower",
        "throughput_rps on wordcount-*",
    ),
    exact("dist.frames_routed", WC_DIST),
    layer("dist.frames_per_record", "ratio", "lower", WC_DIST),
    layer("dist.heartbeats", "count", "lower", WC_DIST),
    layer("dist.probe_rounds", "count", "lower", WC_DIST),
    layer("dist.fixed_cost_ms", "ms", "lower", WC_DIST),
    layer(
        "dist.overhead_ratio",
        "ratio",
        "lower",
        "the number a star-bypass or batching change should shrink",
    ),
    layer("wire.encode_ns_per_frame", "ns", "lower", WC_DIST),
    layer("wire.decode_ns_per_frame", "ns", "lower", WC_DIST),
    layer("wire.bytes_per_frame", "bytes", "lower", WC_DIST),
    layer(
        "wire.sink_result_bytes",
        "bytes",
        "lower",
        "headroom under the 16 MiB MAX_FRAME cap on wordcount-dist",
    ),
    layer("recover.egress_log_ns_per_frame", "ns", "lower", WC_DIST),
    layer("recover.seq_ledger_ns_per_frame", "ns", "lower", WC_DIST),
    layer("recover.dedup_ns_per_frame", "ns", "lower", WC_DIST),
    layer(
        "sim.baseline_rps",
        "1/s",
        "higher",
        "baseline only: divides throughput_rps on adreport-seal-par",
    ),
    layer("sim.events_per_s", "1/s", "higher", "baseline only"),
    layer(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "must stay near 1, or the per-layer shares are suspect",
    ),
];

/// Look a per-layer metric up by name.
#[cfg(test)]
pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(m.better, "higher" | "lower"));
        }
        assert!(PER_LAYER.iter().all(|m| !m.moves.is_empty()));
    }
}
