//! The two case studies' dataflow graphs for the Blazes analyzer,
//! reproducing the derivations of the paper's Section VI. Each is the
//! recording of the topology that runs, lowered
//! ([`blazes_autocoord::lower()`]) with an annotation table:
//!
//! * [`wordcount_graph`]: the grey-box, manual annotations of Section VI-A.
//! * [`ad_network_graph`]: the **white-box** Report annotations (gates and
//!   lineage) [`blazes_bloom::analyze::annotate_module`] derives from the
//!   query's Bloom source. The executed network has no Cache tier: the
//!   per-replica response sinks are the paper's replicated Cache (`CW`
//!   response → response, feeding the analyst), and requests enter the
//!   Report replicas directly.

use crate::adreport::{assemble_scenario, AdScenario, StrategyKind};
use crate::queries::ReportQuery;
use crate::wordcount::{wordcount_topology, WordcountScenario};
use crate::workload::{ClickWorkload, TweetWorkload};
use blazes_autocoord::{lower, Annotations, ComponentDecl, Role, StreamDecl};
use blazes_bloom::analyze::annotate_module;
use blazes_core::annotation::ComponentAnnotation;
use blazes_core::graph::{DataflowGraph, PathSpec, SinkId};
use blazes_dataflow::backend::Topology;

/// The attributes of the click records the ad servers emit, in column
/// order.
pub(crate) const CLICK_ATTRS: [&str; 3] = ["id", "campaign", "window"];

/// The annotation table of the Storm wordcount (Section VI-A1), its tweet
/// stream optionally sealed on `batch`.
#[must_use]
pub(crate) fn wordcount_annotations(sealed: bool) -> Annotations {
    let seal = sealed.then_some(&["batch"][..]);
    let tweets = StreamDecl::new("tweets", &["word", "batch"], seal, "in");
    let bolt = |name, a| Role::Component(ComponentDecl::one_path(name, "in", "out", a));
    let count = ComponentAnnotation::ow(["word", "batch"]);
    Annotations::new("wordcount")
        .with("tweets", Role::Source(tweets))
        .with("Splitter", bolt("Splitter", ComponentAnnotation::cr()))
        .with("Count", bolt("Count", count))
        .with("Commit", bolt("Commit", ComponentAnnotation::cw()))
        .with("collector-sink", Role::Sink("store".to_string()))
}

/// The wordcount dataflow with the Section VI-A1 annotations, optionally
/// sealed on `batch`: the recording of `wordcount_topology`, built with one
/// instance per node and no tweets (its shape does not depend on either),
/// lowered.
///
/// # Panics
/// Panics only if the lowering stops producing a valid graph — a bug.
#[must_use]
pub fn wordcount_graph(sealed: bool) -> (DataflowGraph, SinkId) {
    let sc = WordcountScenario {
        workers: 1,
        spouts: 1,
        committers: 1,
        workload: TweetWorkload {
            batches: 0,
            vocabulary: 1,
            ..TweetWorkload::default()
        },
        ..WordcountScenario::default()
    };
    let mut recorded = Topology::new();
    let _ = wordcount_topology(&sc).0.assemble(&mut recorded);
    let g = lower(&recorded, &wordcount_annotations(sealed)).expect("wordcount graph lowers");
    let sink = g.sink_by_name("store").expect("sink exists");
    (g, sink)
}

/// The annotation table of the ad network running `query`: clicks sealed
/// on `seal_key` if given; requests relayed by the analyst or, when
/// `requests_injected`, injected into the Report replicas; the Report's
/// white-box paths; the response sinks as the replicated Cache.
///
/// # Panics
/// Panics only if the bundled query modules stop analyzing — a bug.
#[must_use]
pub(crate) fn ad_network_annotations(
    query: ReportQuery,
    seal_key: Option<&[&str]>,
    requests_injected: bool,
) -> Annotations {
    let paths = annotate_module(&query.module()).expect("query module analyzable");
    let report = ComponentDecl {
        name: "Report".to_string(),
        rep: true,
        paths: (paths.into_iter())
            .map(|p| PathSpec {
                from: p.from,
                to: p.to,
                annotation: p.annotation,
                lineage: Some(p.lineage),
            })
            .collect(),
        input: "click".to_string(),
        output: "response".to_string(),
        sink: None,
    };
    let cache = ComponentDecl {
        rep: true,
        sink: Some("analyst".to_string()),
        ..ComponentDecl::one_path("Cache", "response", "response", ComponentAnnotation::cw())
    };
    let requests = StreamDecl::new("requests", &["id"], None, "request");
    let table = Annotations::new(format!("ad-report-{}", query.name()))
        .with(
            "adserver",
            Role::Source(StreamDecl::new("clicks", &CLICK_ATTRS, seal_key, "click")),
        )
        .with("analyst", Role::Source(requests.clone()))
        .with("Report", Role::Component(report))
        .with("collector-sink", Role::Component(cache));
    if requests_injected {
        table.inject("Report", requests)
    } else {
        table
    }
}

/// The ad-tracking network dataflow (Fig. 4) for the given query, with the
/// click stream optionally sealed on `seal_key`: the recording of the
/// executed ad network, built with a one-click log (its shape does not
/// depend on input), lowered.
///
/// # Panics
/// Panics only if the bundled query modules stop analyzing — a bug.
#[must_use]
pub fn ad_network_graph(query: ReportQuery, seal_key: Option<&[&str]>) -> (DataflowGraph, SinkId) {
    let sc = ad_network_shape(query);
    let mut recorded = Topology::new();
    let _ = assemble_scenario(&sc, &mut recorded);
    let table = ad_network_annotations(query, seal_key, !sc.requests_via_analyst);
    let g = lower(&recorded, &table).expect("ad network graph lowers");
    let sink = g.sink_by_name("analyst").expect("sink exists");
    (g, sink)
}

/// The default ad network running `query`, with a one-click log and no
/// requests.
fn ad_network_shape(query: ReportQuery) -> AdScenario {
    AdScenario {
        workload: ClickWorkload {
            ad_servers: 1,
            entries_per_server: 1,
            campaigns: 1,
            ..ClickWorkload::default()
        },
        strategy: StrategyKind::Uncoordinated,
        requests: 0,
        query,
        ..AdScenario::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_core::analysis::Analyzer;
    use blazes_core::label::Label;
    use blazes_core::placement::{CoordDirective, CoordinationSpec};
    use blazes_core::strategy::residual_labels;

    /// The default wordcount topology with no tweets, recorded.
    fn wordcount_recording() -> Topology {
        let sc = WordcountScenario {
            workload: TweetWorkload {
                batches: 0,
                ..TweetWorkload::default()
            },
            ..WordcountScenario::default()
        };
        let mut recorded = Topology::new();
        let _ = wordcount_topology(&sc).0.assemble(&mut recorded);
        recorded
    }

    /// A family the table does not list lowers to one `in` → `out` path
    /// annotated `OW_*`.
    #[test]
    fn unannotated_bolts_default_conservative() {
        let tweets = StreamDecl::new("tweets", &["word", "batch"], None, "in");
        let table = Annotations::new("wordcount")
            .with("tweets", Role::Source(tweets))
            .with("collector-sink", Role::Sink("store".to_string()));
        let g = lower(&wordcount_recording(), &table).unwrap();
        let count = g.component_by_name("Count").unwrap();
        assert_eq!(
            g.component(count).paths[0].annotation,
            ComponentAnnotation::ow_star()
        );
    }

    /// The unsealed wordcount reaches its store as `Run` when the recording
    /// runs every node in parallel, as it does with one instance per node.
    #[test]
    fn unsealed_wordcount_analyzes_to_run() {
        let g = lower(&wordcount_recording(), &wordcount_annotations(false)).unwrap();
        let out = Analyzer::new(&g).run().unwrap();
        let sink = g.sink_by_name("store").unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Run));
    }

    /// Sealing the tweets on `batch` makes the parallel recording's store
    /// `Async`.
    #[test]
    fn sealed_wordcount_analyzes_to_async() {
        let g = lower(&wordcount_recording(), &wordcount_annotations(true)).unwrap();
        let out = Analyzer::new(&g).run().unwrap();
        let sink = g.sink_by_name("store").unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
    }

    /// The logical dataflow has one node per bolt, spout and sink however
    /// many instances run (paper Section II: logical vs physical dataflow).
    #[test]
    fn parallelism_is_erased_in_logical_graph() {
        let recorded = wordcount_recording();
        let sc = WordcountScenario::default();
        let instances = sc.spouts + 2 * sc.workers + sc.committers + 1;
        assert_eq!(recorded.instance_names().len(), instances);
        let g = lower(&recorded, &wordcount_annotations(false)).unwrap();
        assert_eq!(g.components().len(), 3);
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.streams().len(), 4, "one stream per pair of families");
    }

    /// Edits to the executed assembly reach the analysis with no graph
    /// touched by hand: another Report replica changes nothing, while an
    /// unannotated relay between the ad servers and the Report is an
    /// `OW_*` component the clicks now cross, and the spec moves.
    #[test]
    fn assembly_edits_reach_the_derived_spec() {
        use blazes_dataflow::backend::{ExecutorBuilder, PortId};
        use blazes_dataflow::component::{Context, FnComponent};

        let campaign = &["campaign"][..];
        let table = ad_network_annotations(ReportQuery::Campaign, Some(campaign), true);
        let derive = |t: &Topology| CoordinationSpec::derive(&lower(t, &table).unwrap(), true);
        let recording = |sc: &AdScenario| {
            let mut recorded = Topology::new();
            let _ = assemble_scenario(sc, &mut recorded);
            recorded
        };
        let sc = ad_network_shape(ReportQuery::Campaign);
        let plain = recording(&sc);
        let spec = derive(&plain).unwrap();
        assert!(matches!(
            spec.directive_for("Report"),
            Some(CoordDirective::Seal { .. })
        ));

        let four = recording(&AdScenario { replicas: 4, ..sc });
        assert!(four.instance_names().len() > plain.instance_names().len());
        assert_eq!(derive(&four).unwrap(), spec);

        let mut relayed = recording(&ad_network_shape(ReportQuery::Campaign));
        let relay = relayed.add_instance(Box::new(FnComponent::new(
            "relay",
            |_, msg, ctx: &mut Context| ctx.emit(0, msg),
        )));
        let from_adserver: Vec<bool> = relayed
            .instance_names()
            .map(|name| name.starts_with("adserver"))
            .collect();
        for w in relayed.take_wires() {
            if from_adserver[w.from.0] {
                relayed.connect(w.from, w.out_port, relay, PortId(0), w.channel);
                relayed.connect(relay, PortId(0), w.to, w.in_port, w.channel);
            } else {
                relayed.connect(w.from, w.out_port, w.to, w.in_port, w.channel);
            }
        }
        let g = lower(&relayed, &table).unwrap();
        let relay = g.component_by_name("relay").unwrap();
        assert_eq!(
            g.component(relay).paths[0].annotation,
            ComponentAnnotation::ow_star()
        );
        let moved = CoordinationSpec::derive(&g, true).unwrap();
        assert_ne!(moved, spec);
        assert!(moved.directive_for("relay").is_some(), "{moved:?}");
    }

    #[test]
    fn wordcount_unsealed_derives_run() {
        let (g, sink) = wordcount_graph(false);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Run));
    }

    #[test]
    fn wordcount_sealed_derives_async() {
        let (g, sink) = wordcount_graph(true);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
    }

    #[test]
    fn thresh_derives_async_via_white_box() {
        let (g, sink) = ad_network_graph(ReportQuery::Thresh, None);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
    }

    #[test]
    fn poor_derives_diverge_via_white_box() {
        let (g, sink) = ad_network_graph(ReportQuery::Poor, None);
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Diverge));
    }

    #[test]
    fn campaign_sealed_derives_async_via_white_box() {
        let (g, sink) = ad_network_graph(ReportQuery::Campaign, Some(&["campaign"]));
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
    }

    #[test]
    fn window_sealed_on_window_derives_async() {
        let (g, sink) = ad_network_graph(ReportQuery::Window, Some(&["window"]));
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
    }

    #[test]
    fn window_sealed_on_id_also_async() {
        // WINDOW is OR_{id,window}: sealing on id works too (Section IV-A1).
        let (g, sink) = ad_network_graph(ReportQuery::Window, Some(&["id"]));
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Async));
    }

    #[test]
    fn poor_sealed_on_campaign_still_diverges() {
        let (g, sink) = ad_network_graph(ReportQuery::Poor, Some(&["campaign"]));
        let out = Analyzer::new(&g).run().unwrap();
        assert_eq!(out.sink_label(sink), Some(&Label::Diverge));
    }

    #[test]
    fn campaign_unsealed_plan_orders_report() {
        let (g, _) = ad_network_graph(ReportQuery::Campaign, None);
        let plan = CoordinationSpec::derive(&g, true).unwrap();
        assert!(matches!(
            plan.directive_for("Report"),
            Some(CoordDirective::Order { .. })
        ));
    }

    #[test]
    fn campaign_sealed_plan_uses_seal_protocol_only() {
        let (g, _) = ad_network_graph(ReportQuery::Campaign, Some(&["campaign"]));
        let plan = CoordinationSpec::derive(&g, true).unwrap();
        assert!(!plan.is_empty());
        assert!(
            (plan.directives.iter()).all(|d| matches!(d, CoordDirective::Seal { .. })),
            "{plan:?}"
        );
        let residual = residual_labels(&g, &plan).unwrap();
        assert!(residual.iter().all(|(_, l)| !l.is_anomalous()));
    }

    #[test]
    fn thresh_needs_no_coordination_at_all() {
        let (g, _) = ad_network_graph(ReportQuery::Thresh, None);
        assert!(CoordinationSpec::derive(&g, true).unwrap().is_empty());
    }

    /// The exact plan `CoordinationSpec::derive` synthesizes for every case
    /// study: the ad network for each query × seal key under dynamic
    /// ordering, and the wordcount unsealed and sealed under static
    /// ordering. Each ordered Report also orders the Cache, which needs no
    /// order of its own (ROADMAP, "the residue").
    #[test]
    fn derive_pins_every_case_study_plan() {
        const NONE: &str = "confluent: no coordination to inject\n";
        const ORDER: &str = "inject dynamic ordering service before Cache on [response]\n\
                             inject dynamic ordering service before Report on [click, request]\n";
        const SEAL_ID: &str = "inject seal-gate at Report.click keyed {id}\n";
        const SEAL_WINDOW: &str = "inject seal-gate at Report.click keyed {window}\n";
        const SEAL_CAMPAIGN: &str = "inject seal-gate at Report.click keyed {campaign}\n";
        let keys: [Option<&[&str]>; 4] =
            [None, Some(&["campaign"]), Some(&["window"]), Some(&["id"])];
        let table = [
            (ReportQuery::Thresh, [NONE, NONE, NONE, NONE]),
            (ReportQuery::Poor, [ORDER, ORDER, ORDER, SEAL_ID]),
            (ReportQuery::Window, [ORDER, ORDER, SEAL_WINDOW, SEAL_ID]),
            (
                ReportQuery::Campaign,
                [ORDER, SEAL_CAMPAIGN, ORDER, SEAL_ID],
            ),
        ];
        for (query, plans) in table {
            for (key, plan) in keys.into_iter().zip(plans) {
                let (g, _) = ad_network_graph(query, key);
                let spec = CoordinationSpec::derive(&g, true).unwrap();
                assert_eq!(spec.render(), plan, "{} sealed on {key:?}", query.name());
            }
        }
        for (sealed, plan) in [
            (
                false,
                "inject static ordering service before Count on [in]\n",
            ),
            (true, "inject seal-gate at Count.in keyed {batch}\n"),
        ] {
            let (g, _) = wordcount_graph(sealed);
            let spec = CoordinationSpec::derive(&g, false).unwrap();
            assert_eq!(spec.render(), plan, "wordcount sealed={sealed}");
        }
    }
}
