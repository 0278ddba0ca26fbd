//! The reporting-server queries of the paper's Fig. 6, as mini-Bloom
//! modules.
//!
//! | name     | continuous query (SQL in the paper)                                  |
//! |----------|----------------------------------------------------------------------|
//! | THRESH   | `select id from clicks group by id having count(*) > 1000`           |
//! | POOR     | `select id from clicks group by id having count(*) < 100`            |
//! | WINDOW   | `select window, id from clicks group by window, id having count(*) < 100` |
//! | CAMPAIGN | `select campaign, id from clicks group by campaign, id having count(*) < 100` |
//!
//! Each module accumulates clicks in a persistent `log` table (the CW write
//! path) and answers requests by joining the standing query result with the
//! request stream (the read path whose annotation varies per query).

use blazes_bloom::ast::Module;
use blazes_bloom::parser::parse_module;

/// Which continuous query the reporting server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportQuery {
    /// Ads with at least 1000 clicks (confluent).
    Thresh,
    /// Ads with fewer than 100 clicks (nonmonotonic, partitioned on `id`).
    Poor,
    /// Per-window poor performers (partitioned on `id, window`).
    Window,
    /// Per-campaign poor performers (partitioned on `campaign, id`).
    Campaign,
}

impl ReportQuery {
    /// All four queries.
    pub const ALL: [ReportQuery; 4] = [
        ReportQuery::Thresh,
        ReportQuery::Poor,
        ReportQuery::Window,
        ReportQuery::Campaign,
    ];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReportQuery::Thresh => "THRESH",
            ReportQuery::Poor => "POOR",
            ReportQuery::Window => "WINDOW",
            ReportQuery::Campaign => "CAMPAIGN",
        }
    }

    /// The mini-Bloom source of the Report module running this query.
    #[must_use]
    pub fn module_source(self) -> String {
        let query_rule = match self {
            ReportQuery::Thresh => {
                // Monotone threshold: lower bound + projection drops count.
                "q <= log group by (log.id) agg count(*) as n having n > 1000 -> (log.id, 0)"
                    .to_string()
            }
            ReportQuery::Poor => {
                "q <= log group by (log.id) agg count(*) as n having n < 100".to_string()
            }
            ReportQuery::Window => {
                "q <= log group by (log.id, log.window) agg count(*) as n having n < 100 \
                 -> (log.id, n)"
                    .to_string()
            }
            ReportQuery::Campaign => {
                "q <= log group by (log.campaign, log.id) agg count(*) as n having n < 100 \
                 -> (log.id, n)"
                    .to_string()
            }
        };
        format!(
            r#"
module Report {{
  input click(id, campaign, window)
  input request(id)
  output response(id, n)
  table log(id, campaign, window)
  scratch q(id, n)

  log <= click
  {query_rule}
  response <~ (q * request) on (q.id = request.id) -> (q.id, q.n)
}}
"#
        )
    }

    /// Parse the module (panics only on an internal template bug).
    #[must_use]
    pub fn module(self) -> Module {
        parse_module(&self.module_source()).expect("query template parses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazes_bloom::analyze::annotate_module;
    use blazes_bloom::interp::ModuleInstance;
    use blazes_core::annotation::ComponentAnnotation;
    use blazes_dataflow::value::{Tuple, Value};
    use std::collections::BTreeMap;

    fn click(id: i64, campaign: i64, window: i64) -> Tuple {
        Tuple(vec![
            Value::Int(id),
            Value::Int(campaign),
            Value::Int(window),
        ])
    }

    fn run_query(q: ReportQuery, clicks: Vec<Tuple>, request_id: i64) -> Vec<Tuple> {
        let mut inst = ModuleInstance::new(q.module()).unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert("click".to_string(), clicks);
        inputs.insert(
            "request".to_string(),
            vec![Tuple(vec![Value::Int(request_id)])],
        );
        inst.tick(inputs).unwrap().on("response").to_vec()
    }

    #[test]
    fn all_modules_parse_and_stratify() {
        for q in ReportQuery::ALL {
            let m = q.module();
            assert_eq!(m.name, "Report");
            assert!(ModuleInstance::new(m).is_ok(), "{} must stratify", q.name());
        }
    }

    #[test]
    fn poor_reports_low_click_ads() {
        // Ad 1 has 2 distinct clicks (< 100): reported.
        let out = run_query(ReportQuery::Poor, vec![click(1, 0, 0), click(1, 0, 1)], 1);
        assert_eq!(out, vec![Tuple(vec![Value::Int(1), Value::Int(2)])]);
    }

    #[test]
    fn poor_set_shrinks_as_clicks_arrive() {
        // The hallmark of nonmonotonicity: more input, smaller answer.
        let q = ReportQuery::Poor.module();
        let mut inst = ModuleInstance::new(q).unwrap();
        let mut inputs = BTreeMap::new();
        // 150 distinct clicks for ad 7 (window differentiates tuples).
        inputs.insert(
            "click".to_string(),
            (0..150).map(|w| click(7, 0, w)).collect(),
        );
        inputs.insert("request".to_string(), vec![Tuple(vec![Value::Int(7)])]);
        let out = inst.tick(inputs).unwrap();
        assert!(out.on("response").is_empty(), "ad 7 is no longer poor");
    }

    #[test]
    fn thresh_fires_only_after_1000_clicks() {
        let below: Vec<Tuple> = (0..999).map(|w| click(3, 0, w)).collect();
        assert!(run_query(ReportQuery::Thresh, below, 3).is_empty());
        let above: Vec<Tuple> = (0..1001).map(|w| click(3, 0, w)).collect();
        let out = run_query(ReportQuery::Thresh, above, 3);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), Some(&Value::Int(3)));
    }

    #[test]
    fn window_scopes_counts_per_window() {
        // 2 clicks in window 0, 1 in window 1 — both groups are "poor",
        // and the response joins on id.
        let out = run_query(
            ReportQuery::Window,
            vec![click(5, 0, 0), click(5, 1, 0), click(5, 0, 1)],
            5,
        );
        // Two groups (5,w0) count 2 and (5,w1) count 1 -> both respond.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn campaign_scopes_counts_per_campaign() {
        let out = run_query(
            ReportQuery::Campaign,
            vec![click(9, 1, 0), click(9, 1, 1), click(9, 2, 0)],
            9,
        );
        // Groups (c1,9) count 2 and (c2,9) count 1.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn white_box_annotations_match_paper_section_vi() {
        // Paper Section VI-B1's annotation file, derived automatically.
        let expect = [
            (ReportQuery::Thresh, ComponentAnnotation::cr()),
            (ReportQuery::Poor, ComponentAnnotation::or(["id"])),
            (
                ReportQuery::Window,
                ComponentAnnotation::or(["id", "window"]),
            ),
            (
                ReportQuery::Campaign,
                ComponentAnnotation::or(["campaign", "id"]),
            ),
        ];
        for (q, want) in expect {
            let anns = annotate_module(&q.module()).unwrap();
            let click_path = anns.iter().find(|a| a.from == "click").unwrap();
            assert_eq!(
                click_path.annotation,
                ComponentAnnotation::cw(),
                "{}: click path must be CW",
                q.name()
            );
            let request_path = anns.iter().find(|a| a.from == "request").unwrap();
            assert_eq!(request_path.annotation, want, "{}: request path", q.name());
        }
    }

    #[test]
    fn thresholds_match_figure_6() {
        assert!(ReportQuery::Thresh
            .module_source()
            .contains("having n > 1000"));
        for q in [
            ReportQuery::Poor,
            ReportQuery::Window,
            ReportQuery::Campaign,
        ] {
            assert!(q.module_source().contains("having n < 100"), "{}", q.name());
        }
        assert_eq!(ReportQuery::ALL.len(), 4);
    }
}
