//! White-box annotation extraction (paper Section VII-B).
//!
//! For every (input interface, output interface) pair connected by the
//! module's rules, [`annotate_module`] derives a C.O.W.R. annotation:
//!
//! * **C vs O** — syntactic monotonicity of every rule on the path
//!   ([`crate::catalog::is_nonmonotonic`]);
//! * **R vs W** — whether the input's data flows into a persistent table
//!   ([`crate::catalog::writes_state`]);
//! * **gate subscripts** — grouping columns of aggregations and theta
//!   columns of antijoins on the path, chased back to input-interface
//!   attribute names through identity-projection lineage
//!   ([`crate::catalog::trace_to_inputs`]);
//! * **path lineage** — the identity lineage from the input interface to the
//!   output interface (which input column each output column copies), which
//!   blazes-core uses to chase seal keys through the component.

use crate::ast::*;
use crate::catalog;
use crate::error::Result;
use blazes_core::annotation::{ComponentAnnotation, Gate};
use blazes_core::keys::KeySet;
use std::collections::{BTreeMap, BTreeSet};

/// The derived annotation for one input→output path of a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathAnnotation {
    /// Input interface name.
    pub from: String,
    /// Output interface name.
    pub to: String,
    /// Derived C.O.W.R. annotation.
    pub annotation: ComponentAnnotation,
    /// Identity attribute mapping (input column → output column), for seal
    /// chasing. Only columns with a unique identity chain appear.
    pub lineage: BTreeMap<String, String>,
}

/// Derive annotations for every connected (input, output) pair of `m`.
///
/// Also validates that the module stratifies (the interpreter would refuse
/// it otherwise).
pub fn annotate_module(m: &Module) -> Result<Vec<PathAnnotation>> {
    catalog::stratify(m)?;
    let mut out = Vec::new();
    for input in m.inputs() {
        let closure = catalog::reachable_from(m, input);
        let writes = catalog::writes_state(m, input);
        for output in m.outputs() {
            if !closure.contains(output) {
                continue;
            }
            let nonmono = charged_nonmonotonic_rules(m, &closure, output);
            let annotation = if nonmono.is_empty() {
                if writes {
                    ComponentAnnotation::CW
                } else {
                    ComponentAnnotation::CR
                }
            } else {
                let gate = gate_of(m, &nonmono);
                if writes {
                    ComponentAnnotation::OW(gate)
                } else {
                    ComponentAnnotation::OR(gate)
                }
            };
            out.push(PathAnnotation {
                from: input.to_string(),
                to: output.to_string(),
                annotation,
                lineage: path_lineage(m, input, output),
            });
        }
    }
    Ok(out)
}

/// The nonmonotonic rules *charged* to the path from the input whose
/// forward closure is `closure` to `output`.
///
/// A nonmonotonic rule `R` makes a path order-sensitive in two ways,
/// mirroring the paper's Report annotations (click→response is `CW` even
/// though POOR aggregates nonmonotonically; the order-sensitivity belongs
/// to the request path that *reads* the aggregate):
///
/// 1. **Spontaneous emission** — `R`'s result flows to the output through
///    single-source rules alone (no rendezvous). Whoever feeds `R` sees
///    order-sensitive output: charge the inputs reaching `R`'s sources
///    (the wordcount `Count` case).
/// 2. **Rendezvous read** — some join/antijoin on the way to the output
///    combines `R`-derived data with data from this input: the read races
///    with the nonmonotonic state, so this input is charged (the POOR
///    `request` case).
fn charged_nonmonotonic_rules<'m>(
    m: &'m Module,
    closure: &BTreeSet<String>,
    output: &str,
) -> Vec<&'m Rule> {
    let mut charged = Vec::new();
    for r in m.rules.iter().filter(|r| catalog::is_nonmonotonic(r)) {
        if r.head != output && !catalog::reaches(m, &r.head, output) {
            continue;
        }
        let derived = catalog::reachable_from(m, &r.head);
        let mut hit = false;

        // Case 1: spontaneous emission.
        if single_source_reaches(m, &r.head, output)
            && r.body.sources().iter().any(|s| closure.contains(*s))
        {
            hit = true;
        }

        // Case 2: rendezvous read.
        if !hit {
            for j in &m.rules {
                if j.head != output && !catalog::reaches(m, &j.head, output) {
                    continue;
                }
                let sides: Vec<&str> = match &j.body {
                    RuleBody::Join { left, right, .. } => vec![left, right],
                    RuleBody::AntiJoin { source, neg, .. } => vec![source, neg],
                    _ => continue,
                };
                let in_derived: Vec<bool> = sides.iter().map(|s| derived.contains(*s)).collect();
                for (k, side) in sides.iter().enumerate() {
                    // `side` is the probe: not R-derived, but in this
                    // input's closure, joined against R-derived data.
                    if !in_derived[k]
                        && in_derived.iter().enumerate().any(|(o, d)| o != k && *d)
                        && closure.contains(*side)
                    {
                        hit = true;
                    }
                }
            }
        }
        if hit {
            charged.push(r);
        }
    }
    charged
}

/// Can `from` reach `to` through single-source rules only (selects and
/// aggregations, no joins)?
fn single_source_reaches(m: &Module, from: &str, to: &str) -> bool {
    let mut seen = BTreeSet::new();
    let mut queue = vec![from.to_string()];
    seen.insert(from.to_string());
    while let Some(c) = queue.pop() {
        if c == to {
            return true;
        }
        for r in &m.rules {
            let single = matches!(
                &r.body,
                RuleBody::Select { source, .. } | RuleBody::GroupBy { source, .. } if *source == c
            );
            if single && seen.insert(r.head.clone()) {
                queue.push(r.head.clone());
            }
        }
    }
    false
}

/// The partition subscript of the nonmonotonic rules: group-by columns and
/// antijoin theta columns, traced to input-interface attribute names.
/// Untraceable columns keep a qualified sentinel name (which no seal key
/// matches — conservative).
fn gate_of(m: &Module, nonmono: &[&Rule]) -> Gate {
    let mut attrs = KeySet::new();
    for rule in nonmono {
        let cols: Vec<(String, String)> = match &rule.body {
            RuleBody::GroupBy {
                source, group_by, ..
            } => group_by
                .iter()
                .map(|c| {
                    let coll = if c.collection.is_empty() {
                        source.clone()
                    } else {
                        c.collection.clone()
                    };
                    (coll, c.column.clone())
                })
                .collect(),
            RuleBody::AntiJoin { source, on, .. } => on
                .iter()
                .map(|(l, _)| {
                    let coll = if l.collection.is_empty() {
                        source.clone()
                    } else {
                        l.collection.clone()
                    };
                    (coll, l.column.clone())
                })
                .collect(),
            // Deletions partition on nothing knowable: a sentinel keeps the
            // gate incompatible with any seal.
            _ => vec![(rule.head.clone(), "__delete__".to_string())],
        };
        for (coll, col) in cols {
            let origins = catalog::trace_to_inputs(m, &coll, &col);
            if origins.is_empty() {
                attrs.insert(format!("{coll}.{col}"));
            } else {
                for (_, input_col) in origins {
                    attrs.insert(input_col);
                }
            }
        }
    }
    if attrs.is_empty() {
        Gate::Wildcard
    } else {
        Gate::Keys(attrs)
    }
}

/// Identity attribute mapping from `input` columns to `output` columns.
fn path_lineage(m: &Module, input: &str, output: &str) -> BTreeMap<String, String> {
    let mut lineage = BTreeMap::new();
    let Some(out_decl) = m.collection(output) else {
        return lineage;
    };
    for out_col in &out_decl.schema {
        for (coll, col) in catalog::trace_to_inputs(m, output, out_col) {
            if coll == input && !lineage.contains_key(&col) {
                lineage.insert(col, out_col.clone());
            }
        }
    }
    lineage
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn report(query: &str) -> Module {
        parse_module(&format!(
            r#"
module Report {{
  input click(id, campaign, window)
  input request(id)
  output response(id, n)
  table log(id, campaign, window)
  scratch q(id, n)

  log <= click
  {query}
  response <~ (q * request) on (q.id = request.id) -> (q.id, q.n)
}}
"#
        ))
        .unwrap()
    }

    fn annotation_of(m: &Module, from: &str) -> ComponentAnnotation {
        annotate_module(m)
            .unwrap()
            .into_iter()
            .find(|a| a.from == from)
            .map(|a| a.annotation)
            .unwrap()
    }

    #[test]
    fn poor_derives_or_id() {
        // POOR: upper-bound having -> order-sensitive over {id}.
        let m = report("q <= log group by (log.id) agg count(*) as n having n < 100");
        assert_eq!(
            annotation_of(&m, "request"),
            ComponentAnnotation::or(["id"])
        );
        assert_eq!(annotation_of(&m, "click"), ComponentAnnotation::cw());
    }

    #[test]
    fn window_derives_or_id_window() {
        let m = parse_module(
            r#"
module Report {
  input click(id, campaign, window)
  input request(id)
  output response(id, window, n)
  table log(id, campaign, window)
  scratch q(id, window, n)

  log <= click
  q <= log group by (log.id, log.window) agg count(*) as n having n < 100
  response <~ (q * request) on (q.id = request.id) -> (q.id, q.window, q.n)
}
"#,
        )
        .unwrap();
        assert_eq!(
            annotation_of(&m, "request"),
            ComponentAnnotation::or(["id", "window"])
        );
    }

    #[test]
    fn campaign_derives_or_campaign_id() {
        let m = parse_module(
            r#"
module Report {
  input click(id, campaign, window)
  input request(id)
  output response(campaign, id, n)
  table log(id, campaign, window)
  scratch q(campaign, id, n)

  log <= click
  q <= log group by (log.campaign, log.id) agg count(*) as n having n < 100
  response <~ (q * request) on (q.id = request.id) -> (q.campaign, q.id, q.n)
}
"#,
        )
        .unwrap();
        assert_eq!(
            annotation_of(&m, "request"),
            ComponentAnnotation::or(["campaign", "id"])
        );
    }

    #[test]
    fn thresh_derives_cr() {
        // THRESH: monotone threshold -> confluent read path.
        let m = parse_module(
            r#"
module Report {
  input click(id, campaign, window)
  input request(id)
  output response(id)
  table log(id, campaign, window)
  scratch q(id)

  log <= click
  q <= log group by (log.id) agg count(*) as n having n > 1000 -> (log.id)
  response <~ (q * request) on (q.id = request.id) -> (q.id)
}
"#,
        )
        .unwrap();
        assert_eq!(annotation_of(&m, "request"), ComponentAnnotation::cr());
        assert_eq!(annotation_of(&m, "click"), ComponentAnnotation::cw());
    }

    #[test]
    fn antijoin_gate_from_theta_columns() {
        let m = parse_module(
            r#"
module M {
  input orders(id, sym)
  input cancels(id)
  output live(id, sym)
  live <~ orders not in cancels on (orders.id = cancels.id)
}
"#,
        )
        .unwrap();
        assert_eq!(annotation_of(&m, "orders"), ComponentAnnotation::or(["id"]));
    }

    #[test]
    fn wordcount_module_derives_ow() {
        // The Bloom analogue of the Storm Count bolt: stateful and
        // order-sensitive over (word, batch).
        let m = parse_module(
            r#"
module Count {
  input words(word, batch)
  output counts(word, batch, n)
  table log(word, batch)

  log <= words
  counts <~ log group by (log.word, log.batch) agg count(*) as n having n > 0
}
"#,
        )
        .unwrap();
        assert_eq!(
            annotation_of(&m, "words"),
            ComponentAnnotation::ow(["word", "batch"])
        );
    }

    #[test]
    fn lineage_maps_identity_columns() {
        let m = report("q <= log group by (log.id) agg count(*) as n having n < 100");
        let anns = annotate_module(&m).unwrap();
        let click = anns.iter().find(|a| a.from == "click").unwrap();
        // click.id -> log.id -> q.id (group key) -> response.id.
        assert_eq!(click.lineage.get("id"), Some(&"id".to_string()));
        // campaign is projected away.
        assert!(!click.lineage.contains_key("campaign"));
    }

    #[test]
    fn disconnected_pairs_produce_no_annotation() {
        let m = parse_module(
            r#"
module M {
  input a(x)
  input b(x)
  output out_a(x)
  out_a <= a
}
"#,
        )
        .unwrap();
        let anns = annotate_module(&m).unwrap();
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].from, "a");
    }

    #[test]
    fn pure_relay_is_cr() {
        let m = parse_module("module M { input a(x) output o(x) o <= a }").unwrap();
        assert_eq!(annotation_of(&m, "a"), ComponentAnnotation::cr());
    }

    #[test]
    fn table_relay_is_cw() {
        let m =
            parse_module("module M { input a(x) output o(x) table t(x) t <= a o <= t }").unwrap();
        assert_eq!(annotation_of(&m, "a"), ComponentAnnotation::cw());
    }

    #[test]
    fn delete_rule_gate_is_unmatchable() {
        let m = parse_module(
            r#"
module M {
  input a(x)
  output o(x)
  table t(x)
  t <= a
  t <- a where a.x == 0
  o <= t
}
"#,
        )
        .unwrap();
        let ann = annotation_of(&m, "a");
        let ComponentAnnotation::OW(Gate::Keys(keys)) = &ann else {
            panic!("expected OW with sentinel gate, got {ann}");
        };
        assert!(keys.iter().any(|k| k.contains("__delete__")));
    }
}
