//! The system catalog: rule dependency structure, reachability,
//! stratification and attribute lineage.
//!
//! The paper's Section VII-B derives everything Blazes needs from exactly
//! these queries over the program text:
//!
//! * which collections an input interface *reaches* (flow analysis for
//!   statefulness and path discovery);
//! * whether the program stratifies (no cycle through a nonmonotonic
//!   operator) and in what order strata evaluate;
//! * how attribute values flow from input interfaces to other collections
//!   through **identity projections** — the sound-but-incomplete identity
//!   lineage used to chase seal keys and to name gates.

use crate::ast::*;
use crate::error::{BloomError, Result};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Is the rule syntactically nonmonotonic?
///
/// Deletions and antijoins always are. Aggregations are, except for the
/// *monotone threshold* pattern (the paper's THRESH query): a monotonically
/// increasing aggregate (`count`/`sum`/`max`) guarded by a lower-bound
/// `having` and a projection that drops the aggregate value — such a rule's
/// output set only ever grows.
#[must_use]
pub fn is_nonmonotonic(rule: &Rule) -> bool {
    if rule.op == MergeOp::Delete {
        return true;
    }
    match &rule.body {
        RuleBody::Select { .. } | RuleBody::Join { .. } => false,
        RuleBody::AntiJoin { .. } => true,
        RuleBody::GroupBy {
            agg,
            alias,
            having,
            projection,
            ..
        } => !is_monotone_threshold(*agg, alias, having.as_ref(), projection.as_ref()),
    }
}

fn is_monotone_threshold(
    agg: AggFun,
    alias: &str,
    having: Option<&Predicate>,
    projection: Option<&Vec<ProjItem>>,
) -> bool {
    if !agg.is_monotone_increasing() {
        return false;
    }
    // Lower-bound having on the alias: `having n > K` / `having n >= K`.
    let Some(h) = having else { return false };
    let lower_bound_on_alias = matches!(
        (&h.lhs, &h.rhs),
        (Operand::Col(c), Operand::Lit(_)) if c.column == alias && c.collection.is_empty()
    ) && h.op.is_lower_bound();
    if !lower_bound_on_alias {
        return false;
    }
    // The projection must exist and must not expose the (changing) alias.
    match projection {
        None => false,
        Some(items) => !items.iter().any(|i| match i {
            ProjItem::Col(c) => c.collection.is_empty() && c.column == alias,
            ProjItem::Lit(_) => false,
        }),
    }
}

/// Collection-level dependency edges derived from the rules: `(source,
/// head, nonmonotonic)`.
#[must_use]
fn dependency_edges(m: &Module) -> Vec<(String, String, bool)> {
    let mut edges = Vec::new();
    for r in &m.rules {
        let nonmono = is_nonmonotonic(r);
        for s in r.body.sources() {
            let negated = r.body.negated_sources().contains(&s);
            edges.push((s.to_string(), r.head.clone(), nonmono || negated));
        }
    }
    edges
}

/// Forward closure: every collection reachable from `start` (inclusive)
/// through rule dependencies.
#[must_use]
pub fn reachable_from(m: &Module, start: &str) -> BTreeSet<String> {
    let edges = dependency_edges(m);
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut queue = VecDeque::new();
    seen.insert(start.to_string());
    queue.push_back(start.to_string());
    while let Some(c) = queue.pop_front() {
        for (src, head, _) in &edges {
            if *src == c && seen.insert(head.clone()) {
                queue.push_back(head.clone());
            }
        }
    }
    seen
}

/// Does data from `from` flow into `to`?
#[must_use]
pub fn reaches(m: &Module, from: &str, to: &str) -> bool {
    reachable_from(m, from).contains(to)
}

/// Does input interface `input` modify persistent state (reach a table)?
#[must_use]
pub fn writes_state(m: &Module, input: &str) -> bool {
    let closure = reachable_from(m, input);
    m.collections
        .iter()
        .any(|c| c.kind == CollectionKind::Table && closure.contains(&c.name))
}

/// Stratify the module's **instantaneous** rules: assign each collection a
/// stratum such that monotonic derivations stay within a stratum and
/// nonmonotonic derivations strictly increase it. Errors if a cycle passes
/// through a nonmonotonic rule.
pub fn stratify(m: &Module) -> Result<BTreeMap<String, usize>> {
    // Only instantaneous rules constrain in-timestep evaluation order.
    let edges: Vec<(String, String, bool)> = m
        .rules
        .iter()
        .filter(|r| r.op == MergeOp::Instant)
        .flat_map(|r| {
            let nonmono = match &r.body {
                // All aggregations (even monotone thresholds) evaluate after
                // their source is complete within the timestep.
                RuleBody::GroupBy { .. } | RuleBody::AntiJoin { .. } => true,
                _ => false,
            };
            r.body
                .sources()
                .into_iter()
                .map(|s| (s.to_string(), r.head.clone(), nonmono))
                .collect::<Vec<_>>()
        })
        .collect();

    let mut strata: BTreeMap<String, usize> = BTreeMap::new();
    for c in &m.collections {
        strata.insert(c.name.clone(), 0);
    }
    // Bellman-Ford style relaxation; more than |collections| rounds of
    // change means a positive (nonmonotonic) cycle.
    let n = m.collections.len();
    for round in 0..=n {
        let mut changed = false;
        for (src, head, nonmono) in &edges {
            let needed = strata[src] + usize::from(*nonmono);
            if strata[head] < needed {
                strata.insert(head.clone(), needed);
                changed = true;
            }
        }
        if !changed {
            return Ok(strata);
        }
        if round == n {
            break;
        }
    }
    Err(BloomError::Unstratifiable(
        "cycle through a nonmonotonic operator".to_string(),
    ))
}

/// A precomputed evaluation schedule derived from the catalog: the
/// instantaneous rules grouped per stratum (program order preserved within
/// a stratum), and the per-rule **read-set** — exactly the collections each
/// rule's body scans.
///
/// The interpreter's semi-naive loop consults read-sets to skip rules none
/// of whose sources gained tuples in the previous fixpoint iteration, so
/// an unaffected rule costs a set lookup instead of a re-derivation.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Highest assigned stratum.
    pub max_stratum: usize,
    /// Indices into `module.rules` of the instantaneous rules evaluated in
    /// each stratum (outer index = stratum).
    pub instant_by_stratum: Vec<Vec<usize>>,
    /// Read-set of every rule, index-aligned with `module.rules`.
    pub reads: Vec<Vec<String>>,
}

/// Build the evaluation [`Schedule`] for a module (validates
/// stratifiability).
pub fn schedule(m: &Module) -> Result<Schedule> {
    let strata = stratify(m)?;
    let max_stratum = strata.values().copied().max().unwrap_or(0);
    let mut instant_by_stratum = vec![Vec::new(); max_stratum + 1];
    let mut reads = Vec::with_capacity(m.rules.len());
    for (i, r) in m.rules.iter().enumerate() {
        if r.op == MergeOp::Instant {
            let s = *strata.get(&r.head).ok_or_else(|| {
                BloomError::Eval(format!("rule head {:?} is not declared", r.head))
            })?;
            instant_by_stratum[s].push(i);
        }
        reads.push(r.body.sources().into_iter().map(str::to_string).collect());
    }
    Ok(Schedule {
        max_stratum,
        instant_by_stratum,
        reads,
    })
}

/// Trace `(collection, column)` backward through identity projections to
/// the input-interface columns it descends from.
///
/// Sound but incomplete (paper Section VII-B2): only chains of identity
/// projections are followed; computed values (aggregates, literals) are
/// dead ends.
#[must_use]
pub fn trace_to_inputs(m: &Module, collection: &str, column: &str) -> BTreeSet<(String, String)> {
    let mut results = BTreeSet::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut queue = VecDeque::new();
    queue.push_back((collection.to_string(), column.to_string()));
    seen.insert((collection.to_string(), column.to_string()));

    while let Some((coll, col)) = queue.pop_front() {
        if let Some(decl) = m.collection(&coll) {
            if decl.kind == CollectionKind::Input {
                results.insert((coll.clone(), col.clone()));
                continue;
            }
        }
        // Find rules producing `coll` and the body column that lands in
        // position of `col`.
        let Some(decl) = m.collection(&coll) else {
            continue;
        };
        let Some(pos) = decl.col_index(&col) else {
            continue;
        };
        for r in m.rules.iter().filter(|r| r.head == coll) {
            for (src_coll, src_col) in body_column_origin(m, &r.body, pos) {
                if seen.insert((src_coll.clone(), src_col.clone())) {
                    queue.push_back((src_coll, src_col));
                }
            }
        }
    }
    results
}

/// For a rule body, which `(collection, column)` feeds head position `pos`
/// via an identity projection?
fn body_column_origin(m: &Module, body: &RuleBody, pos: usize) -> Vec<(String, String)> {
    let resolve = |item: &ProjItem, default_coll: &str| -> Option<(String, String)> {
        match item {
            ProjItem::Col(c) => {
                let coll = if c.collection.is_empty() {
                    default_coll.to_string()
                } else {
                    c.collection.clone()
                };
                Some((coll, c.column.clone()))
            }
            ProjItem::Lit(_) => None,
        }
    };
    match body {
        RuleBody::Select {
            source, projection, ..
        }
        | RuleBody::AntiJoin {
            source, projection, ..
        } => match projection {
            Some(items) => items
                .get(pos)
                .and_then(|i| resolve(i, source))
                .into_iter()
                .collect(),
            None => {
                // Positional identity.
                m.collection(source)
                    .and_then(|d| d.schema.get(pos))
                    .map(|c| (source.clone(), c.clone()))
                    .into_iter()
                    .collect()
            }
        },
        RuleBody::Join {
            left, projection, ..
        } => projection
            .get(pos)
            .and_then(|i| resolve(i, left))
            .into_iter()
            .collect(),
        RuleBody::GroupBy {
            source,
            group_by,
            alias,
            projection,
            ..
        } => {
            let default_items: Vec<ProjItem>;
            let items: &[ProjItem] = match projection {
                Some(p) => p,
                None => {
                    default_items = group_by
                        .iter()
                        .cloned()
                        .map(ProjItem::Col)
                        .chain(std::iter::once(ProjItem::Col(ColRef {
                            collection: String::new(),
                            column: alias.clone(),
                        })))
                        .collect();
                    &default_items
                }
            };
            match items.get(pos) {
                Some(ProjItem::Col(c)) if c.collection.is_empty() && c.column == *alias => {
                    Vec::new() // the aggregate value is computed, not traced
                }
                Some(item) => resolve(item, source).into_iter().collect(),
                None => Vec::new(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    const REPORT: &str = r#"
module Report {
  input click(id, campaign, window)
  input request(id)
  output response(id, n)
  table log(id, campaign, window)
  scratch poor(id, n)

  log <= click
  poor <= log group by (log.id) agg count(*) as n having n < 100
  response <~ (poor * request) on (poor.id = request.id) -> (poor.id, poor.n)
}
"#;

    #[test]
    fn schedule_groups_instant_rules_and_read_sets() {
        let m = parse_module(REPORT).unwrap();
        let sched = schedule(&m).unwrap();
        assert_eq!(sched.max_stratum, 1);
        // Only `log <= click` and `poor <= ...` are instant; the async
        // response rule never joins the fixpoint.
        assert_eq!(sched.instant_by_stratum[0], vec![0]);
        assert_eq!(sched.instant_by_stratum[1], vec![1]);
        assert_eq!(sched.reads[0], vec!["click".to_string()]);
        assert_eq!(sched.reads[1], vec!["log".to_string()]);
        assert_eq!(
            sched.reads[2],
            vec!["poor".to_string(), "request".to_string()]
        );
    }

    #[test]
    fn nonmonotonicity_detection() {
        let m = parse_module(REPORT).unwrap();
        assert!(!is_nonmonotonic(&m.rules[0])); // log <= click
        assert!(is_nonmonotonic(&m.rules[1])); // upper-bound having
        assert!(!is_nonmonotonic(&m.rules[2])); // join
    }

    #[test]
    fn thresh_pattern_is_monotone() {
        let m = parse_module(
            r#"
module T {
  input click(id)
  output thresh(id)
  table log(id)
  log <= click
  thresh <~ log group by (log.id) agg count(*) as n having n > 1000 -> (log.id)
}
"#,
        )
        .unwrap();
        assert!(!is_nonmonotonic(&m.rules[1]), "THRESH is confluent");
    }

    #[test]
    fn thresh_without_projection_is_nonmonotone() {
        // Exposing the changing count defeats the monotone-threshold pattern.
        let m = parse_module(
            r#"
module T {
  input click(id)
  output thresh(id, n)
  table log(id)
  log <= click
  thresh <~ log group by (log.id) agg count(*) as n having n > 1000
}
"#,
        )
        .unwrap();
        assert!(is_nonmonotonic(&m.rules[1]));
    }

    #[test]
    fn min_aggregate_is_nonmonotone_even_with_lower_bound() {
        let m = parse_module(
            r#"
module T {
  input click(id, latency)
  output fast(id)
  table log(id, latency)
  log <= click
  fast <~ log group by (log.id) agg min(log.latency) as n having n > 10 -> (log.id)
}
"#,
        )
        .unwrap();
        assert!(is_nonmonotonic(&m.rules[1]));
    }

    #[test]
    fn deletion_is_nonmonotonic() {
        let m = parse_module("module M { input a(x) table t(x) t <- a }").unwrap();
        assert!(is_nonmonotonic(&m.rules[0]));
    }

    #[test]
    fn reachability() {
        let m = parse_module(REPORT).unwrap();
        assert!(reaches(&m, "click", "response"));
        assert!(reaches(&m, "request", "response"));
        assert!(reaches(&m, "click", "log"));
        assert!(!reaches(&m, "request", "log"));
    }

    #[test]
    fn state_flow_analysis() {
        let m = parse_module(REPORT).unwrap();
        assert!(writes_state(&m, "click"), "click feeds the log table");
        assert!(!writes_state(&m, "request"), "requests are read-only");
    }

    #[test]
    fn stratification_orders_aggregation() {
        let m = parse_module(REPORT).unwrap();
        let strata = stratify(&m).unwrap();
        assert!(strata["poor"] > strata["log"]);
    }

    #[test]
    fn unstratifiable_cycle_rejected() {
        let m = parse_module(
            r#"
module Bad {
  input a(x)
  scratch p(x)
  scratch q(x)
  p <= a
  p <= q not in a on (q.x = a.x)
  q <= p
}
"#,
        )
        .unwrap();
        assert!(matches!(stratify(&m), Err(BloomError::Unstratifiable(_))));
    }

    #[test]
    fn monotonic_cycle_is_fine() {
        let m = parse_module(
            r#"
module Ok {
  input a(x)
  scratch p(x)
  scratch q(x)
  p <= a
  p <= q
  q <= p
}
"#,
        )
        .unwrap();
        assert!(stratify(&m).is_ok());
    }

    #[test]
    fn lineage_traces_through_table_and_join() {
        let m = parse_module(REPORT).unwrap();
        // response.id <- poor.id <- log.id (group key) <- click.id
        let origins = trace_to_inputs(&m, "response", "id");
        assert!(
            origins.contains(&("click".to_string(), "id".to_string())),
            "{origins:?}"
        );
        // ... and requests also flow into the join's left side? No: the
        // projection takes poor.id, so request.id is not an origin.
        assert!(!origins.contains(&("request".to_string(), "id".to_string())));
    }

    #[test]
    fn aggregate_value_has_no_lineage() {
        let m = parse_module(REPORT).unwrap();
        let origins = trace_to_inputs(&m, "response", "n");
        assert!(
            origins.is_empty(),
            "count(*) is computed, not copied: {origins:?}"
        );
    }

    #[test]
    fn lineage_of_input_is_itself() {
        let m = parse_module(REPORT).unwrap();
        let origins = trace_to_inputs(&m, "click", "campaign");
        assert_eq!(origins.len(), 1);
        assert!(origins.contains(&("click".to_string(), "campaign".to_string())));
    }

    #[test]
    fn dependency_edges_flag_negation() {
        let m = parse_module(
            "module M { input a(x) input b(x) output o(x) o <= a not in b on (a.x = b.x) }",
        )
        .unwrap();
        let edges = dependency_edges(&m);
        assert!(edges.iter().any(|(s, h, nm)| s == "b" && h == "o" && *nm));
        // The positive side is flagged too: the rule is nonmonotonic.
        assert!(edges.iter().any(|(s, h, nm)| s == "a" && h == "o" && *nm));
    }
}
