//! Differential tests for the Bloom evaluation engine: the optimized
//! semi-naive mode must produce **bit-identical** tick outputs and table
//! state to the naive oracle, on every example module shipped with the
//! repo. This is the Bloom-engine analogue of `par_differential`: the
//! optimizations exploit monotonicity (CALM) inside a stratum, and
//! outputs and tables leave the engine sorted, so digests must never
//! depend on the engine or on the order it derived tuples in.

use blazes::bloom::interp::{EvalMode, ModuleInstance, TickOutput};
use blazes::bloom::{parse_module, BloomError};
use blazes::dataflow::value::{Tuple, Value};
use std::collections::BTreeMap;

/// Every engine variant a module must agree under.
fn engine_variants() -> [(&'static str, EvalMode); 2] {
    [
        ("naive", EvalMode::Naive),
        ("semi-naive", EvalMode::SemiNaive),
    ]
}

/// Load one of the checked-in example modules.
fn example(name: &str) -> String {
    let path = format!("{}/examples/blz/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn pairs(values: &[(i64, i64)]) -> Vec<Tuple> {
    values
        .iter()
        .map(|&(a, b)| Tuple(vec![Value::Int(a), Value::Int(b)]))
        .collect()
}

fn singles(values: &[i64]) -> Vec<Tuple> {
    values.iter().map(|&a| Tuple(vec![Value::Int(a)])).collect()
}

/// Every tick's full output map plus the final contents of every
/// persistent table.
type Digest = (Vec<TickOutput>, BTreeMap<String, Vec<Tuple>>);

/// Run a module under one mode over a scripted sequence of ticks; return
/// its [`Digest`].
fn digest(text: &str, mode: EvalMode, ticks: &[BTreeMap<String, Vec<Tuple>>]) -> Digest {
    let m = parse_module(text).expect("example must parse");
    let tables: Vec<String> = m
        .collections
        .iter()
        .filter(|c| c.kind.is_persistent())
        .map(|c| c.name.clone())
        .collect();
    let mut inst = ModuleInstance::with_mode(m, mode).expect("example must stratify");
    let outs: Vec<TickOutput> = ticks
        .iter()
        .map(|inp| inst.tick(inp.clone()).expect("tick must succeed"))
        .collect();
    let finals = tables
        .into_iter()
        .map(|t| {
            let rows = inst.table(&t);
            (t, rows)
        })
        .collect();
    (outs, finals)
}

/// Assert all engine variants agree with the naive oracle on a
/// module/workload; return every variant's digest.
fn assert_all_modes_agree(
    label: &str,
    text: &str,
    ticks: &[BTreeMap<String, Vec<Tuple>>],
) -> Vec<(&'static str, Digest)> {
    // A new evaluation mode joins the differential on purpose, not by accident.
    assert_eq!(engine_variants().map(|v| v.0), ["naive", "semi-naive"]);
    // The reference is its own run, so the `naive` variant also checks
    // that the oracle repeats itself.
    let reference = digest(text, EvalMode::Naive, ticks);
    let digests: Vec<(&'static str, Digest)> = engine_variants()
        .into_iter()
        .map(|(name, mode)| (name, digest(text, mode, ticks)))
        .collect();
    for (name, got) in &digests {
        assert_eq!(
            &reference, got,
            "{label}: engine {name} diverged from the naive oracle"
        );
    }
    digests
}

#[test]
fn transitive_closure_digests_are_engine_independent() {
    // Chain + extra chords, split across two ticks so the table-backed
    // edge relation accumulates.
    let text = example("transitive_closure.blz");
    let tick1: Vec<(i64, i64)> = (0..30).map(|i| (i, i + 1)).collect();
    let tick2: Vec<(i64, i64)> = (0..10).map(|i| (i * 3, i * 2 + 5)).collect();
    let ticks = vec![
        BTreeMap::from([("edge".to_string(), pairs(&tick1))]),
        BTreeMap::from([("edge".to_string(), pairs(&tick2))]),
    ];
    assert_all_modes_agree("transitive_closure", &text, &ticks);
}

#[test]
fn triangle_digests_are_engine_independent() {
    let text = example("triangle.blz");
    // A clustered random-ish graph with actual triangles.
    let edges: Vec<(i64, i64)> = (0..120)
        .map(|i| (i % 20, (i * 7 + 3) % 20))
        .chain([(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)])
        .collect();
    let ticks = vec![BTreeMap::from([("edge".to_string(), pairs(&edges))])];
    assert_all_modes_agree("triangle", &text, &ticks);
}

#[test]
fn ad_report_digests_are_engine_independent() {
    let text = example("ad_report.blz");
    let clicks: Vec<(i64, i64)> = (0..60).map(|i| (i % 12, i % 5)).collect();
    let ticks = vec![
        BTreeMap::from([
            ("click".to_string(), pairs(&clicks)),
            ("request".to_string(), singles(&[1, 3, 5])),
        ]),
        BTreeMap::from([("request".to_string(), singles(&[2, 4, 11]))]),
    ];
    assert_all_modes_agree("ad_report", &text, &ticks);
}

#[test]
fn stratified_negation_digests_are_engine_independent() {
    // Negation + aggregation above a recursive stratum — the hardest mix:
    // the optimized engines must still evaluate nonmonotonic rules exactly
    // once per stratum over complete lower strata.
    let text = r#"
module Strat {
  input edge(src, dst)
  input probe(src, dst)
  output unreached(src, dst)
  output fanout(src, n)
  table e(src, dst)
  scratch p(src, dst)
  e <= edge
  p <= e
  p <= (p * e) on (p.dst = e.src) -> (p.src, e.dst)
  unreached <= probe not in p on (probe.src = p.src, probe.dst = p.dst)
  fanout <= p group by (p.src) agg count(*) as n having n < 50
}
"#;
    let edges: Vec<(i64, i64)> = (0..25).map(|i| (i, i + 1)).collect();
    let probes: Vec<(i64, i64)> = vec![(0, 10), (10, 0), (3, 26), (24, 25)];
    let ticks = vec![BTreeMap::from([
        ("edge".to_string(), pairs(&edges)),
        ("probe".to_string(), pairs(&probes)),
    ])];
    assert_all_modes_agree("stratified_negation", text, &ticks);
}

#[test]
fn semi_naive_counters_beat_naive_on_recursion() {
    let text = example("transitive_closure.blz");
    let edges: Vec<(i64, i64)> = (0..60).map(|i| (i, i + 1)).collect();
    let inputs = BTreeMap::from([("edge".to_string(), pairs(&edges))]);

    let mut naive =
        ModuleInstance::with_mode(parse_module(&text).unwrap(), EvalMode::Naive).unwrap();
    naive.tick(inputs.clone()).unwrap();
    let mut semi =
        ModuleInstance::with_mode(parse_module(&text).unwrap(), EvalMode::SemiNaive).unwrap();
    semi.tick(inputs).unwrap();

    let (n, s) = (naive.last_tick_stats(), semi.last_tick_stats());
    assert!(
        s.derivations * 10 < n.derivations,
        "semi-naive should derive >10x fewer tuples: naive {} vs semi {}",
        n.derivations,
        s.derivations
    );
    assert!(
        s.join_probes * 100 < n.join_probes,
        "hash joins should probe >100x fewer pairs: naive {} vs semi {}",
        n.join_probes,
        s.join_probes
    );
}

// ---------------------------------------------------------------------
// Multi-tick schedules: state the engine carries *across* ticks (tables
// mutated in place, persistent indexes, running aggregates, tick deltas)
// must stay oracle-identical on every tick, not just the first.
// ---------------------------------------------------------------------

fn tick_of(inputs: &[(&str, Vec<Tuple>)]) -> BTreeMap<String, Vec<Tuple>> {
    inputs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

#[test]
fn ad_report_fed_over_many_ticks_matches_oracle() {
    // 2 000 distinct clicks, 50 per tick, over 16 ids: every id crosses the
    // `having n < 100` bound part-way, so groups leave `poor` while the log
    // keeps growing. A request tick is interleaved every 7th tick.
    let text = example("ad_report.blz");
    let clicks: Vec<(i64, i64)> = (0..2_000).map(|i| (i % 16, i / 16)).collect();
    let mut ticks = Vec::new();
    for (n, chunk) in clicks.chunks(50).enumerate() {
        ticks.push(tick_of(&[("click", pairs(chunk))]));
        if n % 7 == 6 {
            let ids: Vec<i64> = (0..16).filter(|id| (id + n as i64) % 3 != 0).collect();
            ticks.push(tick_of(&[("request", singles(&ids))]));
        }
    }
    ticks.push(tick_of(&[("request", singles(&[0, 5, 15, 99]))]));
    assert!(ticks.len() > 40);
    assert_all_modes_agree("ad_report over ticks", &text, &ticks);
}

#[test]
fn deletion_schedule_matches_oracle() {
    // `s` feeds four running aggregates, a derived table `h` (select) and
    // a derived table `j` (join of two tables, so both of its indexes
    // persist and must follow removals).
    let text = r#"
module Del {
  input add(k, v)
  input later(k, v)
  input del_s(k, v)
  input del_h(k, v)
  input del_j(k, v)
  output cnt(k, n)
  output total(k, n)
  output lo(k, v)
  output hi(k, v)
  output hview(k, v)
  output jview(k, v)
  table s(k, v)
  table h(k, v)
  table j(k, v)
  s <= add
  s <+ later
  h <= s
  j <= (s * h) on (s.k = h.k) -> (s.v, h.v)
  s <- (s * del_s) on (s.k = del_s.k, s.v = del_s.v) -> (s.k, s.v)
  s <- del_s
  h <- del_h
  j <- del_j
  cnt <= s group by (s.k) agg count(*) as n
  total <= s group by (s.k) agg sum(s.v) as n
  lo <= s group by (s.k) agg min(s.v) as v
  hi <= s group by (s.k) agg max(s.v) as v
  hview <= h
  jview <= j
}
"#;
    let none = || tick_of(&[]);
    let ticks = vec![
        tick_of(&[(
            "add",
            pairs(&[(1, 10), (1, 20), (1, 30), (2, 5), (2, 7), (3, 1)]),
        )]),
        // Delete from the source: count/sum drop, and (1, 10) / (1, 30)
        // were the group's min / max.
        tick_of(&[("del_s", pairs(&[(1, 10), (1, 30)]))]),
        none(),
        // Delete from derived heads whose sources still hold: the tick
        // after the removal must re-derive (2, 5) into `h` and (5, 7)
        // into `j` from entirely old state.
        tick_of(&[
            ("del_h", pairs(&[(2, 5)])),
            ("del_j", pairs(&[(5, 7), (1, 1)])),
        ]),
        none(),
        none(),
        // A tuple inserted and deleted by the same tick's rules, and the
        // last tuple of a group going away (group 3 must vanish).
        tick_of(&[
            ("add", pairs(&[(4, 4)])),
            ("del_s", pairs(&[(4, 4), (3, 1)])),
        ]),
        none(),
        // `<+` landing beside a `<-` of the same tuple — one that is in the
        // table and one that is not: deletions apply first, both survive.
        tick_of(&[
            ("later", pairs(&[(1, 20), (6, 6)])),
            ("del_s", pairs(&[(1, 20), (6, 6)])),
        ]),
        none(),
        tick_of(&[("add", pairs(&[(2, 9), (3, 3)]))]),
        tick_of(&[
            ("del_h", pairs(&[(2, 9), (2, 7)])),
            ("add", pairs(&[(7, 7)])),
        ]),
        none(),
        none(),
    ];
    assert_all_modes_agree("deletion schedule", text, &ticks);

    // The schedule really exercises what it claims (checked on the oracle
    // so the assertions are about the workload, not the engine under test).
    let (outs, finals) = digest(text, EvalMode::Naive, &ticks);
    let int = |a: i64, b: i64| Tuple(vec![Value::Int(a), Value::Int(b)]);
    assert!(outs[0].on("cnt").contains(&int(1, 3)));
    assert!(outs[2].on("cnt").contains(&int(1, 1)), "count dropped");
    assert!(outs[2].on("total").contains(&int(1, 20)), "sum dropped");
    assert!(outs[2].on("lo").contains(&int(1, 20)), "min moved up");
    assert!(outs[2].on("hi").contains(&int(1, 20)), "max moved down");
    assert!(outs[4].on("hview").contains(&int(2, 5)), "re-derived");
    assert!(outs[4].on("jview").contains(&int(5, 7)), "re-derived");
    assert!(outs[6].on("cnt").contains(&int(4, 1)));
    assert!(!outs[7].on("cnt").iter().any(|t| t.0[0] == Value::Int(3)));
    assert!(!outs[7].on("cnt").iter().any(|t| t.0[0] == Value::Int(4)));
    assert!(finals["s"].contains(&int(1, 20)) && finals["s"].contains(&int(6, 6)));
}

#[test]
fn transitive_closure_with_edges_arriving_over_eight_ticks_matches_oracle() {
    let text = example("transitive_closure.blz");
    // A 40-chain delivered out of order in 8 slices, plus a back edge
    // that closes a cycle in tick 6 and an empty tick at the end.
    let mut ticks: Vec<BTreeMap<String, Vec<Tuple>>> = (0..8)
        .map(|k| {
            let mut edges: Vec<(i64, i64)> = (0..40)
                .filter(|i| (i * 5 + 3) % 8 == k)
                .map(|i| (i, i + 1))
                .collect();
            if k == 5 {
                edges.push((20, 4));
            }
            tick_of(&[("edge", pairs(&edges))])
        })
        .collect();
    ticks.push(tick_of(&[]));
    assert_all_modes_agree("transitive_closure over ticks", &text, &ticks);
}

#[test]
fn negation_over_a_table_that_grows_and_shrinks_matches_oracle() {
    // `c` is negated, persistent (so its index persists and must follow
    // `<-`), and feeds both a per-tick view and an accumulating table.
    let text = r#"
module Neg {
  input orders(id)
  input cancel(id)
  input restore(id)
  output live(id)
  output ever(id)
  output per_bucket(b, n)
  table o(id, b)
  table c(id)
  table seen(id)
  o <= orders -> (orders.id, 0)
  c <= cancel
  c <- restore
  live <= o not in c on (o.id = c.id) -> (o.id)
  seen <= o not in c on (o.id = c.id) -> (o.id)
  ever <= seen
  per_bucket <= seen group by (seen.id) agg count(*) as n
}
"#;
    let ticks = vec![
        tick_of(&[
            ("orders", singles(&[1, 2, 3, 4])),
            ("cancel", singles(&[2])),
        ]),
        tick_of(&[("cancel", singles(&[3, 9]))]),
        tick_of(&[("restore", singles(&[2]))]),
        tick_of(&[("orders", singles(&[5, 9]))]),
        tick_of(&[("restore", singles(&[3, 9])), ("cancel", singles(&[1]))]),
        tick_of(&[]),
        tick_of(&[
            ("restore", singles(&[1, 2, 3, 9])),
            ("cancel", singles(&[5])),
        ]),
        tick_of(&[]),
    ];
    assert_all_modes_agree("negation over ticks", text, &ticks);
    let (outs, _) = digest(text, EvalMode::Naive, &ticks);
    let one = |a: i64| Tuple(vec![Value::Int(a)]);
    assert!(!outs[1].on("live").contains(&one(3)), "negated table grew");
    assert!(outs[3].on("live").contains(&one(2)), "negated table shrank");
    assert!(outs[7].on("live").contains(&one(9)));
}

// ---------------------------------------------------------------------
// Compiled rule bodies: the semi-naive engine resolves predicates,
// projections and join keys to column positions at instantiation; the
// oracle looks every column up by name. Outputs leave both engines
// sorted.
// ---------------------------------------------------------------------

fn strs(values: &[(i64, &str, i64)]) -> Vec<Tuple> {
    values
        .iter()
        .map(|&(a, b, c)| Tuple(vec![Value::Int(a), Value::str(b), Value::Int(c)]))
        .collect()
}

fn assert_strictly_sorted(label: &str, rows: &[Tuple]) {
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "{label}: not strictly sorted: {rows:?}"
    );
}

#[test]
fn compiled_bodies_match_oracle_beside_a_transitive_closure_over_ticks() {
    // Literal projection items (`tagged`, `matched`, `allowed`), predicates
    // over both join sides and bare column references (`matched`),
    // same-side `on` equalities on either side (`matched`: rules.grp =
    // rules.lo; `hits`: items.id = items.w), a two-column join key
    // (`matched`), an antijoin (`allowed`), and output heads no rule reads
    // (every output; `path` sits in the recursive stratum).
    let text = r#"
module Compiled {
  input edge(src, dst)
  input item(id, grp, w)
  input rule_in(grp, w, lo)
  input ban(id, grp, w)
  output path(src, dst)
  output tagged(id, tag, w)
  output matched(id, grp, flag)
  output loops(id)
  output allowed(id, grp, flag)
  table e(src, dst)
  scratch p(src, dst)
  table items(id, grp, w)
  table rules(grp, w, lo)
  table hits(id, grp)
  e <= edge
  p <= e
  p <= (p * e) on (p.dst = e.src) -> (p.src, e.dst)
  path <= p
  items <= item
  rules <= rule_in
  tagged <= items -> (items.id, 'heavy', w) where items.w > 2 and 'x' != 'y'
  matched <= (items * rules) on (items.grp = rules.grp, items.w = rules.w, rules.grp = rules.lo) -> (id, rules.grp, true) where id > 1 and rules.w < 9 and items.id != rules.w
  hits <= (items * rules) on (items.grp = rules.grp, items.id = items.w) -> (items.id, items.grp)
  loops <= hits -> (hits.id) where hits.id >= 0
  allowed <= items not in ban on (items.id = ban.id, items.grp = ban.grp) -> (items.id, items.grp, false) where items.w < 5
}
"#;
    // 512 edges: 128 four-edge chains, one chain position per tick, so
    // every chain grows at both ends across ticks; every 16th chain closes
    // into a cycle on the last tick.
    let mut ticks: Vec<BTreeMap<String, Vec<Tuple>>> = [2i64, 0, 3, 1]
        .into_iter()
        .map(|pos| {
            let mut edges: Vec<(i64, i64)> =
                (0..128).map(|c| (c * 10 + pos, c * 10 + pos + 1)).collect();
            if pos == 1 {
                edges.extend((0..128).step_by(16).map(|c| (c * 10 + 4, c * 10)));
            }
            tick_of(&[("edge", pairs(&edges))])
        })
        .collect();
    let grp = ["g0", "g1", "g2"];
    for (k, tick) in ticks.iter_mut().enumerate() {
        let k = k as i64;
        let items: Vec<(i64, &str, i64)> = (0..24)
            .map(|i| (i + 24 * k, grp[(i % 3) as usize], (i * 5 + k) % 8))
            .chain([(3 + k, "g1", 3 + k)])
            .collect();
        let rules: Vec<(&str, i64, &str)> = (0..8)
            .map(|w| (grp[((w + k) % 3) as usize], w, grp[((w * 2) % 3) as usize]))
            .collect();
        let bans: Vec<(i64, &str, i64)> = items.iter().step_by(3).copied().collect();
        tick.insert("item".to_string(), strs(&items));
        tick.insert(
            "rule_in".to_string(),
            rules
                .iter()
                .map(|&(g, w, lo)| Tuple(vec![Value::str(g), Value::Int(w), Value::str(lo)]))
                .collect(),
        );
        tick.insert("ban".to_string(), strs(&bans));
    }
    ticks.push(tick_of(&[]));
    for (name, (outs, finals)) in assert_all_modes_agree("compiled bodies beside TC", text, &ticks)
    {
        for (n, out) in outs.iter().enumerate() {
            for (iface, rows) in &out.outputs {
                assert_strictly_sorted(&format!("{name} tick {n} {iface}"), rows);
            }
        }
        for (table, rows) in &finals {
            assert_strictly_sorted(&format!("{name} table {table}"), rows);
        }
        // The workload reaches every rule shape it claims to.
        let last = &outs[3];
        assert_eq!(last.on("path").len(), 120 * 10 + 8 * 25, "{name}");
        for iface in ["tagged", "matched", "loops", "allowed"] {
            assert!(
                outs.iter().any(|o| !o.on(iface).is_empty()),
                "{name}: {iface}"
            );
        }
    }
}

#[test]
fn reference_errors_are_identical_across_modes_and_runs() {
    // A missing column in a select predicate, a join projection and an
    // antijoin predicate, plus a module with two failing rules: each must
    // fail with the oracle's message, whichever engine runs it, every run.
    let cases = [
        (
            "select predicate",
            "module M { input a(x) input b(x) output o(x) o <= a where a.ghost > 1 }",
            "ghost",
        ),
        (
            "join projection",
            "module M { input a(x) input b(x) output o(x, y) \
             o <= (a * b) on (a.x = b.x) -> (a.x, b.nope) }",
            "nope",
        ),
        (
            "antijoin predicate",
            "module M { input a(x) input b(x) output o(x) \
             o <= a not in b on (a.x = b.x) where a.missing == 1 }",
            "missing",
        ),
        (
            "two failing rules",
            "module M { input a(x) input b(x) output o(x) output q(x) scratch s(x) \
             s <= a \
             q <= s where zz > 0 \
             o <= (s * b) on (s.x = b.x) -> (b.yy) }",
            // `q` comes first in the stratum.
            "zz",
        ),
    ];
    let inputs = tick_of(&[("a", singles(&[1, 2, 3])), ("b", singles(&[2, 5]))]);
    for (label, text, column) in cases {
        // Each mode twice: two runs must agree as well as two engines.
        let errors: Vec<String> = engine_variants()
            .into_iter()
            .chain(engine_variants())
            .map(|(_, mode)| {
                let mut inst =
                    ModuleInstance::with_mode(parse_module(text).unwrap(), mode).unwrap();
                let err = inst.tick(inputs.clone()).expect_err(label);
                assert_eq!(inst.ticks(), 0, "{label}: a failed tick is not a tick");
                match err {
                    BloomError::Eval(msg) => msg,
                    other => panic!("{label}: expected an Eval error, got {other:?}"),
                }
            })
            .collect();
        assert!(
            errors.iter().all(|e| *e == errors[0]),
            "{label}: {errors:?}"
        );
        assert!(errors[0].contains(column), "{label}: {}", errors[0]);
    }
}
