//! The timestep interpreter for mini-Bloom modules.
//!
//! Bloom evaluates in discrete timesteps. Within a timestep:
//!
//! 1. pending deferred merges (`<+`) and deletions (`<-`) from the previous
//!    timestep are applied to persistent tables;
//! 2. the timestep's external inputs populate the input interfaces;
//! 3. the **instantaneous** rules (`<=`) run to fixpoint, stratum by
//!    stratum (nonmonotonic operators — aggregation, negation — only read
//!    collections from strictly lower strata, so each evaluates over a
//!    complete extension);
//! 4. deferred, deletion and asynchronous (`<~`) rules evaluate once
//!    against the final state; deferred/deleted tuples take effect next
//!    timestep, async tuples are handed to the network.
//!
//! Collections hold *sets* of tuples (Bloom's set semantics).
//!
//! ## Evaluation engine
//!
//! The fixpoint of step 3 runs in one of two [`EvalMode`]s:
//!
//! * [`EvalMode::Naive`] — the reference stratified fixpoint: every rule
//!   re-derives from scratch every iteration with nested-loop joins. Kept
//!   as the oracle the optimized mode is differentially tested against.
//! * [`EvalMode::SemiNaive`] (default) — per-collection **delta
//!   relations**: after a first full pass, each iteration only feeds the
//!   tuples that were new in the previous iteration back through the
//!   rules, joining them against **hash indexes** over the accumulated
//!   full sets. Rules whose read-set (from [`catalog::Schedule`]) gained
//!   no tuples are skipped outright. Nonmonotonic bodies (aggregation,
//!   negation) read only strictly-lower strata, so they evaluate exactly
//!   once per stratum. Persistent tables enter the timestep as
//!   copy-on-write snapshots and are only cloned if a rule actually
//!   derives into them.
//!
//! Every tick records [`TickStats`] (derivations, join probes, fixpoint
//! iterations, wall time) per stratum, so the cost of re-derivation is a
//! measured number rather than a claim.

use crate::ast::*;
use crate::catalog::{self, Schedule};
use crate::error::{BloomError, Result};
use blazes_dataflow::value::{Tuple, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

type Rel = BTreeSet<Tuple>;

/// The per-timestep view of every collection. Persistent tables start as
/// copy-on-write borrows of the instance's stored state; a table is only
/// cloned when a rule actually derives a new tuple into it.
type State<'a> = BTreeMap<String, Cow<'a, Rel>>;

/// A hash index over one collection: join-key values → matching tuples.
type Index = HashMap<Vec<Value>, Vec<Tuple>>;

/// How the instantaneous-rule fixpoint evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Reference evaluation: full re-derivation every iteration,
    /// nested-loop joins, whole-table snapshots. The oracle for
    /// differential tests.
    Naive,
    /// Semi-naive deltas + hash-join indexes + copy-on-write snapshots.
    #[default]
    SemiNaive,
}

/// Work counters for one timestep (or one stratum of one timestep).
///
/// `derivations` counts every tuple *produced* by a rule body before set
/// deduplication — the quantity naive evaluation inflates by re-deriving
/// the same tuples every iteration and semi-naive evaluation keeps near
/// the number of genuinely new facts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Tuples produced by rule-body evaluations (pre-dedup).
    pub derivations: u64,
    /// Rows scanned plus candidate join pairs examined.
    pub join_probes: u64,
    /// Fixpoint iterations executed.
    pub fixpoint_iters: u64,
    /// Wall-clock nanoseconds spent in the fixpoint.
    pub wall_ns: u64,
}

impl TickStats {
    /// Accumulate another stats record into this one.
    pub fn absorb(&mut self, other: TickStats) {
        self.derivations += other.derivations;
        self.join_probes += other.join_probes;
        self.fixpoint_iters += other.fixpoint_iters;
        self.wall_ns += other.wall_ns;
    }
}

/// The output of one timestep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickOutput {
    /// Tuples visible on each output interface this timestep (instant
    /// derivations and async emissions, deduplicated, in sorted order).
    pub outputs: BTreeMap<String, Vec<Tuple>>,
}

impl TickOutput {
    /// Tuples emitted on one interface (empty slice if none).
    #[must_use]
    pub fn on(&self, iface: &str) -> &[Tuple] {
        self.outputs.get(iface).map_or(&[], Vec::as_slice)
    }
}

/// A running instance of a module: persistent tables plus pending deferred
/// work.
#[derive(Debug, Clone)]
pub struct ModuleInstance {
    module: Module,
    schedule: Schedule,
    plans: Vec<Plan>,
    mode: EvalMode,
    tables: BTreeMap<String, Rel>,
    pending_insert: BTreeMap<String, Rel>,
    pending_delete: BTreeMap<String, Rel>,
    ticks: u64,
    last_stats: TickStats,
    last_stratum_stats: Vec<TickStats>,
    total_stats: TickStats,
}

impl ModuleInstance {
    /// Instantiate a module (validates stratifiability) with the default
    /// semi-naive engine.
    pub fn new(module: Module) -> Result<Self> {
        Self::with_mode(module, EvalMode::default())
    }

    /// Instantiate with an explicit evaluation mode.
    pub fn with_mode(module: Module, mode: EvalMode) -> Result<Self> {
        let schedule = catalog::schedule(&module)?;
        let plans = plan_rules(&module);
        let tables = module
            .collections
            .iter()
            .filter(|c| c.kind.is_persistent())
            .map(|c| (c.name.clone(), Rel::new()))
            .collect();
        Ok(ModuleInstance {
            module,
            schedule,
            plans,
            mode,
            tables,
            pending_insert: BTreeMap::new(),
            pending_delete: BTreeMap::new(),
            ticks: 0,
            last_stats: TickStats::default(),
            last_stratum_stats: Vec::new(),
            total_stats: TickStats::default(),
        })
    }

    /// The module definition.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Number of timesteps executed.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Work counters of the most recent tick.
    #[must_use]
    pub fn last_tick_stats(&self) -> TickStats {
        self.last_stats
    }

    /// Per-stratum work counters of the most recent tick (index =
    /// stratum).
    #[must_use]
    pub fn last_stratum_stats(&self) -> &[TickStats] {
        &self.last_stratum_stats
    }

    /// Work counters accumulated over every tick of this instance.
    #[must_use]
    pub fn cumulative_stats(&self) -> TickStats {
        self.total_stats
    }

    /// Contents of a persistent table (empty for unknown names).
    #[must_use]
    pub fn table(&self, name: &str) -> Vec<Tuple> {
        self.tables
            .get(name)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Execute one timestep with the given input-interface tuples.
    pub fn tick(&mut self, inputs: BTreeMap<String, Vec<Tuple>>) -> Result<TickOutput> {
        self.ticks += 1;

        // 1. Apply pending deferred work to tables.
        for (name, rel) in std::mem::take(&mut self.pending_delete) {
            if let Some(t) = self.tables.get_mut(&name) {
                for tuple in rel {
                    t.remove(&tuple);
                }
            }
        }
        let pending = std::mem::take(&mut self.pending_insert);

        let old_tables = std::mem::take(&mut self.tables);
        let res = run_tick(
            &self.module,
            &self.schedule,
            &self.plans,
            self.mode,
            &old_tables,
            &pending,
            inputs,
        );
        self.tables = old_tables;
        let done = res?;
        for (name, rel) in done.new_tables {
            self.tables.insert(name, rel);
        }
        self.pending_insert = done.pending_insert;
        self.pending_delete = done.pending_delete;
        let mut total = done.post_stats;
        for s in &done.stratum_stats {
            total.absorb(*s);
        }
        self.last_stats = total;
        self.last_stratum_stats = done.stratum_stats;
        self.total_stats.absorb(total);
        if blazes_obs::enabled() {
            let reg = blazes_obs::global().registry();
            reg.counter("bloom.ticks").inc();
            reg.counter("bloom.fixpoint_iters")
                .add(total.fixpoint_iters);
            reg.counter("bloom.derivations").add(total.derivations);
            reg.counter("bloom.join_probes").add(total.join_probes);
        }
        Ok(done.output)
    }
}

// ---------------------------------------------------------------------
// Tick evaluation
// ---------------------------------------------------------------------

struct TickDone {
    output: TickOutput,
    /// Persistent tables that changed this tick (copy-on-write slots that
    /// went owned). Unchanged tables are never cloned.
    new_tables: Vec<(String, Rel)>,
    pending_insert: BTreeMap<String, Rel>,
    pending_delete: BTreeMap<String, Rel>,
    stratum_stats: Vec<TickStats>,
    post_stats: TickStats,
}

fn run_tick(
    m: &Module,
    sched: &Schedule,
    plans: &[Plan],
    mode: EvalMode,
    tables: &BTreeMap<String, Rel>,
    pending: &BTreeMap<String, Rel>,
    inputs: BTreeMap<String, Vec<Tuple>>,
) -> Result<TickDone> {
    // 2. Initialize the timestep state: persistent tables as CoW borrows,
    // everything else empty.
    let mut state: State<'_> = BTreeMap::new();
    for c in &m.collections {
        let mut slot: Cow<'_, Rel> = if c.kind.is_persistent() {
            tables
                .get(&c.name)
                .map_or_else(|| Cow::Owned(Rel::new()), Cow::Borrowed)
        } else {
            Cow::Owned(Rel::new())
        };
        if let Some(p) = pending.get(&c.name) {
            if p.iter().any(|t| !slot.contains(t)) {
                slot.to_mut().extend(p.iter().cloned());
            }
        }
        state.insert(c.name.clone(), slot);
    }
    for (iface, tuples) in inputs {
        let decl = m
            .collection(&iface)
            .ok_or_else(|| BloomError::Eval(format!("unknown input interface {iface:?}")))?;
        if decl.kind != CollectionKind::Input {
            return Err(BloomError::Eval(format!(
                "{iface:?} is not an input interface"
            )));
        }
        for t in tuples {
            if t.arity() != decl.arity() {
                return Err(BloomError::Eval(format!(
                    "arity mismatch on {iface:?}: got {}, expected {}",
                    t.arity(),
                    decl.arity()
                )));
            }
            state.get_mut(&iface).expect("declared").to_mut().insert(t);
        }
    }

    // 3. Stratified fixpoint of instantaneous rules.
    let mut stratum_stats = vec![TickStats::default(); sched.max_stratum + 1];
    let mut cache = IndexCache::default();
    match mode {
        EvalMode::Naive => naive_fixpoint(m, sched, &mut state, &mut stratum_stats)?,
        EvalMode::SemiNaive => {
            semi_naive_fixpoint(m, sched, plans, &mut state, &mut cache, &mut stratum_stats)?;
        }
    }

    // 4. Deferred / deletion / async rules against the final state.
    let mut out_sets: BTreeMap<String, Rel> = BTreeMap::new();
    let mut pending_insert: BTreeMap<String, Rel> = BTreeMap::new();
    let mut pending_delete: BTreeMap<String, Rel> = BTreeMap::new();
    let mut post_stats = TickStats::default();
    let post_started = Instant::now();
    for (ri, rule) in m.rules.iter().enumerate() {
        if rule.op == MergeOp::Instant {
            continue;
        }
        let derived = if mode == EvalMode::Naive {
            eval_body(m, &state, &rule.body, &mut post_stats.join_probes)?
        } else {
            eval_rule_once(
                m,
                plans,
                ri,
                &state,
                &mut cache,
                &mut post_stats.join_probes,
            )?
        };
        post_stats.derivations += derived.len() as u64;
        match rule.op {
            MergeOp::Instant => unreachable!("filtered above"),
            MergeOp::Deferred => {
                pending_insert
                    .entry(rule.head.clone())
                    .or_default()
                    .extend(derived);
            }
            MergeOp::Delete => {
                pending_delete
                    .entry(rule.head.clone())
                    .or_default()
                    .extend(derived);
            }
            MergeOp::Async => {
                let kind = m.collection(&rule.head).map(|c| c.kind);
                if kind == Some(CollectionKind::Output) {
                    out_sets
                        .entry(rule.head.clone())
                        .or_default()
                        .extend(derived);
                } else {
                    // Async into internal state lands next timestep.
                    pending_insert
                        .entry(rule.head.clone())
                        .or_default()
                        .extend(derived);
                }
            }
        }
    }
    post_stats.wall_ns = post_started.elapsed().as_nanos() as u64;

    // Instantly derived output contents are also visible externally.
    for out_name in m.outputs() {
        let rel: &Rel = &state[out_name];
        if !rel.is_empty() {
            out_sets
                .entry(out_name.to_string())
                .or_default()
                .extend(rel.iter().cloned());
        }
    }
    let output = TickOutput {
        outputs: out_sets
            .into_iter()
            .map(|(k, s)| (k, s.into_iter().collect()))
            .collect(),
    };

    // Persist table contents: only copy-on-write slots that actually went
    // owned carry changes; borrowed slots mean the table is untouched.
    let mut new_tables = Vec::new();
    for c in &m.collections {
        if c.kind.is_persistent() {
            if let Some(Cow::Owned(rel)) = state.remove(&c.name) {
                new_tables.push((c.name.clone(), rel));
            }
        }
    }
    Ok(TickDone {
        output,
        new_tables,
        pending_insert,
        pending_delete,
        stratum_stats,
        post_stats,
    })
}

/// The original reference fixpoint: every rule re-derives from scratch
/// every iteration.
fn naive_fixpoint(
    m: &Module,
    sched: &Schedule,
    state: &mut State<'_>,
    stats: &mut [TickStats],
) -> Result<()> {
    for (stratum, st) in stats.iter_mut().enumerate().take(sched.max_stratum + 1) {
        let started = Instant::now();
        let span = blazes_obs::start();
        loop {
            st.fixpoint_iters += 1;
            let mut changed = false;
            for rule in &m.rules {
                if rule.op != MergeOp::Instant || sched.strata[&rule.head] != stratum {
                    continue;
                }
                let derived = eval_body(m, state, &rule.body, &mut st.join_probes)?;
                st.derivations += derived.len() as u64;
                for t in derived {
                    if !state[&rule.head].contains(&t) {
                        state
                            .get_mut(&rule.head)
                            .expect("declared")
                            .to_mut()
                            .insert(t);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        st.wall_ns += started.elapsed().as_nanos() as u64;
        // `a` = stratum, `b` = fixpoint iterations this tick so far.
        blazes_obs::span(
            span,
            blazes_obs::EventKind::Stratum,
            stratum as u64,
            st.fixpoint_iters,
        );
    }
    Ok(())
}

/// Semi-naive fixpoint: one full pass seeds per-collection deltas, then
/// each iteration only joins the previous iteration's new tuples against
/// hash indexes over the accumulated sets. Rules whose read-set gained
/// nothing are skipped. Nonmonotonic bodies run exactly once per stratum
/// (their sources live strictly below and are complete).
fn semi_naive_fixpoint(
    m: &Module,
    sched: &Schedule,
    plans: &[Plan],
    state: &mut State<'_>,
    cache: &mut IndexCache,
    stats: &mut [TickStats],
) -> Result<()> {
    for (stratum, st) in stats.iter_mut().enumerate().take(sched.max_stratum + 1) {
        let rules = &sched.instant_by_stratum[stratum];
        if rules.is_empty() {
            continue;
        }
        let started = Instant::now();
        let span = blazes_obs::start();
        st.fixpoint_iters += 1;
        let mut delta: BTreeMap<String, Rel> = BTreeMap::new();
        for &ri in rules {
            let derived = eval_rule_once(m, plans, ri, state, cache, &mut st.join_probes)?;
            st.derivations += derived.len() as u64;
            insert_new(state, cache, &m.rules[ri].head, derived, &mut delta);
        }
        loop {
            delta.retain(|_, r| !r.is_empty());
            if delta.is_empty() {
                break;
            }
            st.fixpoint_iters += 1;
            let cur = std::mem::take(&mut delta);
            for &ri in rules {
                let rule = &m.rules[ri];
                // Aggregations and antijoins saw their (complete, lower-
                // stratum) sources in the first pass.
                if matches!(
                    rule.body,
                    RuleBody::GroupBy { .. } | RuleBody::AntiJoin { .. }
                ) {
                    continue;
                }
                // Read-set skip: nothing new to feed this rule.
                if !sched.reads[ri].iter().any(|s| cur.contains_key(s)) {
                    continue;
                }
                let derived =
                    eval_rule_delta(m, plans, ri, state, cache, &cur, &mut st.join_probes)?;
                st.derivations += derived.len() as u64;
                insert_new(state, cache, &rule.head, derived, &mut delta);
            }
        }
        st.wall_ns += started.elapsed().as_nanos() as u64;
        // `a` = stratum, `b` = fixpoint iterations this tick so far.
        blazes_obs::span(
            span,
            blazes_obs::EventKind::Stratum,
            stratum as u64,
            st.fixpoint_iters,
        );
    }
    Ok(())
}

/// Merge freshly derived tuples into the head collection, recording the
/// genuinely new ones in the delta map and keeping live indexes fresh.
fn insert_new(
    state: &mut State<'_>,
    cache: &mut IndexCache,
    head: &str,
    derived: Rel,
    delta: &mut BTreeMap<String, Rel>,
) {
    let slot = state.get_mut(head).expect("declared");
    for t in derived {
        if slot.contains(&t) {
            continue;
        }
        slot.to_mut().insert(t.clone());
        cache.note_insert(head, &t);
        delta.entry(head.to_string()).or_default().insert(t);
    }
}

// ---------------------------------------------------------------------
// Rule plans and hash indexes
// ---------------------------------------------------------------------

/// The cross- and same-side structure of a join/antijoin `on` clause,
/// resolved to column positions at instantiation time.
#[derive(Debug, Clone, Default)]
struct JoinPlan {
    /// Key columns on the left/positive side (cross-side equalities).
    lkey: Vec<usize>,
    /// Key columns on the right/negated side, aligned with `lkey`.
    rkey: Vec<usize>,
    /// Same-side equalities on the left tuple.
    lfilter: Vec<(usize, usize)>,
    /// Same-side equalities on the right tuple.
    rfilter: Vec<(usize, usize)>,
}

/// Precomputed evaluation strategy per rule.
#[derive(Debug, Clone)]
enum Plan {
    /// Stream the source through predicates.
    Select,
    /// Probe a hash index over the opposite side.
    HashJoin(JoinPlan),
    /// Probe a hash index over the negated side for existence.
    HashAnti(JoinPlan),
    /// One-pass aggregation.
    Aggregate,
    /// On-clause could not be resolved statically — evaluate with the
    /// naive nested loop (which reproduces the reference error behavior).
    Fallback,
}

fn plan_rules(m: &Module) -> Vec<Plan> {
    m.rules
        .iter()
        .map(|r| match &r.body {
            RuleBody::Select { .. } => Plan::Select,
            RuleBody::GroupBy { .. } => Plan::Aggregate,
            RuleBody::Join {
                left, right, on, ..
            } => plan_pairs(m, left, right, on).map_or(Plan::Fallback, Plan::HashJoin),
            RuleBody::AntiJoin {
                source, neg, on, ..
            } => plan_pairs(m, source, neg, on).map_or(Plan::Fallback, Plan::HashAnti),
        })
        .collect()
}

fn plan_pairs(m: &Module, first: &str, second: &str, on: &[(ColRef, ColRef)]) -> Option<JoinPlan> {
    let d1 = m.collection(first)?;
    let d2 = m.collection(second)?;
    let sides = [(first, d1), (second, d2)];
    let mut plan = JoinPlan::default();
    for (a, b) in on {
        match (resolve_side(a, &sides)?, resolve_side(b, &sides)?) {
            ((0, i), (1, j)) => {
                plan.lkey.push(i);
                plan.rkey.push(j);
            }
            ((1, i), (0, j)) => {
                plan.lkey.push(j);
                plan.rkey.push(i);
            }
            ((0, i), (0, j)) => plan.lfilter.push((i, j)),
            ((1, i), (1, j)) => plan.rfilter.push((i, j)),
            _ => return None,
        }
    }
    Some(plan)
}

/// Mirror [`Env::lookup`]'s resolution order exactly: first binding whose
/// name matches (or any binding, for bare refs) and whose schema has the
/// column. `None` means runtime resolution would error — the caller falls
/// back to naive evaluation so the error surfaces identically.
fn resolve_side(col: &ColRef, sides: &[(&str, &CollectionDecl); 2]) -> Option<(usize, usize)> {
    for (si, (name, decl)) in sides.iter().enumerate() {
        if !col.collection.is_empty() && col.collection != *name {
            continue;
        }
        if let Some(i) = decl.col_index(&col.column) {
            return Some((si, i));
        }
        if !col.collection.is_empty() {
            return None;
        }
    }
    None
}

fn key_of(t: &Tuple, cols: &[usize]) -> Vec<Value> {
    cols.iter()
        .map(|&i| t.get(i).expect("schema arity").clone())
        .collect()
}

fn passes_filter(t: &Tuple, eqs: &[(usize, usize)]) -> bool {
    eqs.iter()
        .all(|&(i, j)| t.get(i).expect("schema arity") == t.get(j).expect("schema arity"))
}

/// Hash indexes built once per tick and kept fresh incrementally as the
/// fixpoint inserts new tuples.
#[derive(Default)]
struct IndexCache {
    map: HashMap<(String, Vec<usize>), Index>,
}

impl IndexCache {
    /// Build the `(collection, key-columns)` index from the current state
    /// if it does not exist yet.
    fn ensure(&mut self, state: &State<'_>, coll: &str, cols: &[usize]) {
        let key = (coll.to_string(), cols.to_vec());
        if self.map.contains_key(&key) {
            return;
        }
        let mut idx = Index::default();
        if let Some(rel) = state.get(coll) {
            for t in rel.iter() {
                idx.entry(key_of(t, cols)).or_default().push(t.clone());
            }
        }
        self.map.insert(key, idx);
    }

    fn get(&self, coll: &str, cols: &[usize]) -> &Index {
        self.map
            .get(&(coll.to_string(), cols.to_vec()))
            .expect("index ensured before use")
    }

    /// Keep live indexes over `coll` consistent with a fixpoint insert.
    fn note_insert(&mut self, coll: &str, t: &Tuple) {
        for ((c, cols), idx) in &mut self.map {
            if c == coll {
                idx.entry(key_of(t, cols)).or_default().push(t.clone());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Planned (semi-naive) rule evaluation
// ---------------------------------------------------------------------

/// Evaluate a rule body over the full current state (the first pass of a
/// stratum, and the post-fixpoint deferred/async pass).
fn eval_rule_once(
    m: &Module,
    plans: &[Plan],
    ri: usize,
    state: &State<'_>,
    cache: &mut IndexCache,
    probes: &mut u64,
) -> Result<Rel> {
    let rule = &m.rules[ri];
    match (&rule.body, &plans[ri]) {
        (
            RuleBody::Select {
                source,
                projection,
                predicates,
            },
            _,
        ) => {
            let d = decl(m, source)?;
            let tuples: Vec<&Tuple> = state[source].iter().collect();
            eval_select(source, d, projection.as_ref(), predicates, &tuples, probes)
        }
        (
            RuleBody::Join {
                left,
                right,
                projection,
                predicates,
                ..
            },
            Plan::HashJoin(plan),
        ) => {
            let args = JoinArgs {
                left,
                ldecl: decl(m, left)?,
                right,
                rdecl: decl(m, right)?,
                projection,
                predicates,
                plan,
            };
            cache.ensure(state, right, &plan.rkey);
            let probe: Vec<&Tuple> = state[left].iter().collect();
            probe_join(&args, &probe, true, cache.get(right, &plan.rkey), probes)
        }
        (
            RuleBody::AntiJoin {
                source,
                neg,
                projection,
                predicates,
                ..
            },
            Plan::HashAnti(plan),
        ) => {
            let args = AntiArgs {
                source,
                sdecl: decl(m, source)?,
                projection: projection.as_ref(),
                predicates,
                plan,
            };
            cache.ensure(state, neg, &plan.rkey);
            let probe: Vec<&Tuple> = state[source].iter().collect();
            probe_anti(&args, &probe, cache.get(neg, &plan.rkey), probes)
        }
        (RuleBody::GroupBy { .. }, _) => eval_body(m, state, &rule.body, probes),
        // Unresolvable on-clause: reference nested-loop path.
        (_, _) => eval_body(m, state, &rule.body, probes),
    }
}

/// Evaluate a monotonic rule against the previous iteration's deltas:
/// delta ⋈ full on each side, probing the incrementally maintained
/// indexes.
fn eval_rule_delta(
    m: &Module,
    plans: &[Plan],
    ri: usize,
    state: &State<'_>,
    cache: &mut IndexCache,
    cur: &BTreeMap<String, Rel>,
    probes: &mut u64,
) -> Result<Rel> {
    let rule = &m.rules[ri];
    match (&rule.body, &plans[ri]) {
        (
            RuleBody::Select {
                source,
                projection,
                predicates,
            },
            _,
        ) => match cur.get(source) {
            Some(d) if !d.is_empty() => {
                let tuples: Vec<&Tuple> = d.iter().collect();
                eval_select(
                    source,
                    decl(m, source)?,
                    projection.as_ref(),
                    predicates,
                    &tuples,
                    probes,
                )
            }
            _ => Ok(Rel::new()),
        },
        (
            RuleBody::Join {
                left,
                right,
                projection,
                predicates,
                ..
            },
            Plan::HashJoin(plan),
        ) => {
            let args = JoinArgs {
                left,
                ldecl: decl(m, left)?,
                right,
                rdecl: decl(m, right)?,
                projection,
                predicates,
                plan,
            };
            let mut out = Rel::new();
            if let Some(dl) = cur.get(left).filter(|d| !d.is_empty()) {
                cache.ensure(state, right, &plan.rkey);
                let probe: Vec<&Tuple> = dl.iter().collect();
                out.extend(probe_join(
                    &args,
                    &probe,
                    true,
                    cache.get(right, &plan.rkey),
                    probes,
                )?);
            }
            if let Some(dr) = cur.get(right).filter(|d| !d.is_empty()) {
                cache.ensure(state, left, &plan.lkey);
                let probe: Vec<&Tuple> = dr.iter().collect();
                out.extend(probe_join(
                    &args,
                    &probe,
                    false,
                    cache.get(left, &plan.lkey),
                    probes,
                )?);
            }
            Ok(out)
        }
        // Unresolvable join: re-derive fully (correct, rare).
        (RuleBody::Join { .. }, _) => eval_body(m, state, &rule.body, probes),
        // Nonmonotonic bodies never run in delta iterations.
        (RuleBody::AntiJoin { .. } | RuleBody::GroupBy { .. }, _) => {
            debug_assert!(false, "nonmonotonic body in delta iteration");
            Ok(Rel::new())
        }
    }
}

fn eval_select(
    source: &str,
    d: &CollectionDecl,
    projection: Option<&Vec<ProjItem>>,
    predicates: &[Predicate],
    tuples: &[&Tuple],
    probes: &mut u64,
) -> Result<Rel> {
    let mut out = Rel::new();
    for &t in tuples {
        *probes += 1;
        let env = Env {
            bindings: vec![(source, d, t)],
            alias: None,
        };
        if !env.check_all(predicates)? {
            continue;
        }
        out.insert(match projection {
            Some(items) => env.project(items)?,
            None => t.clone(),
        });
    }
    Ok(out)
}

struct JoinArgs<'a> {
    left: &'a str,
    ldecl: &'a CollectionDecl,
    right: &'a str,
    rdecl: &'a CollectionDecl,
    projection: &'a [ProjItem],
    predicates: &'a [Predicate],
    plan: &'a JoinPlan,
}

/// Probe one side's tuples against a hash index over the other side.
fn probe_join(
    args: &JoinArgs<'_>,
    probe: &[&Tuple],
    probe_is_left: bool,
    index: &Index,
    probes: &mut u64,
) -> Result<Rel> {
    let (pkey, pfilter, ofilter) = if probe_is_left {
        (&args.plan.lkey, &args.plan.lfilter, &args.plan.rfilter)
    } else {
        (&args.plan.rkey, &args.plan.rfilter, &args.plan.lfilter)
    };
    let mut out = Rel::new();
    for &t in probe {
        *probes += 1;
        if !passes_filter(t, pfilter) {
            continue;
        }
        let Some(bucket) = index.get(&key_of(t, pkey)) else {
            continue;
        };
        for o in bucket {
            *probes += 1;
            if !passes_filter(o, ofilter) {
                continue;
            }
            let (lt, rt) = if probe_is_left { (t, o) } else { (o, t) };
            let env = Env {
                bindings: vec![(args.left, args.ldecl, lt), (args.right, args.rdecl, rt)],
                alias: None,
            };
            if !env.check_all(args.predicates)? {
                continue;
            }
            out.insert(env.project(args.projection)?);
        }
    }
    Ok(out)
}

struct AntiArgs<'a> {
    source: &'a str,
    sdecl: &'a CollectionDecl,
    projection: Option<&'a Vec<ProjItem>>,
    predicates: &'a [Predicate],
    plan: &'a JoinPlan,
}

/// Antijoin via existence probes against an index over the negated side.
fn probe_anti(
    args: &AntiArgs<'_>,
    probe: &[&Tuple],
    index: &Index,
    probes: &mut u64,
) -> Result<Rel> {
    let plan = args.plan;
    let mut out = Rel::new();
    for &t in probe {
        *probes += 1;
        let matched = passes_filter(t, &plan.lfilter)
            && match index.get(&key_of(t, &plan.lkey)) {
                Some(bucket) if plan.rfilter.is_empty() => !bucket.is_empty(),
                Some(bucket) => bucket.iter().any(|nt| {
                    *probes += 1;
                    passes_filter(nt, &plan.rfilter)
                }),
                None => false,
            };
        if matched {
            continue;
        }
        let env = Env {
            bindings: vec![(args.source, args.sdecl, t)],
            alias: None,
        };
        if !env.check_all(args.predicates)? {
            continue;
        }
        out.insert(match args.projection {
            Some(items) => env.project(items)?,
            None => t.clone(),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Body evaluation (reference nested-loop path)
// ---------------------------------------------------------------------

fn lit_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// A row environment: qualified column lookup across one or two bound
/// collections plus an optional aggregate alias.
struct Env<'a> {
    bindings: Vec<(&'a str, &'a CollectionDecl, &'a Tuple)>,
    alias: Option<(&'a str, Value)>,
}

impl<'a> Env<'a> {
    fn lookup(&self, col: &ColRef) -> Result<Value> {
        if let Some((alias, v)) = &self.alias {
            if col.collection.is_empty() && col.column == *alias {
                return Ok(v.clone());
            }
        }
        for (name, decl, tuple) in &self.bindings {
            if !col.collection.is_empty() && col.collection != *name {
                continue;
            }
            if let Some(i) = decl.col_index(&col.column) {
                return Ok(tuple.get(i).expect("schema arity").clone());
            }
            if !col.collection.is_empty() {
                return Err(BloomError::Eval(format!(
                    "collection {:?} has no column {:?}",
                    name, col.column
                )));
            }
        }
        Err(BloomError::Eval(format!(
            "unresolved column reference {col}"
        )))
    }

    fn operand(&self, op: &Operand) -> Result<Value> {
        match op {
            Operand::Col(c) => self.lookup(c),
            Operand::Lit(l) => Ok(lit_value(l)),
        }
    }

    fn check(&self, pred: &Predicate) -> Result<bool> {
        let l = self.operand(&pred.lhs)?;
        let r = self.operand(&pred.rhs)?;
        Ok(pred.op.eval(l.cmp(&r)))
    }

    fn check_all(&self, preds: &[Predicate]) -> Result<bool> {
        for p in preds {
            if !self.check(p)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn project(&self, items: &[ProjItem]) -> Result<Tuple> {
        let mut values = Vec::with_capacity(items.len());
        for item in items {
            values.push(match item {
                ProjItem::Col(c) => self.lookup(c)?,
                ProjItem::Lit(l) => lit_value(l),
            });
        }
        Ok(Tuple(values))
    }
}

fn decl<'m>(m: &'m Module, name: &str) -> Result<&'m CollectionDecl> {
    m.collection(name)
        .ok_or_else(|| BloomError::Eval(format!("unknown collection {name:?}")))
}

fn eval_body(m: &Module, state: &State<'_>, body: &RuleBody, probes: &mut u64) -> Result<Rel> {
    match body {
        RuleBody::Select {
            source,
            projection,
            predicates,
        } => {
            let d = decl(m, source)?;
            let tuples: Vec<&Tuple> = state[source].iter().collect();
            eval_select(source, d, projection.as_ref(), predicates, &tuples, probes)
        }
        RuleBody::Join {
            left,
            right,
            on,
            projection,
            predicates,
        } => {
            let dl = decl(m, left)?;
            let dr = decl(m, right)?;
            let mut out = Rel::new();
            for lt in state[left].iter() {
                for rt in state[right].iter() {
                    *probes += 1;
                    let env = Env {
                        bindings: vec![(left, dl, lt), (right, dr, rt)],
                        alias: None,
                    };
                    let mut matched = true;
                    for (lc, rc) in on {
                        if env.lookup(lc)? != env.lookup(rc)? {
                            matched = false;
                            break;
                        }
                    }
                    if matched && env.check_all(predicates)? {
                        out.insert(env.project(projection)?);
                    }
                }
            }
            Ok(out)
        }
        RuleBody::AntiJoin {
            source,
            neg,
            on,
            projection,
            predicates,
        } => {
            let ds = decl(m, source)?;
            let dn = decl(m, neg)?;
            let mut out = Rel::new();
            for t in state[source].iter() {
                let mut matched = false;
                for nt in state[neg].iter() {
                    *probes += 1;
                    let env = Env {
                        bindings: vec![(source, ds, t), (neg, dn, nt)],
                        alias: None,
                    };
                    let mut all_eq = true;
                    for (lc, rc) in on {
                        if env.lookup(lc)? != env.lookup(rc)? {
                            all_eq = false;
                            break;
                        }
                    }
                    if all_eq {
                        matched = true;
                        break;
                    }
                }
                if matched {
                    continue;
                }
                let env = Env {
                    bindings: vec![(source, ds, t)],
                    alias: None,
                };
                if !env.check_all(predicates)? {
                    continue;
                }
                out.insert(match projection {
                    Some(items) => env.project(items)?,
                    None => t.clone(),
                });
            }
            Ok(out)
        }
        RuleBody::GroupBy {
            source,
            group_by,
            agg,
            agg_col,
            alias,
            having,
            projection,
        } => {
            let d = decl(m, source)?;
            // Group rows by the grouping key.
            let mut groups: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
            for t in state[source].iter() {
                *probes += 1;
                let env = Env {
                    bindings: vec![(source, d, t)],
                    alias: None,
                };
                let mut key = Vec::with_capacity(group_by.len());
                for c in group_by {
                    key.push(env.lookup(c)?);
                }
                groups.entry(key).or_default().push(t);
            }
            let mut out = Rel::new();
            for (key, rows) in groups {
                let value = aggregate(m, source, d, *agg, agg_col.as_ref(), &rows)?;
                // Representative row for column resolution.
                let rep = rows[0];
                let env = Env {
                    bindings: vec![(source, d, rep)],
                    alias: Some((alias.as_str(), value.clone())),
                };
                if let Some(h) = having {
                    if !env.check(h)? {
                        continue;
                    }
                }
                let tuple = match projection {
                    Some(items) => env.project(items)?,
                    None => {
                        let mut values = key.clone();
                        values.push(value.clone());
                        Tuple(values)
                    }
                };
                out.insert(tuple);
            }
            Ok(out)
        }
    }
}

fn aggregate(
    _m: &Module,
    source: &str,
    d: &CollectionDecl,
    agg: AggFun,
    agg_col: Option<&ColRef>,
    rows: &[&Tuple],
) -> Result<Value> {
    let col_index = |c: &ColRef| -> Result<usize> {
        if !c.collection.is_empty() && c.collection != source {
            return Err(BloomError::Eval(format!(
                "aggregate column {c} does not belong to {source:?}"
            )));
        }
        d.col_index(&c.column)
            .ok_or_else(|| BloomError::Eval(format!("unknown aggregate column {c}")))
    };
    Ok(match agg {
        AggFun::Count => Value::Int(rows.len() as i64),
        AggFun::Sum => {
            let c = agg_col.ok_or_else(|| BloomError::Eval("sum requires a column".to_string()))?;
            let i = col_index(c)?;
            let mut sum = 0i64;
            for r in rows {
                sum += r
                    .get(i)
                    .and_then(Value::as_int)
                    .ok_or_else(|| BloomError::Eval("sum over non-integer".to_string()))?;
            }
            Value::Int(sum)
        }
        AggFun::Min | AggFun::Max => {
            let c =
                agg_col.ok_or_else(|| BloomError::Eval("min/max require a column".to_string()))?;
            let i = col_index(c)?;
            let mut vals: Vec<&Value> = rows.iter().filter_map(|r| r.get(i)).collect();
            vals.sort();
            let v = if agg == AggFun::Min {
                vals.first()
            } else {
                vals.last()
            };
            (*v.ok_or_else(|| BloomError::Eval("aggregate over empty group".to_string()))?).clone()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn inputs(pairs: &[(&str, Vec<Tuple>)]) -> BTreeMap<String, Vec<Tuple>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn t2(a: impl Into<Value>, b: impl Into<Value>) -> Tuple {
        Tuple(vec![a.into(), b.into()])
    }

    fn t1(a: impl Into<Value>) -> Tuple {
        Tuple(vec![a.into()])
    }

    /// Every mode a behavior test should hold under.
    fn all_modes() -> Vec<EvalMode> {
        vec![EvalMode::Naive, EvalMode::SemiNaive]
    }

    #[test]
    fn select_relay() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) o <= a }").unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[("a", vec![t1(1i64), t1(2i64)])]))
                .unwrap();
            assert_eq!(out.on("o"), &[t1(1i64), t1(2i64)]);
        }
    }

    #[test]
    fn tables_persist_across_ticks() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) table t(x) t <= a o <= t }")
                .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap();
            let out = inst.tick(inputs(&[("a", vec![t1(2i64)])])).unwrap();
            // Both the old and the new tuple are in the table.
            assert_eq!(out.on("o"), &[t1(1i64), t1(2i64)]);
            assert_eq!(inst.table("t").len(), 2);
        }
    }

    #[test]
    fn scratches_do_not_persist() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) scratch s(x) s <= a o <= s }")
                .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap();
            let out = inst.tick(inputs(&[])).unwrap();
            assert!(out.on("o").is_empty());
        }
    }

    #[test]
    fn deferred_merge_lands_next_tick() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) table t(x) t <+ a o <= t }")
                .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap();
            assert!(out.on("o").is_empty(), "deferred: not visible this tick");
            let out = inst.tick(inputs(&[])).unwrap();
            assert_eq!(out.on("o"), &[t1(1i64)]);
        }
    }

    #[test]
    fn deletion_removes_next_tick() {
        for mode in all_modes() {
            let m = parse_module(
                r#"
module M {
  input a(x)
  input del(x)
  output o(x)
  table t(x)
  t <= a
  t <- (t * del) on (t.x = del.x) -> (t.x)
  o <= t
}
"#,
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t1(1i64), t1(2i64)])]))
                .unwrap();
            let out = inst.tick(inputs(&[("del", vec![t1(1i64)])])).unwrap();
            // Deletion is deferred: tuple 1 still visible this tick.
            assert_eq!(out.on("o"), &[t1(1i64), t1(2i64)]);
            let out = inst.tick(inputs(&[])).unwrap();
            assert_eq!(out.on("o"), &[t1(2i64)]);
        }
    }

    const TC: &str = r#"
module TC {
  input edge(src, dst)
  output path(src, dst)
  table e(src, dst)
  scratch p(src, dst)
  e <= edge
  p <= e
  p <= (p * e) on (p.dst = e.src) -> (p.src, e.dst)
  path <= p
}
"#;

    #[test]
    fn transitive_closure_fixpoint() {
        for mode in all_modes() {
            let m = parse_module(TC).unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[(
                    "edge",
                    vec![t2(1i64, 2i64), t2(2i64, 3i64), t2(3i64, 4i64)],
                )]))
                .unwrap();
            // 3 direct + 2 two-hop + 1 three-hop = 6 paths.
            assert_eq!(out.on("path").len(), 6);
            assert!(out.on("path").contains(&t2(1i64, 4i64)));
        }
    }

    #[test]
    fn semi_naive_agrees_with_naive_and_cuts_rederivation() {
        let chain: Vec<Tuple> = (0..40).map(|i| t2(i as i64, i as i64 + 1)).collect();

        let mut naive =
            ModuleInstance::with_mode(parse_module(TC).unwrap(), EvalMode::Naive).unwrap();
        let out_naive = naive.tick(inputs(&[("edge", chain.clone())])).unwrap();

        let mut semi =
            ModuleInstance::with_mode(parse_module(TC).unwrap(), EvalMode::SemiNaive).unwrap();
        let out_semi = semi.tick(inputs(&[("edge", chain.clone())])).unwrap();

        assert_eq!(out_naive, out_semi, "digests must be bit-identical");
        let n = naive.last_tick_stats();
        let s = semi.last_tick_stats();
        assert!(
            s.derivations < n.derivations / 4,
            "semi-naive must not re-derive: naive {} vs semi {}",
            n.derivations,
            s.derivations
        );
        assert!(
            s.join_probes < n.join_probes / 4,
            "hash probes must beat nested loops: naive {} vs semi {}",
            n.join_probes,
            s.join_probes
        );
        // Both need the same number of iterations to reach the fixpoint on
        // a chain (diameter-bound), give or take the final empty check.
        assert!(s.fixpoint_iters > 1);
    }

    #[test]
    fn stats_exposed_per_stratum() {
        let m = parse_module(
            r#"
module G {
  input click(id)
  output poor(id, n)
  table log(id)
  log <= click
  poor <= log group by (log.id) agg count(*) as n having n < 3
}
"#,
        )
        .unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        inst.tick(inputs(&[("click", vec![t1("a"), t1("b")])]))
            .unwrap();
        let strata = inst.last_stratum_stats();
        assert_eq!(strata.len(), 2, "log in stratum 0, poor in stratum 1");
        assert!(strata.iter().all(|s| s.fixpoint_iters >= 1));
        let total = inst.last_tick_stats();
        assert!(total.derivations >= 2);
        assert_eq!(inst.cumulative_stats().derivations, total.derivations);
        inst.tick(inputs(&[])).unwrap();
        assert!(inst.cumulative_stats().fixpoint_iters > total.fixpoint_iters);
    }

    #[test]
    fn groupby_count_and_having() {
        for mode in all_modes() {
            let m = parse_module(
                r#"
module G {
  input click(id)
  output poor(id, n)
  table log(id)
  log <= click
  poor <= log group by (log.id) agg count(*) as n having n < 3
}
"#,
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            // Note set semantics: duplicates collapse, so use distinct tuples.
            let m_inputs = inputs(&[("click", vec![t1("a"), t1("b")])]);
            let out = inst.tick(m_inputs).unwrap();
            assert_eq!(out.on("poor").len(), 2);
            assert!(out.on("poor").contains(&t2("a", 1i64)));
        }
    }

    #[test]
    fn groupby_sum_min_max() {
        let m = parse_module(
            r#"
module G {
  input obs(k, v)
  output s(k, total)
  output lo(k, v)
  output hi(k, v)
  s <= obs group by (obs.k) agg sum(obs.v) as total
  lo <= obs group by (obs.k) agg min(obs.v) as v
  hi <= obs group by (obs.k) agg max(obs.v) as v
}
"#,
        )
        .unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let out = inst
            .tick(inputs(&[(
                "obs",
                vec![t2("a", 1i64), t2("a", 5i64), t2("b", 3i64)],
            )]))
            .unwrap();
        assert_eq!(out.on("s"), &[t2("a", 6i64), t2("b", 3i64)]);
        assert_eq!(out.on("lo"), &[t2("a", 1i64), t2("b", 3i64)]);
        assert_eq!(out.on("hi"), &[t2("a", 5i64), t2("b", 3i64)]);
    }

    #[test]
    fn antijoin_evaluation() {
        for mode in all_modes() {
            let m = parse_module(
                r#"
module A {
  input orders(id)
  input cancels(id)
  output live(id)
  live <= orders not in cancels on (orders.id = cancels.id)
}
"#,
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[
                    ("orders", vec![t1(1i64), t1(2i64), t1(3i64)]),
                    ("cancels", vec![t1(2i64)]),
                ]))
                .unwrap();
            assert_eq!(out.on("live"), &[t1(1i64), t1(3i64)]);
        }
    }

    #[test]
    fn antijoin_with_empty_on_clause_is_existence() {
        for mode in all_modes() {
            let m = parse_module(
                r#"
module A {
  input a(x)
  input b(x)
  output o(x)
  o <= a not in b
}
"#,
            );
            // The dialect may or may not accept an empty on-clause; if it
            // parses, semantics must agree across modes.
            let Ok(m) = m else { return };
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[
                    ("a", vec![t1(1i64), t1(2i64)]),
                    ("b", vec![t1(9i64)]),
                ]))
                .unwrap();
            assert!(out.on("o").is_empty(), "any b tuple suppresses all of a");
        }
    }

    #[test]
    fn stratified_negation_sees_complete_lower_stratum() {
        for mode in all_modes() {
            // p is derived transitively; the antijoin over p must observe the
            // full fixpoint of p, not a partial extension.
            let m = parse_module(
                r#"
module S {
  input seed(x)
  output missing(x)
  input all_vals(x)
  scratch p(x)
  p <= seed
  p <= p where p.x > 100
  missing <= all_vals not in p on (all_vals.x = p.x)
}
"#,
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[
                    ("seed", vec![t1(1i64)]),
                    ("all_vals", vec![t1(1i64), t1(2i64)]),
                ]))
                .unwrap();
            assert_eq!(out.on("missing"), &[t1(2i64)]);
        }
    }

    #[test]
    fn async_output_emitted() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) o <~ a }").unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst.tick(inputs(&[("a", vec![t1(9i64)])])).unwrap();
            assert_eq!(out.on("o"), &[t1(9i64)]);
        }
    }

    #[test]
    fn where_predicates_filter() {
        let m = parse_module(
            "module M { input a(x, y) output o(x, y) o <= a where a.x > 1 and a.y == 'keep' }",
        )
        .unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let out = inst
            .tick(inputs(&[(
                "a",
                vec![
                    Tuple(vec![Value::Int(2), Value::str("keep")]),
                    Tuple(vec![Value::Int(2), Value::str("drop")]),
                    Tuple(vec![Value::Int(0), Value::str("keep")]),
                ],
            )]))
            .unwrap();
        assert_eq!(out.on("o").len(), 1);
    }

    #[test]
    fn arity_mismatch_on_input_rejected() {
        let m = parse_module("module M { input a(x, y) output o(x, y) o <= a }").unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let err = inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap_err();
        assert!(matches!(err, BloomError::Eval(_)));
    }

    #[test]
    fn unknown_input_rejected() {
        let m = parse_module("module M { input a(x) output o(x) o <= a }").unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let err = inst.tick(inputs(&[("ghost", vec![t1(1i64)])])).unwrap_err();
        assert!(matches!(err, BloomError::Eval(_)));
    }

    #[test]
    fn projection_with_literals() {
        let m = parse_module("module M { input a(x) output o(x, tag) o <= a -> (a.x, 'hit') }")
            .unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let out = inst.tick(inputs(&[("a", vec![t1(7i64)])])).unwrap();
        assert_eq!(out.on("o"), &[t2(7i64, "hit")]);
    }
}
