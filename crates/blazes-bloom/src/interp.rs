//! The timestep interpreter for mini-Bloom modules.
//!
//! Bloom evaluates in discrete timesteps. Within a timestep:
//!
//! 1. pending deletions (`<-`) and then pending deferred merges (`<+`) from
//!    the previous timestep are applied to persistent tables;
//! 2. the timestep's external inputs populate the input interfaces;
//! 3. the **instantaneous** rules (`<=`) run to fixpoint, stratum by
//!    stratum (nonmonotonic operators — aggregation, negation — only read
//!    collections from strictly lower strata, so each evaluates over a
//!    complete extension);
//! 4. deferred, deletion and asynchronous (`<~`) rules evaluate once
//!    against the final state; deferred/deleted tuples take effect next
//!    timestep, async tuples are handed to the network.
//!
//! Collections hold *sets* of tuples (Bloom's set semantics), stored as
//! flat rows: each collection keeps its rows back to back in one buffer of
//! values, numbered in insertion order, with a table of row numbers under
//! one fixed, seedless in-crate hasher making them a set. So deriving,
//! storing and discarding a tuple allocates nothing of its own, and row
//! order — with it every derivation order and the error a failing tick
//! raises — is the same on every run. Order is imposed only where tuples
//! leave the engine: every [`TickOutput`] vector and every
//! [`ModuleInstance::table`] result is sorted once and materialised as
//! [`Tuple`]s once, on the way out.
//!
//! ## Evaluation engine
//!
//! The fixpoint of step 3 runs in one of two [`EvalMode`]s, over the same
//! rows:
//!
//! * [`EvalMode::Naive`] — the reference stratified fixpoint: every rule
//!   re-derives from the whole state every iteration with nested-loop
//!   joins and one-pass aggregation. Kept as the oracle the optimized
//!   mode is differentially tested against.
//! * [`EvalMode::SemiNaive`] (default) — incremental **within and across**
//!   ticks: a tick costs what the tick changed, not what the tables hold.
//!
//! **What persists across ticks.** Tables live in the instance and are
//! mutated in place; each carries a *tick delta* — the rows `<-` removed at
//! this tick's start, and a watermark: the row count once those removals
//! ran, so every row past it is one this tick inserted (pending
//! `<+`/async merges, lower strata, earlier rules). Hash indexes (join key
//! → row numbers) over tables are built on first use, addressed by a slot
//! resolved at instantiation, and maintained on every insert *and* remove;
//! indexes over inputs, scratches and outputs are dropped at the end of
//! the tick. A `group by` over a table keeps per-group aggregate state
//! (count, sum, and a value multiset so `min`/`max` survive deletions),
//! brought up to date from the source's tick delta and emitted from the
//! groups — O(|Δ| + groups), not O(|table|).
//!
//! **What is delta-seeded.** The first pass of a stratum evaluates a
//! monotone rule (`Select`/`Join`) whose head is a table as Δleft ⋈ right ∪
//! left ⋈ Δright, where Δ of a table is its tick delta and Δ of any other
//! collection is its whole content: everything old × old could derive is
//! already in the head. Later iterations feed only the previous
//! iteration's new rows back through the rules — the row range each
//! re-read head grew by, since rows are only appended within a fixpoint —
//! and skip rules whose read-set (from [`catalog::Schedule`]) gained
//! nothing. A join or antijoin with an empty side returns without probing.
//!
//! **What is left out.** A rule into a scratch that nothing can observe
//! this tick — every consumer is gated shut by an empty input interface,
//! like the ad report's standing query on a tick that carries clicks but
//! no request — is not evaluated at all (a running aggregate still folds
//! its delta in), provided its columns resolve statically so that skipping
//! it cannot hide a reference error.
//!
//! **What is compiled.** A select, join or antijoin body whose every
//! column resolves statically is compiled at instantiation: predicates,
//! projection items and join keys become `(side, column)` positions or
//! literals, so a derivation reads its values in place and writes the head
//! row directly — no row environment, no lookup by name. A join key on
//! contiguous columns probes its index in place, allocating nothing. A
//! rule evaluation stages its rows in one reused buffer that deduplicates
//! them (a rule's derivations are the distinct rows it stages); the new
//! ones are then copied into the head once. Bodies that do not resolve
//! statically, and aggregations the running state cannot serve, keep the
//! naive oracle's evaluator, which raises its errors exactly as the oracle
//! does.
//!
//! **What is re-derived in full, and why.** Rules into scratches and
//! outputs (the head starts empty every tick); antijoins and aggregations
//! that are not over a table (nonmonotonic: they read strictly lower,
//! complete strata exactly once); bodies with a column that does not
//! resolve statically (the nested-loop reference path reproduces the
//! reference error); the once-per-tick deferred/deletion/async rules; and
//! — the delete-then-re-derive rule — **every rule into a table that lost a
//! tuple to `<-` at this tick's start**: the sources may still derive the
//! removed tuple from entirely old state, which no delta would revisit.
//!
//! **The tick contract.** [`ModuleInstance::tick`] is all-or-nothing. Input
//! names, kinds and arities are validated before anything is touched, and
//! an evaluation error in mid-fixpoint is undone from the tick's own
//! deltas — each table is truncated to its watermark and its removed rows
//! are put back — so tables, indexes, aggregate state, pending merges, the
//! tick count and the statistics equal their pre-call values.
//!
//! Every tick records [`TickStats`] (derivations, join probes, fixpoint
//! iterations, wall time) per stratum, so the cost of re-derivation is a
//! measured number rather than a claim.

use crate::ast::*;
use crate::catalog::{self, Schedule};
use crate::error::{BloomError, Result};
use crate::rel::{key_of, Rel};
use blazes_dataflow::value::{Tuple, Value};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// How the instantaneous-rule fixpoint evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Reference evaluation: full re-derivation from the whole state every
    /// iteration, nested-loop joins. The oracle for differential tests.
    Naive,
    /// Semi-naive deltas within a tick, tick deltas across ticks, hash-join
    /// indexes and aggregate state that persist with the tables.
    #[default]
    SemiNaive,
}

/// Work counters for one timestep (or one stratum of one timestep).
///
/// `derivations` counts, per evaluation of a rule body, the *distinct*
/// tuples it derives — whether or not its head already holds them. A
/// projection that collapses two rows into one tuple counts it once; a
/// tuple re-derived into a table that already has it counts again. So
/// naive evaluation inflates the number by re-deriving the same tuples
/// every iteration, and semi-naive evaluation keeps it near the number of
/// genuinely new facts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Distinct tuples derived, summed over rule-body evaluations.
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
    fn absorb(&mut self, other: TickStats) {
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

/// A running instance of a module: persistent tables (with their indexes
/// and aggregate state) plus pending deferred work.
#[derive(Debug, Clone)]
pub struct ModuleInstance {
    module: Module,
    schedule: Schedule,
    plans: Vec<Plan>,
    mode: EvalMode,
    store: Store,
    /// Where each rule evaluation stages the rows it derives; reused.
    stage: Rel,
    /// Deferred merges / deletions due at the next tick's start, keyed by
    /// collection id.
    pending_insert: BTreeMap<usize, Rel>,
    pending_delete: BTreeMap<usize, Rel>,
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
        let (plans, store) = plan_rules(&module, &schedule)?;
        Ok(ModuleInstance {
            module,
            schedule,
            plans,
            mode,
            store,
            stage: Rel::new(0),
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

    /// Contents of a persistent table, in sorted order (empty for unknown
    /// names).
    #[must_use]
    pub fn table(&self, name: &str) -> Vec<Tuple> {
        match coll_id(&self.module, name) {
            Ok(c) if self.store.persistent[c] => self.store.rels[c].sorted_tuples(),
            _ => Vec::new(),
        }
    }

    /// Execute one timestep with the given input-interface tuples.
    ///
    /// All-or-nothing: on `Err` the instance is exactly as it was before
    /// the call (no tick counted, no deferred work consumed).
    pub fn tick(&mut self, inputs: BTreeMap<String, Vec<Tuple>>) -> Result<TickOutput> {
        let inputs = check_inputs(&self.module, inputs)?;
        let done = match self.run_tick(inputs) {
            Ok(done) => done,
            Err(e) => {
                self.store.rollback();
                return Err(e);
            }
        };
        self.store.end_tick();
        self.ticks += 1;
        self.pending_insert = done.pending_insert;
        self.pending_delete = done.pending_delete;
        let mut total = done.post_stats;
        for s in &done.stratum_stats {
            total.absorb(*s);
        }
        self.last_stats = total;
        self.last_stratum_stats = done.stratum_stats;
        self.total_stats.absorb(total);
        Ok(done.output)
    }

    /// Steps 1–4 of the timestep against the in-place store. On `Err` the
    /// store holds a half-evaluated tick; the caller rolls it back.
    fn run_tick(&mut self, inputs: Vec<(usize, Vec<Tuple>)>) -> Result<TickDone> {
        let (m, sched, plans, mode) = (&self.module, &self.schedule, &self.plans[..], self.mode);
        let (store, stage) = (&mut self.store, &mut self.stage);

        // 1. Pending deletions, then the tables' watermarks, then pending
        // merges (a tuple both deleted and merged survives): each table's
        // tick delta. Both stay pending until the tick succeeds.
        for (&c, rel) in &self.pending_delete {
            if store.persistent[c] {
                for row in rel.rows() {
                    store.delete(c, row);
                }
            }
        }
        store.mark();
        for (&c, rel) in &self.pending_insert {
            store.rels[c].extend_from(rel);
        }
        // 2. The timestep's inputs, their values moved into the rows.
        for (c, tuples) in inputs {
            for t in tuples {
                store.rels[c].push_with(|cells| cells.extend(t.0));
            }
        }

        // 3. Stratified fixpoint of instantaneous rules.
        let mut stratum_stats = vec![TickStats::default(); sched.max_stratum + 1];
        match mode {
            EvalMode::Naive => naive_fixpoint(m, sched, plans, store, stage, &mut stratum_stats)?,
            EvalMode::SemiNaive => {
                semi_naive_fixpoint(m, sched, plans, store, stage, &mut stratum_stats)?;
            }
        }

        // 4. Deferred / deletion / async rules against the final state.
        let mut out_sets: BTreeMap<usize, Rel> = BTreeMap::new();
        let mut pending_insert: BTreeMap<usize, Rel> = BTreeMap::new();
        let mut pending_delete: BTreeMap<usize, Rel> = BTreeMap::new();
        let mut post_stats = TickStats::default();
        let post_started = Instant::now();
        for (ri, rule) in m.rules.iter().enumerate() {
            if rule.op == MergeOp::Instant {
                continue;
            }
            let head = plans[ri].head;
            let arity = m.collections[head].arity();
            stage.reset(arity);
            if mode == EvalMode::Naive {
                eval_body(
                    m,
                    &store.rels,
                    &rule.body,
                    stage,
                    &mut post_stats.join_probes,
                )?;
            } else {
                eval_rule_once(m, plans, ri, store, stage, &mut post_stats.join_probes)?;
            }
            post_stats.derivations += stage.len() as u64;
            let sink = match rule.op {
                MergeOp::Instant => unreachable!("filtered above"),
                MergeOp::Delete => &mut pending_delete,
                MergeOp::Async if m.collections[head].kind == CollectionKind::Output => {
                    &mut out_sets
                }
                // Async into internal state lands next timestep.
                MergeOp::Deferred | MergeOp::Async => &mut pending_insert,
            };
            sink.entry(head)
                .or_insert_with(|| Rel::new(arity))
                .extend_from(stage);
        }
        post_stats.wall_ns = post_started.elapsed().as_nanos() as u64;

        // Instantly derived output contents are also visible externally:
        // each output interface leaves as one sorted vector of tuples.
        let mut outputs = BTreeMap::new();
        for (c, decl) in m.collections.iter().enumerate() {
            let instant = &store.rels[c];
            let tuples = match out_sets.get_mut(&c) {
                Some(emitted) => {
                    emitted.extend_from(instant);
                    emitted.sorted_tuples()
                }
                None if decl.kind == CollectionKind::Output && !instant.is_empty() => {
                    instant.sorted_tuples()
                }
                None => continue,
            };
            outputs.insert(decl.name.clone(), tuples);
        }
        Ok(TickDone {
            output: TickOutput { outputs },
            pending_insert,
            pending_delete,
            stratum_stats,
            post_stats,
        })
    }
}

/// Validate a tick's inputs — interface names, kinds and tuple arities —
/// and resolve the names to collection ids, before any state is touched.
fn check_inputs(
    m: &Module,
    inputs: BTreeMap<String, Vec<Tuple>>,
) -> Result<Vec<(usize, Vec<Tuple>)>> {
    let mut resolved = Vec::with_capacity(inputs.len());
    for (iface, tuples) in inputs {
        let c = coll_id(m, &iface)
            .map_err(|_| BloomError::Eval(format!("unknown input interface {iface:?}")))?;
        let decl = &m.collections[c];
        if decl.kind != CollectionKind::Input {
            return Err(BloomError::Eval(format!(
                "{iface:?} is not an input interface"
            )));
        }
        if let Some(t) = tuples.iter().find(|t| t.arity() != decl.arity()) {
            return Err(BloomError::Eval(format!(
                "arity mismatch on {iface:?}: got {}, expected {}",
                t.arity(),
                decl.arity()
            )));
        }
        resolved.push((c, tuples));
    }
    Ok(resolved)
}

// ---------------------------------------------------------------------
// The store: relations, tick deltas, aggregate state
// ---------------------------------------------------------------------

/// Everything a tick reads and writes, index-aligned with
/// `module.collections`. Tables (and the indexes and aggregate state
/// derived from them) persist; everything else is emptied by
/// [`Store::end_tick`].
#[derive(Debug, Clone)]
struct Store {
    /// Every collection's rows, with its indexes.
    rels: Vec<Rel>,
    persistent: Vec<bool>,
    /// Per table: its row count once this tick's `<-` removals ran. The
    /// rows numbered from here on are the ones this tick inserted.
    marks: Vec<usize>,
    /// Per table: rows `<-` genuinely removed at this tick's start.
    deleted: Vec<Rel>,
    /// Incremental `group by` state, one per eligible rule.
    aggs: Vec<AggState>,
}

impl Store {
    fn new(m: &Module) -> Self {
        let rels = || m.collections.iter().map(|c| Rel::new(c.arity())).collect();
        Store {
            rels: rels(),
            persistent: m
                .collections
                .iter()
                .map(|c| c.kind.is_persistent())
                .collect(),
            marks: vec![0; m.collections.len()],
            deleted: rels(),
            aggs: Vec::new(),
        }
    }

    /// The rows this tick has inserted into table `c` so far.
    fn inserted(&self, c: usize) -> Range<usize> {
        self.marks[c]..self.rels[c].len()
    }

    /// Remove a row from table `c` at tick start, recording a genuine
    /// removal in the tick delta.
    fn delete(&mut self, c: usize, row: &[Value]) {
        if self.rels[c].remove(row) {
            self.deleted[c].insert(row);
        }
    }

    /// Set every watermark: from here on the tick only inserts.
    fn mark(&mut self) {
        for (mark, rel) in self.marks.iter_mut().zip(&self.rels) {
            *mark = rel.len();
        }
    }

    /// Commit the tick: forget the deltas and everything transient.
    fn end_tick(&mut self) {
        for agg in &mut self.aggs {
            agg.synced = false;
        }
        for c in 0..self.rels.len() {
            if self.persistent[c] {
                self.deleted[c].clear();
            } else {
                self.rels[c].clear();
            }
        }
    }

    /// Undo a half-evaluated tick from its own deltas: aggregate state
    /// first (it reads the deltas), then the tables and their indexes —
    /// truncated to the watermark, with the removed rows put back.
    fn rollback(&mut self) {
        for agg in &mut self.aggs {
            if agg.synced {
                let src = agg.source;
                agg.unsync(&self.deleted[src], &self.rels[src], self.marks[src]);
            }
        }
        for c in 0..self.rels.len() {
            if self.persistent[c] {
                self.rels[c].truncate(self.marks[c]);
                self.rels[c].extend_from(&self.deleted[c]);
            }
        }
        self.end_tick();
    }
}

/// Running aggregate state of one `group by` over a table.
#[derive(Debug, Clone)]
struct AggState {
    source: usize,
    key_cols: Vec<usize>,
    agg: AggFun,
    /// Aggregated column (`None` for `count`).
    agg_col: Option<usize>,
    groups: BTreeMap<Vec<Value>, Group>,
    /// Has this tick's source delta been applied (so a rollback must
    /// un-apply it)?
    synced: bool,
}

#[derive(Debug, Clone)]
struct Group {
    /// Some row of the group, for resolving group-by columns in `having`
    /// and projections (the plan guarantees they read nothing else).
    rep: Vec<Value>,
    count: i64,
    sum: i64,
    /// Multiset of the aggregated column, kept for `min`/`max` only.
    values: BTreeMap<Value, usize>,
}

impl AggState {
    /// Bring the groups up to date with the source's tick delta: the rows
    /// in `deleted`, and `src`'s rows from `mark` on. Fails (before
    /// changing anything) on a non-integer `sum` operand.
    fn sync(&mut self, deleted: &Rel, src: &Rel, mark: usize) -> Result<()> {
        let inserted = || src.rows_in(mark..src.len());
        if let (AggFun::Sum, Some(i)) = (self.agg, self.agg_col) {
            if inserted().any(|row| row.get(i).and_then(Value::as_int).is_none()) {
                return Err(BloomError::Eval("sum over non-integer".to_string()));
            }
        }
        deleted.rows().for_each(|row| self.apply(row, false));
        inserted().for_each(|row| self.apply(row, true));
        self.synced = true;
        Ok(())
    }

    /// The exact inverse of a successful [`AggState::sync`].
    fn unsync(&mut self, deleted: &Rel, src: &Rel, mark: usize) {
        src.rows_in(mark..src.len())
            .for_each(|row| self.apply(row, false));
        deleted.rows().for_each(|row| self.apply(row, true));
        self.synced = false;
    }

    fn apply(&mut self, row: &[Value], add: bool) {
        let operand = self.agg_col.map(|i| &row[i]);
        let int = operand.and_then(Value::as_int).unwrap_or(0);
        let track = matches!(self.agg, AggFun::Min | AggFun::Max);
        match self.groups.entry(key_of(row, &self.key_cols).into_owned()) {
            Entry::Vacant(e) if add => {
                let mut values = BTreeMap::new();
                if let (true, Some(v)) = (track, operand) {
                    values.insert(v.clone(), 1);
                }
                e.insert(Group {
                    rep: row.to_vec(),
                    count: 1,
                    sum: int,
                    values,
                });
            }
            Entry::Vacant(_) => debug_assert!(false, "removal from an unknown group"),
            Entry::Occupied(mut e) if add => {
                let g = e.get_mut();
                g.count += 1;
                g.sum += int;
                if let (true, Some(v)) = (track, operand) {
                    *g.values.entry(v.clone()).or_default() += 1;
                }
            }
            Entry::Occupied(mut e) => {
                let g = e.get_mut();
                g.count -= 1;
                g.sum -= int;
                if let (true, Some(v)) = (track, operand) {
                    if let Some(n) = g.values.get_mut(v) {
                        *n -= 1;
                        if *n == 0 {
                            g.values.remove(v);
                        }
                    }
                }
                if g.count == 0 {
                    e.remove();
                }
            }
        }
    }

    fn value_of(&self, g: &Group) -> Value {
        match self.agg {
            AggFun::Count => Value::Int(g.count),
            AggFun::Sum => Value::Int(g.sum),
            AggFun::Min => g.values.keys().next().expect("non-empty group").clone(),
            AggFun::Max => g
                .values
                .keys()
                .next_back()
                .expect("non-empty group")
                .clone(),
        }
    }
}

// ---------------------------------------------------------------------
// Tick evaluation
// ---------------------------------------------------------------------

struct TickDone {
    output: TickOutput,
    pending_insert: BTreeMap<usize, Rel>,
    pending_delete: BTreeMap<usize, Rel>,
    stratum_stats: Vec<TickStats>,
    post_stats: TickStats,
}

/// The original reference fixpoint: every rule re-derives from scratch
/// every iteration.
fn naive_fixpoint(
    m: &Module,
    sched: &Schedule,
    plans: &[Plan],
    store: &mut Store,
    stage: &mut Rel,
    stats: &mut [TickStats],
) -> Result<()> {
    for (stratum, st) in stats.iter_mut().enumerate().take(sched.max_stratum + 1) {
        let started = Instant::now();
        let span = blazes_obs::start();
        loop {
            st.fixpoint_iters += 1;
            let mut changed = false;
            for &ri in &sched.instant_by_stratum[stratum] {
                let head = plans[ri].head;
                stage.reset(m.collections[head].arity());
                eval_body(
                    m,
                    &store.rels,
                    &m.rules[ri].body,
                    stage,
                    &mut st.join_probes,
                )?;
                st.derivations += stage.len() as u64;
                changed |= store.rels[head].extend_from(stage);
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

/// Semi-naive fixpoint: the first pass seeds per-collection deltas —
/// from the tick deltas alone where the head is a table that kept all its
/// tuples, from the whole state otherwise — then each iteration only joins
/// the row ranges the previous iteration appended against hash indexes
/// over the accumulated rows. Rules whose read-set gained nothing are
/// skipped, and so are rules whose head nothing can observe this tick (see
/// [`observed_collections`]). Nonmonotonic bodies run exactly once per
/// stratum (their sources live strictly below and are complete).
fn semi_naive_fixpoint(
    m: &Module,
    sched: &Schedule,
    plans: &[Plan],
    store: &mut Store,
    stage: &mut Rel,
    stats: &mut [TickStats],
) -> Result<()> {
    let observed = observed_collections(m, plans, store);
    // Nobody can see this rule's head this tick, and evaluating it could
    // not fail: leave it out.
    let idle = |plan: &Plan| !observed[plan.head] && plan.infallible();
    for (stratum, st) in stats.iter_mut().enumerate().take(sched.max_stratum + 1) {
        let rules = &sched.instant_by_stratum[stratum];
        if rules.is_empty() {
            continue;
        }
        let started = Instant::now();
        let span = blazes_obs::start();
        st.fixpoint_iters += 1;
        // Every collection's row count as the current pass began: the rows
        // past it are what the pass appended.
        let mut since: Vec<usize> = store.rels.iter().map(Rel::len).collect();
        for &ri in rules {
            let plan = &plans[ri];
            if idle(plan) {
                // Running aggregates still have to follow their source.
                if let PlanKind::Incremental(slot) = plan.kind {
                    sync_aggregate(store, slot, &mut st.join_probes)?;
                }
                continue;
            }
            // Old × old is already in a table head — unless `<-` just took
            // tuples out of it that the old state still derives.
            let seeded =
                plan.monotone && store.persistent[plan.head] && store.deleted[plan.head].is_empty();
            stage.reset(m.collections[plan.head].arity());
            if seeded {
                eval_rule_delta(m, plans, ri, store, None, stage, &mut st.join_probes)?;
            } else {
                eval_rule_once(m, plans, ri, store, stage, &mut st.join_probes)?;
            }
            st.derivations += stage.len() as u64;
            store.rels[plan.head].extend_from(stage);
        }
        // Only heads that a rule of this stratum reads feed the next pass.
        let mut reread: Vec<usize> = rules
            .iter()
            .map(|&ri| &plans[ri])
            .filter_map(|plan| plan.reread.then_some(plan.head))
            .collect();
        reread.sort_unstable();
        reread.dedup();
        let mut delta = vec![0..0; store.rels.len()];
        loop {
            let mut grew = false;
            for &c in &reread {
                let len = store.rels[c].len();
                delta[c] = since[c]..len;
                since[c] = len;
                grew |= !delta[c].is_empty();
            }
            if !grew {
                break;
            }
            st.fixpoint_iters += 1;
            for &ri in rules {
                let plan = &plans[ri];
                // Aggregations and antijoins saw their (complete, lower-
                // stratum) sources in the first pass. Read-set skip:
                // nothing new to feed this rule.
                if !plan.monotone || idle(plan) || plan.reads.iter().all(|&c| delta[c].is_empty()) {
                    continue;
                }
                stage.reset(m.collections[plan.head].arity());
                eval_rule_delta(
                    m,
                    plans,
                    ri,
                    store,
                    Some(&delta),
                    stage,
                    &mut st.join_probes,
                )?;
                st.derivations += stage.len() as u64;
                store.rels[plan.head].extend_from(stage);
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

/// Which collections can anything observe this tick? Tables and output
/// interfaces always; a scratch or input only through a rule that has an
/// effect — it is deferred/deletion/async, its own head is observed, or
/// evaluating it might fail — and is not gated shut by an empty input
/// interface (`plan.gates`). A click tick of the ad report, say, never
/// reads the standing query: its one consumer joins it with the empty
/// `request` interface.
fn observed_collections(m: &Module, plans: &[Plan], store: &Store) -> Vec<bool> {
    let mut observed: Vec<bool> = m
        .collections
        .iter()
        .map(|c| c.kind.is_persistent() || c.kind == CollectionKind::Output)
        .collect();
    loop {
        let mut changed = false;
        for (rule, plan) in m.rules.iter().zip(plans) {
            let effective =
                rule.op != MergeOp::Instant || observed[plan.head] || !plan.infallible();
            if !effective || plan.gates.iter().any(|&c| store.rels[c].is_empty()) {
                continue;
            }
            for &c in &plan.reads {
                changed |= !std::mem::replace(&mut observed[c], true);
            }
        }
        if !changed {
            return observed;
        }
    }
}

// ---------------------------------------------------------------------
// Rule plans
// ---------------------------------------------------------------------

/// The cross- and same-side structure of a join/antijoin `on` clause,
/// resolved to collection ids, column positions and index slots at
/// instantiation time.
#[derive(Debug, Clone, Default)]
struct JoinPlan {
    /// Left/positive and right/negated collection.
    left: usize,
    right: usize,
    /// Key columns on the left/positive side (cross-side equalities).
    lkey: Vec<usize>,
    /// Key columns on the right/negated side, aligned with `lkey`.
    rkey: Vec<usize>,
    /// Same-side equalities on the left row.
    lfilter: Vec<(usize, usize)>,
    /// Same-side equalities on the right row.
    rfilter: Vec<(usize, usize)>,
    /// Slot of the index over `right` on `rkey`.
    rindex: usize,
}

/// A head column or predicate operand, resolved at instantiation: column
/// `i` of the row on `side` (0: left/source, 1: right/negated), or a
/// literal.
#[derive(Debug, Clone)]
enum Term {
    Col(usize, usize),
    Lit(Value),
}

impl Term {
    fn value<'a>(&'a self, rows: &[&'a [Value]]) -> &'a Value {
        match self {
            Term::Col(side, i) => &rows[*side][*i],
            Term::Lit(v) => v,
        }
    }
}

/// A compiled `Select`/`Join`/`AntiJoin` body: it reads its operands in
/// place and writes the head row directly.
#[derive(Debug, Clone)]
struct Body {
    predicates: Vec<(Term, CmpOp, Term)>,
    /// Head columns; `None` passes the source row through.
    projection: Option<Vec<Term>>,
}

impl Body {
    /// Stage the head row `rows` derive, unless a predicate rejects them.
    fn derive(&self, rows: &[&[Value]], out: &mut Rel) {
        let admitted = self
            .predicates
            .iter()
            .all(|(l, op, r)| op.eval(l.value(rows).cmp(r.value(rows))));
        if !admitted {
            return;
        }
        match &self.projection {
            Some(items) => {
                out.push_with(|cells| cells.extend(items.iter().map(|t| t.value(rows).clone())));
            }
            None => {
                out.insert(rows[0]);
            }
        }
    }
}

/// Precomputed evaluation strategy per rule.
#[derive(Debug, Clone)]
struct Plan {
    head: usize,
    /// Collections the body reads.
    reads: Vec<usize>,
    /// `Select`/`Join` body: iterates on deltas, and may be delta-seeded.
    monotone: bool,
    /// Input interfaces among the positive (non-negated) sources: while
    /// one of them is empty the rule derives nothing, whatever the rest of
    /// the state holds.
    gates: Vec<usize>,
    /// Some instantaneous rule of the head's stratum reads the head, so
    /// the head's new rows must feed the next fixpoint iteration.
    reread: bool,
    kind: PlanKind,
}

impl Plan {
    /// Every column the body reads resolved statically, so evaluating the
    /// rule can only fail inside [`AggState::sync`] — skipping an
    /// evaluation nobody observes cannot hide a reference error.
    fn infallible(&self) -> bool {
        !matches!(self.kind, PlanKind::Fallback)
    }
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// Stream the source through the compiled body.
    Select { source: usize, body: Body },
    /// Probe a hash index over the opposite side (`lindex`: the slot of
    /// the index over `left` on `lkey`, probed by right-side deltas).
    HashJoin {
        join: JoinPlan,
        lindex: usize,
        body: Body,
    },
    /// Probe a hash index over the negated side for existence.
    HashAnti { join: JoinPlan, body: Body },
    /// Aggregation over a table, from the running state in that slot of
    /// `Store::aggs`.
    Incremental(usize),
    /// Evaluate with the reference path: a body or `on` clause with a
    /// column that does not resolve statically (the reference evaluation
    /// raises its error exactly as naive does), or a one-pass aggregation
    /// over a non-table (or with columns the running state cannot serve).
    Fallback,
}

/// Plan every rule and lay out the store the plans address.
fn plan_rules(m: &Module, sched: &Schedule) -> Result<(Vec<Plan>, Store)> {
    let mut store = Store::new(m);
    let mut plans: Vec<Plan> = Vec::with_capacity(m.rules.len());
    for (r, reads) in m.rules.iter().zip(&sched.reads) {
        let kind = match &r.body {
            RuleBody::Select {
                source,
                projection,
                predicates,
            } => match compile(m, &[source], predicates, projection.as_deref()) {
                Some(body) => PlanKind::Select {
                    source: coll_id(m, source)?,
                    body,
                },
                None => PlanKind::Fallback,
            },
            RuleBody::Join {
                left,
                right,
                on,
                projection,
                predicates,
            } => match compile(m, &[left, right], predicates, Some(projection))
                .and_then(|body| Some((plan_pairs(m, &mut store, left, right, on)?, body)))
            {
                Some((join, body)) => PlanKind::HashJoin {
                    lindex: store.rels[join.left].index_slot(&join.lkey),
                    join,
                    body,
                },
                None => PlanKind::Fallback,
            },
            RuleBody::AntiJoin {
                source,
                neg,
                on,
                projection,
                predicates,
            } => match compile(m, &[source], predicates, projection.as_deref())
                .and_then(|body| Some((plan_pairs(m, &mut store, source, neg, on)?, body)))
            {
                Some((join, body)) => PlanKind::HashAnti { join, body },
                None => PlanKind::Fallback,
            },
            RuleBody::GroupBy { .. } => match plan_aggregate(m, &r.body) {
                Some(agg) => {
                    store.aggs.push(agg);
                    PlanKind::Incremental(store.aggs.len() - 1)
                }
                None => PlanKind::Fallback,
            },
        };
        let reads: Vec<usize> = reads.iter().map(|s| coll_id(m, s)).collect::<Result<_>>()?;
        let negated = r.body.negated_sources();
        plans.push(Plan {
            head: coll_id(m, &r.head)?,
            monotone: matches!(r.body, RuleBody::Select { .. } | RuleBody::Join { .. }),
            gates: reads
                .iter()
                .copied()
                .filter(|&c| {
                    let decl = &m.collections[c];
                    decl.kind == CollectionKind::Input && !negated.contains(&decl.name.as_str())
                })
                .collect(),
            reread: false,
            reads,
            kind,
        });
    }
    for rules in &sched.instant_by_stratum {
        for &ri in rules {
            let head = plans[ri].head;
            plans[ri].reread = rules.iter().any(|&rj| plans[rj].reads.contains(&head));
        }
    }
    Ok((plans, store))
}

fn plan_pairs(
    m: &Module,
    store: &mut Store,
    first: &str,
    second: &str,
    on: &[(ColRef, ColRef)],
) -> Option<JoinPlan> {
    let left = coll_id(m, first).ok()?;
    let right = coll_id(m, second).ok()?;
    let sides = [
        (first, &m.collections[left]),
        (second, &m.collections[right]),
    ];
    let mut plan = JoinPlan {
        left,
        right,
        ..JoinPlan::default()
    };
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
    plan.rindex = store.rels[right].index_slot(&plan.rkey);
    Some(plan)
}

/// Mirror [`Env::lookup`]'s resolution order exactly: first binding whose
/// name matches (or any binding, for bare refs) and whose schema has the
/// column. `None` means runtime resolution would error — the caller falls
/// back to the reference evaluation so the error surfaces identically.
fn resolve_side(col: &ColRef, sides: &[(&str, &CollectionDecl)]) -> Option<(usize, usize)> {
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

/// Compile the predicates and projection of a `Select`/`Join`/`AntiJoin`
/// body against the rows it is evaluated over (`sources`: side 0, then
/// side 1) — `None` if a collection or column does not resolve
/// statically. (`group by` bodies are vetted by [`plan_aggregate`].)
fn compile(
    m: &Module,
    sources: &[&String],
    predicates: &[Predicate],
    projection: Option<&[ProjItem]>,
) -> Option<Body> {
    let sides = sources
        .iter()
        .map(|n| m.collection(n).map(|d| (n.as_str(), d)))
        .collect::<Option<Vec<_>>>()?;
    let col = |col: &ColRef| resolve_side(col, &sides).map(|(side, i)| Term::Col(side, i));
    let operand = |op: &Operand| match op {
        Operand::Col(c) => col(c),
        Operand::Lit(l) => Some(Term::Lit(lit_value(l))),
    };
    let predicates = predicates
        .iter()
        .map(|p| Some((operand(&p.lhs)?, p.op, operand(&p.rhs)?)))
        .collect::<Option<_>>()?;
    let projection = match projection {
        Some(items) => Some(
            items
                .iter()
                .map(|item| match item {
                    ProjItem::Col(c) => col(c),
                    ProjItem::Lit(l) => Some(Term::Lit(lit_value(l))),
                })
                .collect::<Option<_>>()?,
        ),
        None => None,
    };
    Some(Body {
        predicates,
        projection,
    })
}

/// Running aggregate state for a `group by` — if its source is a table
/// and every column the rule reads resolves statically to a group-by
/// column (or the aggregate alias), so any row of a group can stand in
/// for the reference evaluator's representative row. Anything else
/// (including every shape the reference path would reject at run time)
/// keeps the one-pass reference evaluation.
fn plan_aggregate(m: &Module, body: &RuleBody) -> Option<AggState> {
    let RuleBody::GroupBy {
        source,
        group_by,
        agg,
        agg_col,
        alias,
        having,
        projection,
    } = body
    else {
        return None;
    };
    let c = coll_id(m, source).ok()?;
    let decl = &m.collections[c];
    if !decl.kind.is_persistent() {
        return None;
    }
    let column = |col: &ColRef| resolve_side(col, &[(source.as_str(), decl)]).map(|(_, i)| i);
    let key_cols: Vec<usize> = group_by.iter().map(column).collect::<Option<_>>()?;
    // `having` and projections see the alias first, then the row.
    let is_alias = |col: &ColRef| col.collection.is_empty() && col.column == *alias;
    let served = |col: &ColRef| is_alias(col) || column(col).is_some_and(|i| key_cols.contains(&i));
    let operand_served = |op: &Operand| match op {
        Operand::Col(col) => served(col),
        Operand::Lit(_) => true,
    };
    let having_ok = having
        .as_ref()
        .is_none_or(|h| operand_served(&h.lhs) && operand_served(&h.rhs));
    let projection_ok = projection.as_ref().is_none_or(|items| {
        items.iter().all(|item| match item {
            ProjItem::Col(col) => served(col),
            ProjItem::Lit(_) => true,
        })
    });
    if !having_ok || !projection_ok {
        return None;
    }
    let agg_col = match agg {
        AggFun::Count => None,
        AggFun::Sum | AggFun::Min | AggFun::Max => Some(column(agg_col.as_ref()?)?),
    };
    Some(AggState {
        source: c,
        key_cols,
        agg: *agg,
        agg_col,
        groups: BTreeMap::new(),
        synced: false,
    })
}

fn coll_id(m: &Module, name: &str) -> Result<usize> {
    m.collections
        .iter()
        .position(|c| c.name == name)
        .ok_or_else(|| BloomError::Eval(format!("unknown collection {name:?}")))
}

fn passes_filter(row: &[Value], eqs: &[(usize, usize)]) -> bool {
    eqs.iter().all(|&(i, j)| row[i] == row[j])
}

// ---------------------------------------------------------------------
// Planned (semi-naive) rule evaluation
// ---------------------------------------------------------------------

/// Evaluate a rule body over the full current state into `out` (the first
/// pass of a stratum where the head needs everything, and the
/// post-fixpoint deferred/async pass).
fn eval_rule_once(
    m: &Module,
    plans: &[Plan],
    ri: usize,
    store: &mut Store,
    out: &mut Rel,
    probes: &mut u64,
) -> Result<()> {
    match &plans[ri].kind {
        PlanKind::Select { source, body } => {
            let rel = &store.rels[*source];
            eval_select(body, rel, 0..rel.len(), probes, out);
        }
        PlanKind::HashJoin { join, body, .. } => {
            // An empty side joins to nothing: no index, no probes.
            if !store.rels[join.left].is_empty() && !store.rels[join.right].is_empty() {
                store.rels[join.right].ensure_index(join.rindex);
                let (probe, opposite) = (&store.rels[join.left], &store.rels[join.right]);
                let rows = 0..probe.len();
                probe_join(
                    join,
                    body,
                    (probe, rows),
                    true,
                    (opposite, join.rindex),
                    probes,
                    out,
                );
            }
        }
        PlanKind::HashAnti { join, body } => {
            if !store.rels[join.left].is_empty() {
                // Nothing negated: every source row survives, unprobed.
                let negated = !store.rels[join.right].is_empty();
                if negated {
                    store.rels[join.right].ensure_index(join.rindex);
                }
                let neg = negated.then(|| &store.rels[join.right]);
                probe_anti(join, body, &store.rels[join.left], neg, probes, out);
            }
        }
        PlanKind::Incremental(slot) => {
            return eval_incremental(m, &m.rules[ri].body, store, *slot, out, probes);
        }
        PlanKind::Fallback => return eval_body(m, &store.rels, &m.rules[ri].body, out, probes),
    }
    Ok(())
}

/// The rows a monotone rule reads as collection `c`'s delta: the range
/// the previous iteration appended, or — seeding a stratum's first pass
/// (`cur` is `None`) — what this tick added to a table so far, and the
/// whole of anything else.
fn delta_of(store: &Store, cur: Option<&[Range<usize>]>, c: usize) -> Range<usize> {
    match cur {
        Some(cur) => cur[c].clone(),
        None if store.persistent[c] => store.inserted(c),
        None => 0..store.rels[c].len(),
    }
}

/// Evaluate a monotone rule against deltas (see [`delta_of`]) into `out`:
/// Δleft ⋈ right ∪ left ⋈ Δright, probing the maintained indexes.
fn eval_rule_delta(
    m: &Module,
    plans: &[Plan],
    ri: usize,
    store: &mut Store,
    cur: Option<&[Range<usize>]>,
    out: &mut Rel,
    probes: &mut u64,
) -> Result<()> {
    match &plans[ri].kind {
        PlanKind::Select { source, body } => {
            let rows = delta_of(store, cur, *source);
            eval_select(body, &store.rels[*source], rows, probes, out);
        }
        PlanKind::HashJoin { join, lindex, body } => {
            // A seed that is a side's whole content already joins to the
            // complete answer; the other term would only repeat it.
            let whole = |c: usize| cur.is_none() && !store.persistent[c];
            let (from_left, from_right) = match (whole(join.left), whole(join.right)) {
                (true, _) => (true, false),
                (false, true) => (false, true),
                (false, false) => (true, true),
            };
            for (go, probe_is_left, probed, opposite, slot) in [
                (from_left, true, join.left, join.right, join.rindex),
                (from_right, false, join.right, join.left, *lindex),
            ] {
                let rows = delta_of(store, cur, probed);
                // An empty side joins to nothing: no index, no probes.
                if !go || store.rels[opposite].is_empty() || rows.is_empty() {
                    continue;
                }
                store.rels[opposite].ensure_index(slot);
                let (probe, index) = (&store.rels[probed], (&store.rels[opposite], slot));
                probe_join(join, body, (probe, rows), probe_is_left, index, probes, out);
            }
        }
        // A body that does not resolve statically: re-derive fully
        // (correct, rare).
        PlanKind::Fallback => return eval_body(m, &store.rels, &m.rules[ri].body, out, probes),
        // Nonmonotonic bodies never run on deltas.
        PlanKind::HashAnti { .. } | PlanKind::Incremental(_) => {
            debug_assert!(false, "nonmonotonic body in delta evaluation");
        }
    }
    Ok(())
}

/// Fold the source table's tick delta into a running aggregate (one probe
/// per delta row). Runs exactly once per tick, when the rule's stratum
/// (or the post-fixpoint pass) comes up and the source is complete.
fn sync_aggregate(store: &mut Store, slot: usize, probes: &mut u64) -> Result<()> {
    let src = store.aggs[slot].source;
    let (deleted, inserted) = (&store.deleted[src], store.inserted(src));
    *probes += (deleted.len() + inserted.len()) as u64;
    store.aggs[slot].sync(deleted, &store.rels[src], inserted.start)
}

/// Aggregate over a table from its running per-group state: bring it up to
/// date, then emit every group into `out`.
fn eval_incremental(
    m: &Module,
    body: &RuleBody,
    store: &mut Store,
    slot: usize,
    out: &mut Rel,
    probes: &mut u64,
) -> Result<()> {
    let RuleBody::GroupBy {
        source,
        alias,
        having,
        projection,
        ..
    } = body
    else {
        unreachable!("incremental plans are built for group-by bodies only");
    };
    sync_aggregate(store, slot, probes)?;
    let agg = &store.aggs[slot];
    let d = &m.collections[agg.source];
    for (key, g) in &agg.groups {
        let group = GroupRow {
            source,
            d,
            rep: &g.rep,
            key,
            value: agg.value_of(g),
        };
        group.emit(alias, having.as_ref(), projection.as_ref(), out)?;
    }
    Ok(())
}

/// Stream the rows numbered `rows` through a compiled select body.
fn eval_select(body: &Body, rel: &Rel, rows: Range<usize>, probes: &mut u64, out: &mut Rel) {
    for row in rel.rows_in(rows) {
        *probes += 1;
        body.derive(&[row], out);
    }
}

/// Probe one side's rows (`probe`: the relation and the row range) against
/// an index over the other side (`index`: the relation and its slot).
fn probe_join(
    join: &JoinPlan,
    body: &Body,
    (probe, rows): (&Rel, Range<usize>),
    probe_is_left: bool,
    (opposite, slot): (&Rel, usize),
    probes: &mut u64,
    out: &mut Rel,
) {
    let (pkey, pfilter, ofilter) = if probe_is_left {
        (&join.lkey, &join.lfilter, &join.rfilter)
    } else {
        (&join.rkey, &join.rfilter, &join.lfilter)
    };
    for t in probe.rows_in(rows) {
        *probes += 1;
        if !passes_filter(t, pfilter) {
            continue;
        }
        for &o in opposite.probe(slot, &key_of(t, pkey)) {
            *probes += 1;
            let o = opposite.row(o as usize);
            if !passes_filter(o, ofilter) {
                continue;
            }
            let rows = if probe_is_left { [t, o] } else { [o, t] };
            body.derive(&rows, out);
        }
    }
}

/// Antijoin via existence probes against the index over the negated side
/// (`None`: the negated side is empty, nothing matches).
fn probe_anti(
    join: &JoinPlan,
    body: &Body,
    source: &Rel,
    neg: Option<&Rel>,
    probes: &mut u64,
    out: &mut Rel,
) {
    for t in source.rows() {
        *probes += 1;
        let matched = passes_filter(t, &join.lfilter)
            && neg.is_some_and(|neg| {
                let bucket = neg.probe(join.rindex, &key_of(t, &join.lkey));
                if join.rfilter.is_empty() {
                    return !bucket.is_empty();
                }
                bucket.iter().any(|&r| {
                    *probes += 1;
                    passes_filter(neg.row(r as usize), &join.rfilter)
                })
            });
        if !matched {
            body.derive(&[t], out);
        }
    }
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
    bindings: Vec<(&'a str, &'a CollectionDecl, &'a [Value])>,
    alias: Option<(&'a str, Value)>,
}

impl<'a> Env<'a> {
    fn lookup(&self, col: &ColRef) -> Result<Value> {
        if let Some((alias, v)) = &self.alias {
            if col.collection.is_empty() && col.column == *alias {
                return Ok(v.clone());
            }
        }
        for (name, decl, row) in &self.bindings {
            if !col.collection.is_empty() && col.collection != *name {
                continue;
            }
            if let Some(i) = decl.col_index(&col.column) {
                return Ok(row.get(i).expect("schema arity").clone());
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

    /// Stage the head row a single-row environment derives, unless a
    /// predicate rejects it; no projection passes `row` through.
    fn derive(
        &self,
        predicates: &[Predicate],
        projection: Option<&Vec<ProjItem>>,
        row: &[Value],
        out: &mut Rel,
    ) -> Result<()> {
        if !self.check_all(predicates)? {
            return Ok(());
        }
        match projection {
            Some(items) => out.insert(&self.project(items)?),
            None => out.insert(row),
        };
        Ok(())
    }

    fn project(&self, items: &[ProjItem]) -> Result<Vec<Value>> {
        let mut values = Vec::with_capacity(items.len());
        for item in items {
            values.push(match item {
                ProjItem::Col(c) => self.lookup(c)?,
                ProjItem::Lit(l) => lit_value(l),
            });
        }
        Ok(values)
    }
}

/// A collection's declaration and current rows, by name.
fn named<'a>(m: &'a Module, rels: &'a [Rel], name: &str) -> Result<(&'a CollectionDecl, &'a Rel)> {
    let c = coll_id(m, name)?;
    Ok((&m.collections[c], &rels[c]))
}

/// Evaluate a rule body over the whole state into `out`, by nested loops
/// and one-pass aggregation: the reference semantics.
fn eval_body(
    m: &Module,
    rels: &[Rel],
    body: &RuleBody,
    out: &mut Rel,
    probes: &mut u64,
) -> Result<()> {
    match body {
        RuleBody::Select {
            source,
            projection,
            predicates,
        } => {
            let (d, rel) = named(m, rels, source)?;
            for t in rel.rows() {
                *probes += 1;
                let env = Env {
                    bindings: vec![(source, d, t)],
                    alias: None,
                };
                env.derive(predicates, projection.as_ref(), t, out)?;
            }
        }
        RuleBody::Join {
            left,
            right,
            on,
            projection,
            predicates,
        } => {
            let (dl, lrel) = named(m, rels, left)?;
            let (dr, rrel) = named(m, rels, right)?;
            for lt in lrel.rows() {
                for rt in rrel.rows() {
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
                        out.insert(&env.project(projection)?);
                    }
                }
            }
        }
        RuleBody::AntiJoin {
            source,
            neg,
            on,
            projection,
            predicates,
        } => {
            let (ds, srel) = named(m, rels, source)?;
            let (dn, nrel) = named(m, rels, neg)?;
            for t in srel.rows() {
                let mut matched = false;
                for nt in nrel.rows() {
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
                env.derive(predicates, projection.as_ref(), t, out)?;
            }
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
            let (d, rel) = named(m, rels, source)?;
            // Group rows by the grouping key.
            let mut groups: BTreeMap<Vec<Value>, Vec<&[Value]>> = BTreeMap::new();
            for t in rel.rows() {
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
            for (key, rows) in groups {
                let group = GroupRow {
                    source,
                    d,
                    // Representative row for column resolution: the
                    // least, so it never depends on iteration order.
                    rep: rows.iter().min().expect("non-empty group"),
                    key: &key,
                    value: aggregate(source, d, *agg, agg_col.as_ref(), &rows)?,
                };
                group.emit(alias, having.as_ref(), projection.as_ref(), out)?;
            }
        }
    }
    Ok(())
}

/// One aggregated group on its way to the head: shared by the reference
/// and the incremental aggregation so `having` and projections cannot
/// drift apart.
struct GroupRow<'a> {
    source: &'a str,
    d: &'a CollectionDecl,
    rep: &'a [Value],
    key: &'a [Value],
    value: Value,
}

impl GroupRow<'_> {
    /// Stage the head row of this group, unless `having` rejects it.
    fn emit(
        &self,
        alias: &str,
        having: Option<&Predicate>,
        projection: Option<&Vec<ProjItem>>,
        out: &mut Rel,
    ) -> Result<()> {
        let env = Env {
            bindings: vec![(self.source, self.d, self.rep)],
            alias: Some((alias, self.value.clone())),
        };
        if let Some(h) = having {
            if !env.check(h)? {
                return Ok(());
            }
        }
        match projection {
            Some(items) => out.insert(&env.project(items)?),
            None => out.push_with(|cells| {
                cells.extend_from_slice(self.key);
                cells.push(self.value.clone());
            }),
        };
        Ok(())
    }
}

fn aggregate(
    source: &str,
    d: &CollectionDecl,
    agg: AggFun,
    agg_col: Option<&ColRef>,
    rows: &[&[Value]],
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
    fn derivations_count_distinct_tuples_per_rule_evaluation() {
        for mode in all_modes() {
            // A projection that collapses two rows derives one tuple per
            // evaluation. Naive evaluates the rule again in the iteration
            // that finds nothing new; semi-naive evaluates it once.
            let m = parse_module("module M { input a(x, y) output o(x) o <= a -> (a.x) }").unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[("a", vec![t2(1i64, 1i64), t2(1i64, 2i64)])]))
                .unwrap();
            assert_eq!(out.on("o"), &[t1(1i64)]);
            let s = inst.last_tick_stats();
            let evaluations = if mode == EvalMode::Naive { 2 } else { 1 };
            assert_eq!(s.fixpoint_iters, evaluations, "{mode:?}");
            assert_eq!(s.derivations, evaluations, "{mode:?}: one per evaluation");

            // A tuple re-derived into a table that already holds it counts.
            let m = parse_module("module M { input a(x) table t(x) t <= a }").unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap();
            assert_eq!(inst.last_tick_stats().derivations, evaluations, "{mode:?}");
            // Next tick the table has it: one evaluation, in both modes.
            inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap();
            assert_eq!(inst.last_tick_stats().derivations, 1, "{mode:?}");
            assert_eq!(inst.table("t"), &[t1(1i64)]);
        }
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

    /// Counters only: wall time differs run to run.
    fn work(s: TickStats) -> (u64, u64, u64) {
        (s.derivations, s.join_probes, s.fixpoint_iters)
    }

    #[test]
    fn rejected_tick_leaves_instance_untouched() {
        for mode in all_modes() {
            let m = parse_module(
                "module M { input a(x) input b(x, y) output o(x) table t(x) t <+ a o <= t }",
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap();
            let before = work(inst.cumulative_stats());
            // Wrong arity, unknown interface, not an input: all rejected
            // before the deferred merge is consumed or a tick is counted.
            for bad in [
                inputs(&[("b", vec![t1(9i64)])]),
                inputs(&[("ghost", vec![t1(9i64)])]),
                inputs(&[("t", vec![t1(9i64)])]),
            ] {
                assert!(matches!(inst.tick(bad), Err(BloomError::Eval(_))));
                assert_eq!(inst.ticks(), 1, "{mode:?}: a rejected tick is not a tick");
                assert_eq!(work(inst.cumulative_stats()), before);
                assert!(inst.table("t").is_empty());
            }
            let out = inst.tick(inputs(&[])).unwrap();
            assert_eq!(out.on("o"), &[t1(1i64)], "{mode:?}: deferred tuple lost");
            assert_eq!(inst.ticks(), 2);
        }
    }

    #[test]
    fn mid_fixpoint_error_rolls_the_tick_back() {
        // Stratum 0 fills `t`, `u` and the join table `j` (whose persistent
        // indexes follow every insert); in stratum 1 `lo` folds the delta
        // into its running state and then `total` fails on a non-integer
        // `sum` operand. The failing tick also starts by applying a
        // pending `<-` and a pending `<+`.
        const SRC: &str = r#"
module M {
  input a(k, v)
  input del(k, v)
  input later(k, v)
  output total(k, n)
  output lo(k, v)
  output jview(a, b)
  table t(k, v)
  table u(k, v)
  table j(a, b)
  t <= a
  t <+ later
  t <- del
  u <= t
  j <= (t * u) on (t.k = u.k) -> (t.v, u.v)
  lo <= t group by (t.k) agg min(t.v) as v
  total <= t group by (t.k) agg sum(t.v) as n
  jview <= j
}
"#;
        let first = inputs(&[
            ("a", vec![t2(1i64, 10i64), t2(1i64, 20i64), t2(3i64, 3i64)]),
            ("del", vec![t2(3i64, 3i64), t2(1i64, 10i64)]),
            ("later", vec![t2(4i64, 4i64)]),
        ]);
        let poison = inputs(&[("a", vec![t2(1i64, "x"), t2(2i64, 5i64)])]);
        let next = inputs(&[("a", vec![t2(2i64, 6i64), t2(1i64, 1i64)])]);
        for mode in all_modes() {
            let mut hit = ModuleInstance::with_mode(parse_module(SRC).unwrap(), mode).unwrap();
            let mut twin = ModuleInstance::with_mode(parse_module(SRC).unwrap(), mode).unwrap();
            hit.tick(first.clone()).unwrap();
            twin.tick(first.clone()).unwrap();

            let err = hit.tick(poison.clone()).unwrap_err();
            assert_eq!(err, BloomError::Eval("sum over non-integer".to_string()));
            assert_eq!(hit.ticks(), twin.ticks());
            assert_eq!(
                work(hit.cumulative_stats()),
                work(twin.cumulative_stats()),
                "{mode:?}"
            );
            assert_eq!(work(hit.last_tick_stats()), work(twin.last_tick_stats()));
            for table in ["t", "u", "j"] {
                assert_eq!(hit.table(table), twin.table(table), "{mode:?} {table}");
            }

            // Indexes, aggregate state and pending merges are as they were:
            // the same follow-up ticks do the same work to the same result.
            for _ in 0..2 {
                let (a, b) = (
                    hit.tick(next.clone()).unwrap(),
                    twin.tick(next.clone()).unwrap(),
                );
                assert_eq!(a, b, "{mode:?}");
                assert_eq!(work(hit.last_tick_stats()), work(twin.last_tick_stats()));
                for table in ["t", "u", "j"] {
                    assert_eq!(hit.table(table), twin.table(table), "{mode:?} {table}");
                }
            }
            assert!(hit.table("t").contains(&t2(4i64, 4i64)), "pending <+ kept");
            assert!(!hit.table("t").contains(&t2(3i64, 3i64)), "pending <- kept");
        }
    }

    #[test]
    fn unobserved_scratch_is_left_out_until_something_reads_it() {
        const SRC: &str = r#"
module R {
  input click(id)
  input request(id)
  output response(id, n)
  table log(id, k)
  scratch q(k, n)
  log <= click -> (click.id, 0)
  q <= log group by (log.k) agg count(*) as n
  response <~ (q * request) on (q.k = request.id) -> (q.k, q.n)
}
"#;
        let mut semi = ModuleInstance::new(parse_module(SRC).unwrap()).unwrap();
        let mut naive =
            ModuleInstance::with_mode(parse_module(SRC).unwrap(), EvalMode::Naive).unwrap();
        // Click ticks: `q`'s one consumer joins the empty `request`.
        for base in [0i64, 10, 20] {
            let clicks = inputs(&[("click", (base..base + 10).map(t1).collect())]);
            assert_eq!(
                semi.tick(clicks.clone()).unwrap(),
                naive.tick(clicks).unwrap()
            );
            assert_eq!(semi.last_tick_stats().derivations, 10, "only log <= click");
        }
        // A request opens the gate: the running count was kept current.
        let ask = inputs(&[("request", vec![t1(0i64)])]);
        let out = semi.tick(ask.clone()).unwrap();
        assert_eq!(out, naive.tick(ask).unwrap());
        assert_eq!(out.on("response"), &[t2(0i64, 30i64)]);
    }

    #[test]
    fn a_rule_that_would_fail_is_never_left_out() {
        // `s` is unobserved on this tick (its consumer is gated by the
        // empty `request`), but its predicate cannot resolve: the
        // reference error must surface all the same.
        for mode in all_modes() {
            let m = parse_module(
                r#"
module F {
  input click(id)
  input request(id)
  output o(id)
  scratch s(id)
  s <= click where ghost.id > 1
  o <= (s * request) on (s.id = request.id) -> (s.id)
}
"#,
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let err = inst.tick(inputs(&[("click", vec![t1(1i64)])])).unwrap_err();
            assert!(matches!(err, BloomError::Eval(_)), "{mode:?}");
            assert_eq!(inst.ticks(), 0);
        }
    }

    #[test]
    fn projection_with_literals() {
        let m = parse_module("module M { input a(x) output o(x, tag) o <= a -> (a.x, 'hit') }")
            .unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let out = inst.tick(inputs(&[("a", vec![t1(7i64)])])).unwrap();
        assert_eq!(out.on("o"), &[t2(7i64, "hit")]);
    }

    #[test]
    fn relations_and_indexes_iterate_in_one_order_every_time() {
        // Row order is derivation order. Rows are numbered in insertion
        // order, so two instances fed the same tuples hold them — and file
        // them in their indexes — in one order, whatever the run.
        let edges: Vec<Tuple> = (0..256i64).rev().map(|i| t2(i, i + 1_000)).collect();
        let run = || {
            let mut inst = ModuleInstance::new(parse_module(TC).unwrap()).unwrap();
            inst.tick(inputs(&[("edge", edges.clone())])).unwrap();
            inst
        };
        let (a, b) = (run(), run());
        let e = coll_id(&a.module, "e").unwrap();
        let rows = |inst: &ModuleInstance| -> Vec<Vec<Value>> {
            inst.store.rels[e].rows().map(<[Value]>::to_vec).collect()
        };
        let fed: Vec<Vec<Value>> = edges.iter().map(|t| t.0.clone()).collect();
        assert_eq!(rows(&a), fed, "rows in insertion order");
        assert_eq!(rows(&a), rows(&b));
        // `e`'s one index (on `src`, probed by the join) stays live.
        for src in 0..256i64 {
            let key = [Value::Int(src)];
            assert_eq!(a.store.rels[e].probe(0, &key), &[255 - src as u32]);
            assert_eq!(
                a.store.rels[e].probe(0, &key),
                b.store.rels[e].probe(0, &key)
            );
        }
    }
}
