//! `Project` / `Aggregate`: the projection operator closing the pipeline.
//!
//! Produces the final result table from the joined tuples: return items,
//! grouping + aggregation, having, distinct, order by, limit.
//!
//! The projection is a streaming `ProjectionSink`: the join emits its
//! tuples into it one at a time, as flat row references, and `finish`
//! closes the table.
//! Every name is resolved to a dense slot and every event attribute to its
//! storage column before the first tuple (`CompiledProjection`), so an
//! emission evaluates straight from the partitions' columns — no `Event` is
//! materialized. What a sink retains depends only on the return shape:
//!
//! * **aggregates** (single group or `group by`): one accumulator set and
//!   one representative tuple per group — nothing per tuple;
//! * **`distinct`**: the distinct rows, in first-occurrence order, found
//!   through an index keyed on the values' bit patterns;
//! * **plain rows**: one row per tuple that passes `having`.
//!
//! The join drive delivers its final step's tuples straight into the sink
//! (see `op/join.rs`), so the joined tuples are never written to an output
//! arena. The dynamic [`RowCtx`] path ([`project`]) remains as the
//! fallback for expressions that resist compilation and as the projection
//! of the brute-force oracle (`reference.rs`), which therefore shares no
//! tuple loop with the sink.

use std::collections::HashMap;

use aiql_lang::{Expr, SortDir};
use aiql_model::{EntityId, Value};
use aiql_storage::EventStore;

use crate::analyze::AnalyzedMultievent;
use crate::error::EngineError;
use crate::eval::{self, agg_key, RowCtx, SlotCtx, SlotEnv, SlotExpr, TupleView};
use crate::op::{
    EventRef, ExecEnv, Flow, JoinOutput, OpIo, Operator, PipelineState, RefArena, Tuple,
};
use crate::result::ResultTable;

/// The projection operator.
#[derive(Debug, Clone, Copy)]
pub struct Project {
    /// Whether the query aggregates (labels the operator `Aggregate`).
    aggregated: bool,
}

impl Project {
    pub(crate) fn new(aggregated: bool) -> Self {
        Project { aggregated }
    }
}

impl Operator for Project {
    fn kind(&self) -> &'static str {
        if self.aggregated {
            "Aggregate"
        } else {
            "Project"
        }
    }

    fn run<'e>(
        &self,
        env: &'e ExecEnv<'_>,
        st: &mut PipelineState<'e>,
    ) -> Result<OpIo, EngineError> {
        let rows_in = (st.sink.as_ref()).map_or(st.frontier.len(), ProjectionSink::pushed);
        let mut table = match st.sink.take().or_else(|| ProjectionSink::new(env)) {
            // The join streamed into the sink — or never ran (a pattern came
            // back empty) and a fresh sink closes the empty table.
            Some(sink) => sink.finish()?,
            // The projection resisted compilation: the dynamic path (which
            // can only fail on, or find nothing in, such a projection — it
            // needs no governor).
            None => project(env.store, env.a, &st.frontier.materialize(&env.parts))?,
        };
        table.truncated = st.truncated;
        let rows_out = table.rows.len();
        st.table = Some(table);
        Ok(OpIo {
            rows_in,
            rows_out,
            fanout: 1,
            ..OpIo::default()
        })
    }
}

/// Populates the (reused) row context from a materialized tuple.
pub(crate) fn fill_ctx<'a>(a: &'a AnalyzedMultievent, t: &Tuple, ctx: &mut RowCtx<'a>) {
    ctx.var_entity.clear();
    ctx.events.clear();
    ctx.aliases.clear();
    ctx.agg_values.clear();
    for (vi, var) in a.vars.iter().enumerate() {
        if let Some(id) = t.vars[vi] {
            ctx.var_entity.insert(var.name.as_str(), id);
        }
    }
    for (pi, p) in a.patterns.iter().enumerate() {
        if let Some(e) = t.events[pi] {
            ctx.events.insert(p.name.as_str(), e);
        }
    }
}

/// Largest magnitude below which every integer-valued `f64` sum is exact,
/// with headroom for one more such addend.
const EXACT_SUM: f64 = (1u64 << 52) as f64;

/// Aggregate accumulator.
#[derive(Debug, Clone, Default)]
pub(crate) struct AggAcc {
    count: u64,
    sum: f64,
    all_int: bool,
    /// No `Float` was added and `sum` never left the range where
    /// integer-valued `f64` addition is exact, hence associative: merging
    /// two such accumulators equals adding their values one by one.
    exact: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggAcc {
    pub(crate) fn new() -> Self {
        AggAcc {
            all_int: true,
            exact: true,
            ..Default::default()
        }
    }

    pub(crate) fn add(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        if !matches!(v, Value::Int(_)) {
            self.all_int = false;
        }
        if matches!(v, Value::Float(_)) || self.sum.abs() > EXACT_SUM {
            self.exact = false;
        }
        self.min = Some(match self.min {
            Some(m) if eval::cmp_values(&m, &v).is_le() => m,
            _ => v,
        });
        self.max = Some(match self.max {
            Some(m) if eval::cmp_values(&m, &v).is_ge() => m,
            _ => v,
        });
    }

    /// Folds in the accumulator of the values that directly follow this
    /// one's. Equal to adding them one by one when both are `exact`.
    fn merge(&mut self, o: &AggAcc) {
        self.count += o.count;
        self.sum += o.sum;
        self.all_int &= o.all_int;
        self.exact &= o.exact && self.sum.abs() <= EXACT_SUM;
        // Ties keep the earlier value, as `add` does.
        self.min = match (self.min, o.min) {
            (Some(m), Some(v)) if !eval::cmp_values(&m, &v).is_le() => Some(v),
            (m, v) => m.or(v),
        };
        self.max = match (self.max, o.max) {
            (Some(m), Some(v)) if !eval::cmp_values(&m, &v).is_ge() => Some(v),
            (m, v) => m.or(v),
        };
    }

    pub(crate) fn finalize(&self, func: aiql_lang::AggFunc) -> Value {
        use aiql_lang::AggFunc::*;
        match func {
            Count => Value::Int(self.count as i64),
            Sum => {
                if self.all_int {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            Min => self.min.unwrap_or(Value::Null),
            Max => self.max.unwrap_or(Value::Null),
        }
    }
}

/// Collects every aggregate node appearing in the return items and having
/// clause.
pub(crate) fn collect_aggs(a: &AnalyzedMultievent) -> Vec<(String, aiql_lang::AggFunc, Expr)> {
    let mut out: Vec<(String, aiql_lang::AggFunc, Expr)> = Vec::new();
    let mut visit = |e: &Expr| {
        e.visit(&mut |node| {
            if let Expr::Agg { func, arg } = node {
                let key = agg_key(node);
                if !out.iter().any(|(k, _, _)| k == &key) {
                    out.push((key, *func, (**arg).clone()));
                }
            }
        });
    };
    for item in &a.ret.items {
        visit(&item.expr);
    }
    if let Some(h) = &a.having {
        visit(h);
    }
    out
}

/// Whether a query's projection aggregates (aggregate calls or `group by`).
pub(crate) fn is_aggregated(a: &AnalyzedMultievent) -> bool {
    !a.group_by.is_empty() || !collect_aggs(a).is_empty()
}

/// Column header for a return item.
pub(crate) fn column_name(item: &aiql_lang::ReturnItem) -> String {
    item.alias
        .clone()
        .unwrap_or_else(|| aiql_lang::pretty::print_expr(&item.expr))
}

/// A fully slot-compiled projection: return items, grouping keys, having
/// filter, and aggregate arguments with every name resolved to a dense
/// slot and every event attribute to its column.
#[derive(Debug)]
pub(crate) struct CompiledProjection {
    /// Compiled return items, in column order.
    pub(crate) items: Vec<SlotExpr>,
    /// Alias slot written after evaluating each item (aggregated path).
    pub(crate) alias_slot: Vec<Option<usize>>,
    /// One unset alias per alias slot: what every per-tuple evaluation
    /// sees (aliases only bind while a finished group's row is emitted).
    pub(crate) unset_aliases: Vec<Option<Value>>,
    /// Compiled grouping keys.
    pub(crate) group_by: Vec<SlotExpr>,
    /// Compiled having filter.
    pub(crate) having: Option<SlotExpr>,
    /// Aggregates: function + compiled argument, in [`collect_aggs`] order
    /// (the dense index [`SlotExpr::Agg`] nodes refer to).
    pub(crate) aggs: Vec<(aiql_lang::AggFunc, SlotExpr)>,
    /// The history slots [`SlotExpr::History`] nodes index (anomaly
    /// queries only): see [`SlotEnv::history`].
    pub(crate) lags: Vec<(usize, u32)>,
    /// Aggregate calls or `group by` present.
    aggregated: bool,
}

/// Compiles a query's projection to slots. `None` when any expression
/// resists compilation (unknown name or event attribute) — the caller then
/// keeps the dynamic [`RowCtx`] path, which reproduces legacy behavior bit
/// for bit, errors included.
pub(crate) fn compile_projection(
    store: &EventStore,
    a: &AnalyzedMultievent,
) -> Option<CompiledProjection> {
    let aggs_src = collect_aggs(a);
    let mut env = SlotEnv {
        vars: a
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name.as_str(), i))
            .collect(),
        events: a
            .patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i))
            .collect(),
        aliases: HashMap::new(),
        aggs: aggs_src
            .iter()
            .enumerate()
            .map(|(i, (k, _, _))| (k.clone(), i))
            .collect(),
        history: Vec::new(),
    };
    // Compile items in order; each alias becomes visible to later items,
    // the grouping keys, the having clause, and the aggregate arguments —
    // the same progressive scope the analyzer validated against.
    let mut items = Vec::with_capacity(a.ret.items.len());
    let mut alias_slot = Vec::with_capacity(a.ret.items.len());
    let mut naliases = 0usize;
    for item in &a.ret.items {
        items.push(eval::compile_slots(&item.expr, store, &mut env)?);
        alias_slot.push(item.alias.as_ref().map(|alias| {
            let slot = naliases;
            naliases += 1;
            env.aliases.insert(alias.as_str(), slot);
            slot
        }));
    }
    let group_by: Vec<SlotExpr> = a
        .group_by
        .iter()
        .map(|g| eval::compile_slots(g, store, &mut env))
        .collect::<Option<_>>()?;
    let having = match &a.having {
        Some(h) => Some(eval::compile_slots(h, store, &mut env)?),
        None => None,
    };
    let aggs: Vec<(aiql_lang::AggFunc, SlotExpr)> = aggs_src
        .iter()
        .map(|(_, func, arg)| Some((*func, eval::compile_slots(arg, store, &mut env)?)))
        .collect::<Option<_>>()?;
    Some(CompiledProjection {
        items,
        alias_slot,
        unset_aliases: vec![None; naliases],
        aggregated: !aggs.is_empty() || !group_by.is_empty(),
        group_by,
        having,
        aggs,
        lags: env.history,
    })
}

/// What the sink of a query retains, as `EXPLAIN` names it on the join
/// node: `count` / `sum, avg by (p1)` / `distinct(p1, f2)` / `rows`.
pub(crate) fn sink_label(a: &AnalyzedMultievent) -> String {
    let join = |names: Vec<String>| names.join(", ");
    let aggs = collect_aggs(a);
    if !aggs.is_empty() || !a.group_by.is_empty() {
        let mut label = join(aggs.iter().map(|(_, f, _)| format!("{f:?}")).collect());
        if !a.group_by.is_empty() {
            let keys = a.group_by.iter().map(aiql_lang::pretty::print_expr);
            label.push_str(&format!(" by ({})", join(keys.collect())));
        }
        label.trim_start().to_lowercase()
    } else if a.ret.distinct {
        format!(
            "distinct({})",
            join(a.ret.items.iter().map(column_name).collect())
        )
    } else {
        "rows".to_string()
    }
}

/// The bit pattern `distinct` and `group by` compare a value by — its type
/// tag and payload: equal exactly when [`ResultTable::row_key`] renders the
/// two values alike (`Int(1)` ≠ `Float(1.0)`, `0.0` ≠ `-0.0`, every NaN one
/// value).
fn value_bits(v: Value) -> [u64; 2] {
    match v {
        Value::Null => [0, 0],
        Value::Int(i) => [1, i as u64],
        Value::Float(x) if x.is_nan() => [2, f64::NAN.to_bits()],
        Value::Float(x) => [2, x.to_bits()],
        Value::Str(s) => [3, u64::from(s.raw())],
        Value::Ip(ip) => [4, u64::from(ip.0)],
        Value::Time(t) => [5, t.micros() as u64],
        Value::Bool(b) => [6, u64::from(b)],
    }
}

/// First-occurrence numbering of value rows, keyed on the values' bit
/// patterns — entity symbols and integers, not rendered strings.
#[derive(Debug, Default)]
pub(crate) struct KeyIndex {
    index: HashMap<Box<[u64]>, usize>,
    /// Reused key encoding: a lookup that hits allocates nothing.
    bits: Vec<u64>,
}

impl KeyIndex {
    /// The number of `key`, the next unused one when it is new (`true`).
    pub(crate) fn find_or_insert(&mut self, key: &[Value]) -> (usize, bool) {
        self.bits.clear();
        self.bits.extend(key.iter().flat_map(|&v| value_bits(v)));
        let next = self.index.len();
        match self.index.get(self.bits.as_slice()) {
            Some(&i) => (i, false),
            None => {
                self.index.insert(self.bits.as_slice().into(), next);
                (next, true)
            }
        }
    }
}

/// What a sink has retained of the tuples pushed so far.
#[derive(Debug)]
enum SinkState {
    /// One evaluated row per tuple that passed `having` — under `distinct`
    /// (`seen`), per distinct such row, in first-occurrence order.
    Rows {
        rows: Vec<Vec<Value>>,
        seen: Option<KeyIndex>,
    },
    /// Per group, in first-occurrence order: its key (no keys when the
    /// query has no `group by` — one implicit group), its representative
    /// (first) tuple, which the group's non-aggregate items are evaluated
    /// on, and `aggs.len()` accumulators in `accs`.
    Groups {
        keys: KeyIndex,
        reps: Vec<Tuple>,
        accs: Vec<AggAcc>,
    },
}

/// The streaming projection: see the module docs.
pub(crate) struct ProjectionSink<'e> {
    /// The execution the row references resolve in; every sink of it shares
    /// its compiled projection `cp`.
    env: &'e ExecEnv<'e>,
    cp: &'e CompiledProjection,
    state: SinkState,
    /// Tuples pushed.
    pushed: usize,
    /// First evaluation error; `finish` returns it.
    err: Option<EngineError>,
    /// Reused buffer of one tuple's evaluated row or group key.
    vals: Vec<Value>,
    /// Reused one-tuple buffer [`JoinOutput::emit`] assembles its tuple in.
    tuple: RefArena,
}

/// The evaluation context of one tuple (`aliases` and `aggs` are bound only
/// while a finished group's row is emitted; no history outside anomaly
/// queries).
pub(crate) fn slots<'t>(
    env: &'t ExecEnv<'t>,
    tuple: TupleView<'t>,
    aliases: &'t [Option<Value>],
    aggs: &'t [Value],
) -> SlotCtx<'t> {
    SlotCtx {
        store: env.store,
        parts: &env.parts,
        tuple,
        aliases,
        aggs,
        history: &[],
    }
}

impl<'e> ProjectionSink<'e> {
    /// An empty sink for the execution's projection; `None` when it did
    /// not compile (the caller keeps the dynamic path).
    pub(crate) fn new(env: &'e ExecEnv<'e>) -> Option<Self> {
        let cp = env.projection.as_ref()?;
        let state = if cp.aggregated {
            SinkState::Groups {
                keys: KeyIndex::default(),
                reps: Vec::new(),
                accs: Vec::new(),
            }
        } else {
            SinkState::Rows {
                rows: Vec::new(),
                seen: env.a.ret.distinct.then(KeyIndex::default),
            }
        };
        Some(ProjectionSink {
            env,
            cp,
            state,
            pushed: 0,
            err: None,
            vals: Vec::new(),
            tuple: RefArena::new(env.a.patterns.len(), env.a.vars.len()),
        })
    }

    /// Counts one emission and keeps its error, if any.
    fn note(&mut self, consumed: Result<(), EngineError>) -> Flow {
        self.pushed += 1;
        match consumed {
            Ok(()) => Flow::Continue,
            Err(e) => {
                self.err.get_or_insert(e);
                Flow::Stop
            }
        }
    }

    /// Tuples pushed so far.
    pub(crate) fn pushed(&self) -> usize {
        self.pushed
    }

    /// Rows, distinct keys, or groups retained so far.
    pub(crate) fn kept(&self) -> usize {
        match &self.state {
            SinkState::Rows { rows, .. } => rows.len(),
            SinkState::Groups { reps, .. } => reps.len(),
        }
    }

    /// Closes the table: emits each group's row (aggregates), then
    /// distinct, order by, limit.
    pub(crate) fn finish(self) -> Result<ResultTable, EngineError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        let (env, a, cp) = (self.env, self.env.a, self.cp);
        let mut rows: Vec<Vec<Value>> = match self.state {
            SinkState::Rows { rows, .. } => rows,
            SinkState::Groups { reps, accs, .. } => {
                let mut rows = Vec::with_capacity(reps.len());
                let mut aggs = vec![Value::Null; cp.aggs.len()];
                let mut aliases = cp.unset_aliases.clone();
                for (g, rep) in reps.iter().enumerate() {
                    let group = &accs[g * cp.aggs.len()..(g + 1) * cp.aggs.len()];
                    for (slot, ((func, _), acc)) in cp.aggs.iter().zip(group).enumerate() {
                        aggs[slot] = acc.finalize(*func);
                    }
                    aliases.iter_mut().for_each(|v| *v = None);
                    let rep = TupleView::Events(rep);
                    let mut row = Vec::with_capacity(cp.items.len());
                    for (item, alias) in cp.items.iter().zip(&cp.alias_slot) {
                        let v = item.eval(&slots(env, rep, &aliases, &aggs))?;
                        if let Some(slot) = alias {
                            aliases[*slot] = Some(v);
                        }
                        row.push(v);
                    }
                    let scx = slots(env, rep, &aliases, &aggs);
                    if cp.having.as_ref().map_or(Ok(true), |h| h.passes(&scx))? {
                        rows.push(row);
                    }
                }
                if a.ret.distinct {
                    let mut seen = KeyIndex::default();
                    rows.retain(|r| seen.find_or_insert(r).1);
                }
                rows
            }
        };
        order_and_limit(a, &mut rows)?;
        let mut table = ResultTable::new(a.ret.items.iter().map(column_name).collect());
        table.rows = rows;
        Ok(table)
    }
}

/// One push: evaluates what the sink's state needs of `tuple` and retains
/// it (see [`SinkState`]). Per-tuple evaluation sees no alias and no
/// aggregate value, exactly as the dynamic path's tuple loop; `having`
/// without aggregation degenerates to a row filter.
fn consume(
    env: &ExecEnv<'_>,
    cp: &CompiledProjection,
    state: &mut SinkState,
    vals: &mut Vec<Value>,
    tuple: TupleView<'_>,
) -> Result<(), EngineError> {
    let scx = slots(env, tuple, &cp.unset_aliases, &[]);
    let eval_into = |exprs: &[SlotExpr], vals: &mut Vec<Value>| {
        vals.clear();
        (exprs.iter()).try_for_each(|e| e.eval(&scx).map(|v| vals.push(v)))
    };
    match state {
        SinkState::Rows { rows, seen } => {
            eval_into(&cp.items, vals)?;
            let passes = cp.having.as_ref().map_or(Ok(true), |h| h.passes(&scx))?;
            if passes && seen.as_mut().is_none_or(|s| s.find_or_insert(vals).1) {
                rows.push(vals.clone());
            }
        }
        SinkState::Groups { keys, reps, accs } => {
            eval_into(&cp.group_by, vals)?;
            let g = match vals.is_empty() {
                true => 0,
                false => keys.find_or_insert(vals).0,
            };
            if g == reps.len() {
                reps.push(tuple.materialize(&env.parts));
                accs.extend(cp.aggs.iter().map(|_| AggAcc::new()));
            }
            let group = &mut accs[g * cp.aggs.len()..(g + 1) * cp.aggs.len()];
            for ((_, arg), acc) in cp.aggs.iter().zip(group) {
                acc.add(arg.eval(&scx)?);
            }
        }
    }
    Ok(())
}

impl JoinOutput for ProjectionSink<'_> {
    #[inline]
    fn emit(
        &mut self,
        src: &RefArena,
        i: usize,
        pattern: usize,
        r: EventRef,
        subject: (usize, EntityId),
        object: (usize, EntityId),
    ) -> Flow {
        self.tuple.truncate(0);
        self.tuple.emit(src, i, pattern, r, subject, object);
        let tuple = TupleView::Refs {
            events: self.tuple.events_of(0),
            vars: self.tuple.vars_of(0),
        };
        let consumed = consume(self.env, self.cp, &mut self.state, &mut self.vals, tuple);
        self.note(consumed)
    }

    fn delivered(&self) -> usize {
        self.pushed
    }

    /// Rows (with their keys under `distinct`) or group states — never the
    /// pushed tuples themselves.
    fn retained_bytes(&self) -> u64 {
        let (cp, a) = (self.cp, self.env.a);
        let values = |n: usize| n * std::mem::size_of::<Value>();
        let key = |n: usize| 2 * n * std::mem::size_of::<u64>();
        let per = match &self.state {
            SinkState::Rows { seen, .. } => {
                let n = cp.items.len();
                std::mem::size_of::<Vec<Value>>() + values(n) + seen.as_ref().map_or(0, |_| key(n))
            }
            SinkState::Groups { .. } => {
                key(cp.group_by.len())
                    + std::mem::size_of::<Tuple>()
                    + a.patterns.len() * std::mem::size_of::<Option<aiql_model::Event>>()
                    + a.vars.len() * std::mem::size_of::<Option<EntityId>>()
                    + cp.aggs.len() * std::mem::size_of::<AggAcc>()
            }
        };
        (self.kept() * per) as u64
    }

    fn fork(&self) -> Self {
        ProjectionSink::new(self.env).expect("a sink exists, so the projection compiled")
    }

    fn merge(&mut self, part: Self) -> bool {
        let naggs = self.cp.aggs.len();
        match (&mut self.state, part.state) {
            (SinkState::Rows { rows, seen }, SinkState::Rows { rows: more, .. }) => {
                let fresh =
                    |row: &Vec<Value>| seen.as_mut().is_none_or(|s| s.find_or_insert(row).1);
                rows.extend(more.into_iter().filter(fresh));
            }
            (
                SinkState::Groups { keys, reps, accs },
                SinkState::Groups {
                    keys: more_keys,
                    reps: more_reps,
                    accs: more_accs,
                },
            ) => {
                if !accs.iter().chain(&more_accs).all(|acc| acc.exact) {
                    return false;
                }
                // Their groups in their first-occurrence order (no keys:
                // the one implicit group).
                let mut their_keys: Vec<_> = more_keys.index.into_iter().collect();
                their_keys.sort_unstable_by_key(|&(_, h)| h);
                let mut their_keys = their_keys.into_iter();
                for (h, rep) in more_reps.into_iter().enumerate() {
                    let next = reps.len();
                    let g = their_keys
                        .next()
                        .map_or(0, |(key, _)| *keys.index.entry(key).or_insert(next));
                    let theirs = &more_accs[h * naggs..(h + 1) * naggs];
                    if g == next {
                        reps.push(rep);
                        accs.extend_from_slice(theirs);
                    } else {
                        let ours = &mut accs[g * naggs..(g + 1) * naggs];
                        (ours.iter_mut().zip(theirs)).for_each(|(acc, o)| acc.merge(o));
                    }
                }
            }
            _ => unreachable!("forks share the projection, hence the state shape"),
        }
        self.pushed += part.pushed;
        true
    }

    fn failed(&mut self) -> Option<EngineError> {
        self.err.take()
    }
}

/// Projects joined tuples into the final result table (aggregation,
/// having, distinct, order by, limit) on the dynamic [`RowCtx`] path: every
/// name is looked up per evaluation, in a row context refilled per tuple.
/// Deliberately not a sink: it is the oracle's projection, an
/// implementation the sink shares no tuple loop with.
pub fn project(
    store: &EventStore,
    a: &AnalyzedMultievent,
    tuples: &[Tuple],
) -> Result<ResultTable, EngineError> {
    let columns: Vec<String> = a.ret.items.iter().map(column_name).collect();
    let mut table = ResultTable::new(columns);
    let aggs = collect_aggs(a);
    let aggregated = !aggs.is_empty() || !a.group_by.is_empty();
    let mut ctx = RowCtx::default();

    let mut rows: Vec<Vec<Value>> = Vec::new();
    if !aggregated {
        for t in tuples {
            fill_ctx(a, t, &mut ctx);
            let mut row = Vec::with_capacity(a.ret.items.len());
            for item in &a.ret.items {
                row.push(eval::eval(&item.expr, store, &ctx)?);
            }
            if let Some(h) = &a.having {
                // having without aggregation degenerates to a row filter.
                if !eval::eval(h, store, &ctx)?.truthy() {
                    continue;
                }
            }
            rows.push(row);
        }
    } else {
        // Group tuples; `groups` is in first-occurrence order.
        struct Group<'t> {
            rep: &'t Tuple,
            accs: Vec<AggAcc>,
        }
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut groups: Vec<Group<'_>> = Vec::new();
        for t in tuples {
            fill_ctx(a, t, &mut ctx);
            let mut key_vals = Vec::with_capacity(a.group_by.len());
            for g in &a.group_by {
                key_vals.push(eval::eval(g, store, &ctx)?);
            }
            let next = groups.len();
            let gi = *index.entry(ResultTable::row_key(&key_vals)).or_insert(next);
            if gi == next {
                groups.push(Group {
                    rep: t,
                    accs: aggs.iter().map(|_| AggAcc::new()).collect(),
                });
            }
            for ((_, _, arg), acc) in aggs.iter().zip(groups[gi].accs.iter_mut()) {
                acc.add(eval::eval(arg, store, &ctx)?);
            }
        }
        for group in &groups {
            fill_ctx(a, group.rep, &mut ctx);
            for ((k, func, _), acc) in aggs.iter().zip(group.accs.iter()) {
                ctx.agg_values.insert(k.clone(), acc.finalize(*func));
            }
            // Alias environment (items may be referenced by alias in having).
            let mut row = Vec::with_capacity(a.ret.items.len());
            for item in &a.ret.items {
                let v = eval::eval(&item.expr, store, &ctx)?;
                if let Some(alias) = &item.alias {
                    ctx.aliases.insert(alias.clone(), v);
                }
                row.push(v);
            }
            if let Some(h) = &a.having {
                if !eval::eval(h, store, &ctx)?.truthy() {
                    continue;
                }
            }
            rows.push(row);
        }
    }

    if a.ret.distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(ResultTable::row_key(r)));
    }
    order_and_limit(a, &mut rows)?;
    table.rows = rows;
    Ok(table)
}

/// The projection tail shared by the dynamic path and the sink: order by,
/// limit.
fn order_and_limit(a: &AnalyzedMultievent, rows: &mut Vec<Vec<Value>>) -> Result<(), EngineError> {
    if !a.order_by.is_empty() {
        // Each order key must correspond to an output column.
        let mut key_cols = Vec::with_capacity(a.order_by.len());
        for o in &a.order_by {
            let idx = a
                .ret
                .items
                .iter()
                .position(|item| {
                    item.expr == o.expr
                        || matches!(
                            (&o.expr, &item.alias),
                            (Expr::Ref { var, attr: None }, Some(alias)) if var == alias
                        )
                })
                .ok_or_else(|| {
                    EngineError::Analysis(
                        "order by must reference a returned column or alias".into(),
                    )
                })?;
            key_cols.push((idx, o.dir));
        }
        rows.sort_by(|x, y| {
            for (idx, dir) in &key_cols {
                let ord = eval::cmp_values(&x[*idx], &y[*idx]);
                let ord = match dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    if let Some(limit) = a.limit {
        rows.truncate(limit as usize);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{Interner, IpV4, Timestamp};

    fn sample_values() -> Vec<Value> {
        let mut interner = Interner::new();
        vec![
            Value::Null,
            Value::Int(1),
            Value::Int(-1),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Bool(true),
            Value::Time(Timestamp::from_secs(1)),
            Value::Ip(IpV4(1)),
            Value::Str(interner.intern("a")),
            Value::Str(interner.intern("b")),
        ]
    }

    /// The index equates two rows exactly when `row_key` — the dynamic
    /// path's `distinct` and `group by` key — renders them alike, and
    /// numbers them in first-occurrence order.
    #[test]
    fn key_index_equates_rows_exactly_as_row_key_does() {
        let vals = sample_values();
        let mut index = KeyIndex::default();
        let mut by_row_key: HashMap<String, usize> = HashMap::new();
        for _round in 0..2 {
            for &x in &vals {
                for &y in &vals {
                    let row = [x, y];
                    let next = by_row_key.len();
                    let want = *by_row_key.entry(ResultTable::row_key(&row)).or_insert(next);
                    assert_eq!(
                        index.find_or_insert(&row),
                        (want, want == next),
                        "row {row:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_accumulators_merge_to_the_sequential_result() {
        let vals = [
            Value::Int(7),
            Value::Null,
            Value::Int(-3),
            Value::Time(Timestamp::from_secs(9)),
            Value::Int(7),
            Value::Bool(true),
            Value::Int(-3),
        ];
        for split in 0..=vals.len() {
            let mut whole = AggAcc::new();
            let (mut head, mut tail) = (AggAcc::new(), AggAcc::new());
            vals.iter().for_each(|&v| whole.add(v));
            vals[..split].iter().for_each(|&v| head.add(v));
            vals[split..].iter().for_each(|&v| tail.add(v));
            assert!(head.exact && tail.exact);
            head.merge(&tail);
            for func in [
                aiql_lang::AggFunc::Count,
                aiql_lang::AggFunc::Sum,
                aiql_lang::AggFunc::Avg,
                aiql_lang::AggFunc::Min,
                aiql_lang::AggFunc::Max,
            ] {
                assert_eq!(head.finalize(func), whole.finalize(func), "split {split}");
            }
            assert!(head.exact);
        }
    }

    #[test]
    fn floats_and_huge_sums_mark_an_accumulator_inexact() {
        let mut acc = AggAcc::new();
        acc.add(Value::Int(1));
        assert!(acc.exact);
        acc.add(Value::Float(0.5));
        assert!(!acc.exact);
        let mut big = AggAcc::new();
        big.add(Value::Int(1 << 52));
        assert!(big.exact);
        let mut other = big.clone();
        other.merge(&big);
        assert!(!other.exact, "a sum past 2^52 no longer merges exactly");
        big.add(Value::Int(1));
        assert!(!big.exact);
    }
}
