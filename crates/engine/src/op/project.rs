//! `Project` / `Aggregate`: the projection operator closing the pipeline.
//!
//! Produces the final result table from the joined tuples: return items,
//! grouping + aggregation, having, distinct, order by, limit.
//!
//! The projection is a streaming `ProjectionSink`: the join emits its
//! tuples into it one at a time, as flat row references, and `finish`
//! closes the table. Analysis resolved every name to a dense slot and every
//! event attribute to its storage column (`CompiledProjection`), so an
//! emission evaluates straight from the partitions' columns — no `Event` is
//! materialized. What a sink retains depends only on the return shape:
//!
//! * **aggregates** (single group or `group by`): one accumulator set and
//!   one representative row reference per group (its first tuple's refs,
//!   copied into a [`RefArena`]) — nothing per tuple;
//! * **`distinct`**: the distinct rows, in first-occurrence order, found
//!   through an index keyed on the values' bit patterns — and, when every
//!   item is an entity reference (no aggregate, no `having`), first through
//!   a set of the tuples' entity-id keys: a row is a function of those ids,
//!   so a repeated key skips evaluation, and only a new one is evaluated
//!   and looked up by value (same-named entities on two hosts still give
//!   one row);
//! * **plain rows**: one row per tuple that passes `having`.
//!
//! A finished group becomes a row through `GroupCloser`, the one
//! sequence `finish` and the anomaly window loop share: finalise the
//! accumulators, bind the aliased items, take the history, test `having`,
//! build the kept group's row, filter it through `distinct`.
//!
//! Every row lands in the table's row store ([`Rows`]): its cells are
//! pushed straight into fixed-capacity chunks, so a row costs its cells and
//! no heap vector of its own. A parallel fork's plain rows reach the
//! output by moving its chunks ([`Rows::append`]); a `distinct` fork's rows
//! pass the output's first-occurrence filter one by one. Under a memory
//! budget a row is charged its cells (`width × size_of::<Value>()`), plus
//! its value key under `distinct` — what it holds, whatever chunk it fell
//! in, so a fork's tally and the merge thread's charge agree. A group is
//! charged its key, its representative's refs
//! (`RefArena::tuple_bytes`) and its accumulators.
//!
//! When the join's last levels are unread
//! (`CompiledProjection::unread`), the sink receives a tuple and a count
//! of the matches below it instead: plain rows push that many copies,
//! `distinct` looks the row up once, and a group adds the count to its
//! `count` accumulators and the (constant) value that many times to the
//! others. When an id-keyed `distinct` reads the final level, the sink may
//! receive a tuple with the final level's distinct projected ids and the
//! count of its matches (`JoinOutput::emit_ids`): each id key is checked
//! once, and the rest are counted as repeats (see `op/join.rs`, "Memoised
//! suffixes").
//!
//! The join drive delivers its final step's tuples straight into the sink
//! (see `op/join.rs`), so the joined tuples are never written to an output
//! arena. There is no other projection in the engine: the baselines'
//! dynamic one (`aiql_baseline::naive`) shares no tuple loop with the sink,
//! only the value semantics ([`AggAcc`], [`order_and_limit`], which sorts a
//! permutation of the rows and, under a limit, gathers only the rows it
//! keeps).

use std::collections::{HashMap, HashSet, VecDeque};

use aiql_lang::{AggFunc, Expr, SortDir};
use aiql_model::{EntityId, Value};
use aiql_storage::EventStore;

use crate::analyze::AnalyzedMultievent;
use crate::error::EngineError;
use crate::eval::{self, agg_key, Clause, SlotCtx, SlotEnv, SlotExpr, TupleView};
use crate::op::{
    EventRef, ExecEnv, JoinOutput, MulHash, OpStat, Operator, PipelineState, RefArena,
};
use crate::result::{ResultTable, Rows};

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
    ) -> Result<OpStat, EngineError> {
        // The join streamed into the sink — or never ran (a pattern came
        // back empty) and a fresh sink closes the empty table.
        let sink = st.sink.take().unwrap_or_else(|| ProjectionSink::new(env));
        let rows_in = sink.pushed();
        let table = sink.finish();
        let rows_out = table.rows.len();
        st.table = Some(table);
        Ok(OpStat {
            rows_in,
            rows_out,
            ..OpStat::default()
        })
    }

    /// The columns and the shape `finish` closes the table to.
    fn describe(&self, env: &ExecEnv<'_>) -> String {
        let a = env.a;
        let limit = a.limit.map(|l| format!(" | limit {l}")).unwrap_or_default();
        format!("{} column(s){}{limit}", a.ret.items.len(), grouping(a))
    }
}

/// The grouping a projection closes with, as `EXPLAIN` prints it after the
/// columns of `Project` or the windows of an anomaly query's loop:
/// ` | group by N` and ` | distinct`, each when present.
pub(crate) fn grouping(a: &AnalyzedMultievent) -> String {
    let by = (!a.group_by.is_empty()).then(|| format!(" | group by {}", a.group_by.len()));
    let distinct = if a.ret.distinct { " | distinct" } else { "" };
    format!("{}{distinct}", by.unwrap_or_default())
}

/// Largest magnitude below which every integer-valued `f64` sum is exact,
/// with headroom for one more such addend.
const EXACT_SUM: f64 = (1u64 << 52) as f64;

/// Aggregate accumulator.
#[derive(Debug, Clone, Default)]
pub struct AggAcc {
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
    /// An accumulator of no values.
    pub fn new() -> Self {
        AggAcc {
            all_int: true,
            exact: true,
            ..Default::default()
        }
    }

    /// Adds one value; `Null` is skipped.
    pub fn add(&mut self, v: Value) {
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

    /// Counts `n` more non-null values without their statistics: for a
    /// `count` accumulator, whose result reads nothing else.
    fn add_count(&mut self, n: usize) {
        self.count += n as u64;
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

    /// The aggregate's value over the values added.
    pub fn finalize(&self, func: aiql_lang::AggFunc) -> Value {
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
pub fn collect_aggs(a: &AnalyzedMultievent) -> Vec<(String, aiql_lang::AggFunc, Expr)> {
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

/// Column header for a return item.
pub fn column_name(item: &aiql_lang::ReturnItem) -> String {
    item.alias
        .clone()
        .unwrap_or_else(|| aiql_lang::pretty::print_expr(&item.expr))
}

/// A fully slot-compiled projection: return items, grouping keys, having
/// filter, and aggregate arguments with every name resolved to a dense
/// slot and every event attribute to its column.
#[derive(Debug, Clone, Default)]
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
    pub(crate) aggregated: bool,
}

impl CompiledProjection {
    /// Whether evaluating the projection never reads pattern `pattern`'s
    /// event or a variable in `fresh` — but, with `counted`, as the
    /// argument of `count` over one of that event's columns, which are
    /// never null, so only the number of tuples matters.
    pub(crate) fn unread(&self, pattern: usize, fresh: &[usize], counted: bool) -> bool {
        let reads = |e: &SlotExpr| e.reads(pattern, fresh);
        let mut scalars = self.items.iter().chain(&self.group_by).chain(&self.having);
        !scalars.any(reads)
            && (self.aggs.iter()).all(|(func, arg)| {
                !reads(arg) || (counted && *func == AggFunc::Count && arg.is_event_of(pattern))
            })
    }
}

/// Compiles a query's projection to slots, at analysis. Every name an
/// expression cannot read where it stands is a typed error here, before
/// any scan runs ([`eval::compile_slots`]). An anomaly projection binds its
/// aliases whether or not it aggregates, and its `having` reads history.
pub(crate) fn compile_projection(
    store: &EventStore,
    a: &AnalyzedMultievent,
    anomaly: bool,
) -> Result<CompiledProjection, EngineError> {
    let aggs_src = collect_aggs(a);
    let aggregated = !aggs_src.is_empty() || !a.group_by.is_empty();
    let mut env = SlotEnv {
        vars: (a.vars.iter().enumerate())
            .map(|(i, v)| (v.name.as_str(), (i, v.kind)))
            .collect(),
        events: (a.patterns.iter().enumerate())
            .map(|(i, p)| (p.name.as_str(), i))
            .collect(),
        aliases: HashMap::new(),
        binds_aliases: aggregated || anomaly,
        anomaly,
        aggs: (aggs_src.iter().enumerate())
            .map(|(i, (k, _, _))| (k.clone(), i))
            .collect(),
        history: Vec::new(),
    };
    let compile =
        |e: &Expr, env: &mut SlotEnv<'_>, clause| eval::compile_slots(e, store, env, clause);
    // Compile items in order; each alias becomes visible to later items,
    // the grouping keys, the having clause, and the aggregate arguments —
    // which then read it where the projection binds it.
    let mut items = Vec::with_capacity(a.ret.items.len());
    let mut alias_slot = Vec::with_capacity(a.ret.items.len());
    let mut naliases = 0usize;
    for item in &a.ret.items {
        items.push(compile(&item.expr, &mut env, Clause::Item)?);
        alias_slot.push(item.alias.as_ref().map(|alias| {
            let slot = naliases;
            naliases += 1;
            env.aliases.insert(alias.as_str(), slot);
            slot
        }));
    }
    let group_by = (a.group_by.iter())
        .map(|g| compile(g, &mut env, Clause::PerTuple))
        .collect::<Result<_, _>>()?;
    let having = (a.having.as_ref())
        .map(|h| compile(h, &mut env, Clause::Having))
        .transpose()?;
    let aggs = (aggs_src.iter())
        .map(|(_, func, arg)| Ok((*func, compile(arg, &mut env, Clause::PerTuple)?)))
        .collect::<Result<_, EngineError>>()?;
    Ok(CompiledProjection {
        items,
        alias_slot,
        unset_aliases: vec![None; naliases],
        aggregated,
        group_by,
        having,
        aggs,
        lags: env.history,
    })
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

/// The entity-id keys of a `distinct` whose every item is an entity
/// reference, with no `having` (see the module docs), hashed with
/// [`MulHash`].
#[derive(Debug)]
struct IdKeys {
    /// The variable slots the items read, in first-occurrence order.
    slots: Vec<usize>,
    seen: HashSet<Box<[u32]>, MulHash>,
    /// Reused key encoding: a repeat allocates nothing.
    key: Vec<u32>,
}

impl IdKeys {
    fn of(cp: &CompiledProjection) -> Option<Self> {
        let mut slots = Vec::new();
        for item in &cp.items {
            let SlotExpr::Entity { slot, .. } = item else {
                return None;
            };
            if !slots.contains(slot) {
                slots.push(*slot);
            }
        }
        (cp.having.is_none()).then(|| IdKeys {
            slots,
            seen: HashSet::default(),
            key: Vec::new(),
        })
    }

    /// Records the id key of the tuple binding `vars`, overridden by the
    /// `placed` (slot, id) bindings; `false` when it was already seen.
    #[inline]
    fn insert(&mut self, vars: &[u32], placed: &[(usize, EntityId)]) -> bool {
        self.key.clear();
        for &s in &self.slots {
            let placed = placed.iter().rev().find(|p| p.0 == s);
            self.key.push(placed.map_or(vars[s], |p| p.1.raw()));
        }
        !self.seen.contains(self.key.as_slice()) && self.seen.insert(self.key.as_slice().into())
    }

    fn bytes(&self) -> usize {
        let key = std::mem::size_of::<Box<[u32]>>() + self.slots.len() * std::mem::size_of::<u32>();
        self.seen.len() * key
    }
}

/// What a sink has retained of the tuples pushed so far.
#[derive(Debug)]
enum SinkState {
    /// One evaluated row per tuple that passed `having` — under `distinct`
    /// (`seen`), per distinct such row, in first-occurrence order, with the
    /// entity-id keys seen (`ids`) when every item is an entity reference.
    Rows {
        rows: Rows,
        seen: Option<KeyIndex>,
        ids: Option<IdKeys>,
    },
    /// Per group, in first-occurrence order: its key (no keys when the
    /// query has no `group by` — one implicit group), its representative
    /// (first) tuple's refs, which the group's non-aggregate items are
    /// evaluated on, and `aggs.len()` accumulators in `accs`.
    Groups {
        keys: KeyIndex,
        reps: RefArena,
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
    /// An empty sink for the query's projection.
    pub(crate) fn new(env: &'e ExecEnv<'e>) -> Self {
        let cp = &env.a.projection;
        let state = if cp.aggregated {
            SinkState::Groups {
                keys: KeyIndex::default(),
                reps: RefArena::new(env.a.patterns.len(), env.a.vars.len()),
                accs: Vec::new(),
            }
        } else {
            SinkState::Rows {
                rows: Rows::new(),
                seen: env.a.ret.distinct.then(KeyIndex::default),
                ids: env.a.ret.distinct.then(|| IdKeys::of(cp)).flatten(),
            }
        };
        ProjectionSink {
            env,
            cp,
            state,
            pushed: 0,
            vals: Vec::new(),
            tuple: RefArena::new(env.a.patterns.len(), env.a.vars.len()),
        }
    }

    /// What a sink of the query retains, the state `new` picks, as the
    /// join's `EXPLAIN` line names it: `count` / `sum, avg by (p1)` /
    /// `distinct(p1, f2)` / `rows`.
    pub(crate) fn describe(env: &ExecEnv<'_>) -> String {
        let (a, cp) = (env.a, &env.a.projection);
        if !cp.aggregated {
            let items: Vec<String> = a.ret.items.iter().map(column_name).collect();
            return match a.ret.distinct {
                true => format!("distinct({})", items.join(", ")),
                false => "rows".to_string(),
            };
        }
        let aggs: Vec<String> = (cp.aggs.iter())
            .map(|(f, _)| format!("{f:?}").to_lowercase())
            .collect();
        let keys: Vec<String> = a
            .group_by
            .iter()
            .map(aiql_lang::pretty::print_expr)
            .collect();
        match keys.is_empty() {
            true => aggs.join(", "),
            false => format!("{} by ({})", aggs.join(", "), keys.join(", "))
                .trim_start()
                .to_string(),
        }
    }

    /// Whether `n` tuples binding `vars` (overridden by `placed`) repeat
    /// an entity-id key of an id-keyed `distinct`: their row is known, so
    /// they are only counted.
    #[inline]
    fn repeat(&mut self, vars: &[u32], placed: &[(usize, EntityId)], n: usize) -> bool {
        let SinkState::Rows { ids: Some(ids), .. } = &mut self.state else {
            return false;
        };
        let repeat = !ids.insert(vars, placed);
        self.pushed += if repeat { n } else { 0 };
        repeat
    }

    /// Consumes tuple `i` of `src` extended with `pattern`'s event `r` (an
    /// unplaced one for [`JoinOutput::emit_ids`]) and its bindings: one
    /// push, assembled in the reused one-tuple buffer.
    #[inline]
    fn consume_extended(
        &mut self,
        src: &RefArena,
        i: usize,
        pattern: usize,
        r: EventRef,
        subject: (usize, EntityId),
        object: (usize, EntityId),
    ) {
        self.tuple.truncate(0);
        self.tuple.emit(src, i, pattern, r, subject, object);
        let (state, vals) = (&mut self.state, &mut self.vals);
        consume(self.env, self.cp, state, vals, self.tuple.view(0), 1, None);
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
    /// order by, limit.
    pub(crate) fn finish(self) -> ResultTable {
        let (env, a, naggs) = (self.env, self.env.a, self.cp.aggs.len());
        let mut rows = match self.state {
            SinkState::Rows { rows, .. } => rows,
            SinkState::Groups { reps, accs, .. } => {
                let mut closer = GroupCloser::new(a);
                for g in 0..reps.len() {
                    let group = &accs[g * naggs..(g + 1) * naggs];
                    closer.close(env, reps.view(g), group, 0, &mut []);
                }
                closer.rows
            }
        };
        order_and_limit(a, &mut rows);
        let mut table = ResultTable::new(a.ret.items.iter().map(column_name).collect());
        table.rows = rows;
        table
    }
}

/// Closes finished groups into rows, in the order they are handed over:
/// the one sequence [`ProjectionSink::finish`] and the anomaly window loop
/// share (see the module docs), on scratch reused from group to group.
pub(crate) struct GroupCloser {
    aggs: Vec<Value>,
    aliases: Vec<Option<Value>>,
    /// The history values `having` reads ([`CompiledProjection::lags`]).
    past: Vec<Value>,
    row: Vec<Value>,
    seen: Option<KeyIndex>,
    /// The kept groups' rows.
    pub(crate) rows: Rows,
}

impl GroupCloser {
    pub(crate) fn new(a: &AnalyzedMultievent) -> Self {
        let cp = &a.projection;
        GroupCloser {
            aggs: vec![Value::Null; cp.aggs.len()],
            aliases: cp.unset_aliases.clone(),
            past: vec![Value::Null; cp.lags.len()],
            row: Vec::new(),
            seen: a.ret.distinct.then(KeyIndex::default),
            rows: Rows::new(),
        }
    }

    /// Closes the group of representative `rep` and accumulators `accs` in
    /// window `k`. `history` holds, per history slot, the group's alias
    /// values of its windows at most `lag` back, oldest first (empty outside
    /// anomaly queries); this window's values join it. The row is built
    /// after every alias is bound, which gives the row that binding them
    /// item by item would: an item reads only earlier items' aliases.
    pub(crate) fn close(
        &mut self,
        env: &ExecEnv<'_>,
        rep: TupleView<'_>,
        accs: &[AggAcc],
        k: i64,
        history: &mut [VecDeque<(i64, Value)>],
    ) {
        let GroupCloser {
            aggs,
            aliases,
            past,
            row,
            seen,
            rows,
        } = self;
        let cp = &env.a.projection;
        for ((func, _), (acc, v)) in cp.aggs.iter().zip(accs.iter().zip(&mut *aggs)) {
            *v = acc.finalize(*func);
        }
        aliases.fill(None);
        for (item, alias) in cp.items.iter().zip(&cp.alias_slot) {
            if let Some(slot) = alias {
                aliases[*slot] = Some(item.eval(&slots(env, rep, aliases, aggs)));
            }
        }
        for ((&(slot, lag), v), h) in cp.lags.iter().zip(&mut *past).zip(history) {
            let then = k - i64::from(lag);
            while h.front().is_some_and(|&(w, _)| w < then) {
                h.pop_front();
            }
            *v = match h.front() {
                Some(&(w, value)) if w == then => value,
                _ => Value::Float(0.0),
            };
            h.push_back((k, aliases[slot].unwrap_or(Value::Null)));
        }
        let cx = SlotCtx {
            history: past,
            ..slots(env, rep, aliases, aggs)
        };
        if cp.having.as_ref().is_none_or(|h| h.passes(&cx)) {
            row.clear();
            row.extend(cp.items.iter().map(|e| e.eval(&cx)));
            if seen.as_mut().is_none_or(|s| s.find_or_insert(row).1) {
                rows.push(row);
            }
        }
    }
}

/// One push: evaluates what the sink's state needs of `tuple` and retains
/// it (see [`SinkState`]) — as `n` pushes of tuples that differ only in
/// pattern `counted`'s match, which the projection reads at most through
/// `count` ([`CompiledProjection::unread`]; `n` is 1 and `counted` `None`
/// for one tuple). Per-tuple evaluation sees no alias and no aggregate
/// value (analysis compiled no such read here); `having` without
/// aggregation degenerates to a row filter.
#[inline]
fn consume(
    env: &ExecEnv<'_>,
    cp: &CompiledProjection,
    state: &mut SinkState,
    vals: &mut Vec<Value>,
    tuple: TupleView<'_>,
    n: usize,
    counted: Option<usize>,
) {
    let scx = slots(env, tuple, &cp.unset_aliases, &[]);
    let eval_into = |exprs: &[SlotExpr], vals: &mut Vec<Value>| {
        vals.clear();
        vals.extend(exprs.iter().map(|e| e.eval(&scx)));
    };
    match state {
        SinkState::Rows { rows, seen, .. } => {
            eval_into(&cp.items, vals);
            let passes = cp.having.as_ref().is_none_or(|h| h.passes(&scx));
            if passes && seen.as_mut().is_none_or(|s| s.find_or_insert(vals).1) {
                // A distinct row is kept once, a plain one per tuple.
                let copies = if seen.is_some() { 1 } else { n };
                (0..copies).for_each(|_| rows.push(&*vals));
            }
        }
        SinkState::Groups { keys, reps, accs } => {
            eval_into(&cp.group_by, vals);
            let g = match vals.is_empty() {
                true => 0,
                false => keys.find_or_insert(vals).0,
            };
            if g == reps.len() {
                reps.push(tuple);
                accs.extend(cp.aggs.iter().map(|_| AggAcc::new()));
            }
            let group = &mut accs[g * cp.aggs.len()..(g + 1) * cp.aggs.len()];
            for ((_, arg), acc) in cp.aggs.iter().zip(group) {
                match counted {
                    Some(p) if arg.is_event_of(p) => acc.add_count(n),
                    _ => {
                        let v = arg.eval(&scx);
                        (0..n).for_each(|_| acc.add(v));
                    }
                }
            }
        }
    }
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
    ) {
        if self.repeat(src.vars_of(i), &[subject, object], 1) {
            return;
        }
        self.consume_extended(src, i, pattern, r, subject, object);
        self.pushed += 1;
    }

    fn unread(&self, pattern: usize, fresh: &[usize], counted: bool) -> bool {
        self.cp.unread(pattern, fresh, counted)
    }

    fn emit_count(&mut self, src: &RefArena, i: usize, pattern: usize, n: usize) {
        if self.repeat(src.vars_of(i), &[], n) {
            return;
        }
        let (state, vals, tuple) = (&mut self.state, &mut self.vals, src.view(i));
        consume(self.env, self.cp, state, vals, tuple, n, Some(pattern));
        self.pushed += n;
    }

    fn id_keys(&self) -> Option<&[usize]> {
        match &self.state {
            SinkState::Rows { ids: Some(ids), .. } => Some(&ids.slots),
            _ => None,
        }
    }

    /// The row of each new id key is evaluated on tuple `i` with the key's
    /// fresh ids bound (the items read nothing but entity ids, so the
    /// unplaced event is never read); every other tuple is a repeat.
    fn emit_ids(
        &mut self,
        src: &RefArena,
        i: usize,
        pattern: usize,
        fresh: [usize; 2],
        ids: &[[u32; 2]],
        n: usize,
    ) {
        for &[a, b] in ids {
            let placed = [(fresh[0], EntityId(a)), (fresh[1], EntityId(b))];
            let SinkState::Rows {
                ids: Some(keys), ..
            } = &mut self.state
            else {
                unreachable!("only an id-keyed distinct is handed its ids")
            };
            if keys.insert(src.vars_of(i), &placed) {
                self.consume_extended(src, i, pattern, crate::op::NO_REF, placed[0], placed[1]);
            }
        }
        self.pushed += n;
    }

    fn delivered(&self) -> usize {
        self.pushed
    }

    /// Rows' cells (with their keys under `distinct`, and the entity-id
    /// keys seen) or groups' keys, representatives' refs and accumulators —
    /// never the pushed tuples themselves, nor the spare capacity of a row
    /// chunk.
    fn retained_bytes(&self) -> u64 {
        let cp = self.cp;
        let values = |n: usize| n * std::mem::size_of::<Value>();
        let key = |n: usize| 2 * n * std::mem::size_of::<u64>();
        let per = match &self.state {
            SinkState::Rows { seen, .. } => {
                let n = cp.items.len();
                values(n) + seen.as_ref().map_or(0, |_| key(n))
            }
            SinkState::Groups { reps, .. } => {
                key(cp.group_by.len())
                    + reps.tuple_bytes() as usize
                    + cp.aggs.len() * std::mem::size_of::<AggAcc>()
            }
        };
        let ids = match &self.state {
            SinkState::Rows { ids: Some(ids), .. } => ids.bytes(),
            _ => 0,
        };
        (self.kept() * per + ids) as u64
    }

    fn fork(&self) -> Self {
        ProjectionSink::new(self.env)
    }

    fn merge(&mut self, part: Self) -> bool {
        let naggs = self.cp.aggs.len();
        match (&mut self.state, part.state) {
            (
                SinkState::Rows { rows, seen, ids },
                SinkState::Rows {
                    rows: more,
                    ids: more_ids,
                    ..
                },
            ) => {
                // Plain rows move chunk by chunk; distinct ones are copied
                // past the first-occurrence filter.
                match seen {
                    None => rows.append(more),
                    Some(seen) => (more.iter())
                        .filter(|row| seen.find_or_insert(row).1)
                        .for_each(|row| rows.push(row)),
                }
                // The id keys the part saw are seen now, as if its tuples
                // had been pushed here: the merged sink retains what the
                // serial one does, byte for byte.
                if let (Some(ids), Some(more_ids)) = (ids, more_ids) {
                    ids.seen.extend(more_ids.seen);
                }
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
                for h in 0..more_reps.len() {
                    let next = reps.len();
                    let g = their_keys
                        .next()
                        .map_or(0, |(key, _)| *keys.index.entry(key).or_insert(next));
                    let theirs = &more_accs[h * naggs..(h + 1) * naggs];
                    if g == next {
                        reps.push(more_reps.view(h));
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
}

/// The projection tail shared with the baselines' dynamic projection:
/// order by the returned columns analysis resolved, then limit. Ordering
/// sorts a permutation of the rows, ties kept in emission order; under a
/// limit `k` only the first `k` in that order are selected and sorted, and
/// only they are gathered into the new table. A limit without an order cuts
/// the rows in place.
pub fn order_and_limit(a: &AnalyzedMultievent, rows: &mut Rows) {
    let k = a
        .limit
        .map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX));
    if a.order_by.is_empty() {
        rows.truncate(k);
        return;
    }
    let by_columns = |x: &[Value], y: &[Value]| {
        for &(idx, dir) in &a.order_by {
            let ord = eval::cmp_values(&x[idx], &y[idx]);
            let ord = match dir {
                SortDir::Asc => ord,
                SortDir::Desc => ord.reverse(),
            };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };
    // Emission position breaks ties, so the order is total and an unstable
    // sort or selection is the stable one.
    let by =
        |x: &(usize, &[Value]), y: &(usize, &[Value])| by_columns(x.1, y.1).then(x.0.cmp(&y.0));
    let mut order: Vec<(usize, &[Value])> = rows.iter().enumerate().collect();
    if k < order.len() {
        if k > 0 {
            order.select_nth_unstable_by(k - 1, by);
        }
        order.truncate(k);
    }
    order.sort_unstable_by(by);
    let sorted = order.into_iter().map(|(_, row)| row).collect();
    *rows = sorted;
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

    /// The index equates two rows exactly when `row_key` — the baselines'
    /// dynamic `distinct` and `group by` key — renders them alike, and
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

    /// One file name written on two hosts is two entities and one
    /// `distinct f` row: the second entity's id key is retained (and
    /// charged) although no new row appears.
    #[test]
    fn id_keys_count_in_retained_bytes_without_a_new_row() {
        let mut store = EventStore::default();
        store.ingest_all(&[0, 1].map(|agent| {
            aiql_storage::RawEvent::instant(
                aiql_model::AgentId(agent),
                aiql_model::Operation::Write,
                aiql_storage::EntitySpec::process(1, "w.exe", "u"),
                aiql_storage::EntitySpec::file("/data/f", "u"),
                Timestamp::from_secs(1),
                1,
            )
        }));
        let Ok(aiql_lang::Query::Multievent(m)) =
            aiql_lang::parse_query("proc p write file f as e return distinct f")
        else {
            panic!("a multievent query")
        };
        let a = crate::analyze_multievent(&m, &store).unwrap();
        let config = crate::EngineConfig::default();
        let exec = crate::exec::MultieventExec::new(&store, &a, &config);
        let (env, tuples, _, _) = exec.join().unwrap();
        let mut sink = ProjectionSink::new(&env);
        let p = &a.patterns[0];
        let mut bytes = Vec::new();
        // The second tuple twice: its id key is only new the first time.
        for i in [0, 1, 1] {
            let (events, vars) = (tuples.events_of(i), tuples.vars_of(i));
            let bind = |v: usize| (v, EntityId(vars[v]));
            sink.emit(&tuples, i, 0, events[0], bind(p.subject), bind(p.object));
            bytes.push(sink.retained_bytes());
        }
        assert_eq!((tuples.len(), sink.kept(), sink.pushed()), (2, 1, 3));
        assert!(bytes[1] > bytes[0], "a new id key is retained: {bytes:?}");
        assert_eq!(bytes[2], bytes[1], "a repeated one retains nothing more");
    }

    /// The analysis of `src` over `store`.
    fn analyzed(store: &EventStore, src: &str) -> AnalyzedMultievent {
        let Ok(aiql_lang::Query::Multievent(m)) = aiql_lang::parse_query(src) else {
            panic!("a multievent query")
        };
        crate::analyze_multievent(&m, store).unwrap()
    }

    /// On random tables with many ties, `order by` (a stable sort) then
    /// `limit k` keeps what a full stable sort truncated to `k` keeps, for
    /// every `k` from none to past the end, plain limits cut the emission
    /// order, and the rows span several chunks.
    #[test]
    fn order_and_limit_is_a_stable_sort_then_a_truncate() {
        let store = EventStore::default();
        let mut a = analyzed(&store, "proc p write file f as e return p, f, e.amount");
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for case in 0..60 {
            let n = [0, 1, 5, 40, 1500, 3000][case % 6];
            let rows: Rows = (0..n)
                .map(|i| {
                    let tie = Value::Int(next(4) as i64);
                    let other = match next(3) {
                        0 => Value::Null,
                        1 => Value::Float(next(3) as f64),
                        _ => Value::Int(next(5) as i64),
                    };
                    [tie, other, Value::Int(i as i64)]
                })
                .collect();
            a.order_by = match case / 6 % 3 {
                0 => vec![(0, SortDir::Asc)],
                1 => vec![(1, SortDir::Desc), (0, SortDir::Asc)],
                _ => Vec::new(),
            };
            let mut sorted: Vec<&[Value]> = rows.iter().collect();
            sorted.sort_by(|x, y| {
                let mut ord = std::cmp::Ordering::Equal;
                for &(idx, dir) in &a.order_by {
                    let o = eval::cmp_values(&x[idx], &y[idx]);
                    ord = ord.then(if dir == SortDir::Desc { o.reverse() } else { o });
                }
                ord
            });
            for k in [
                None,
                Some(0),
                Some(1),
                Some(3),
                Some(n / 2),
                Some(n),
                Some(n + 1),
            ] {
                a.limit = k.map(|k| k as u64);
                let mut got = rows.clone();
                order_and_limit(&a, &mut got);
                let want: Rows = sorted.iter().take(k.unwrap_or(n)).collect();
                assert_eq!(got, want, "case {case}: {n} rows, limit {k:?}");
            }
        }
    }

    /// The per-row charge of a plain sink is its cells, of a `distinct` one
    /// its cells and its key, and a group's charge is its key, its
    /// representative's refs and its accumulators: never a per-row header,
    /// a materialized tuple, nor chunk capacity.
    #[test]
    fn a_sinks_charge_per_row_is_what_the_row_holds() {
        let mut store = EventStore::default();
        store.ingest_all(
            &(0..5u32)
                .map(|i| {
                    aiql_storage::RawEvent::instant(
                        aiql_model::AgentId(0),
                        aiql_model::Operation::Write,
                        aiql_storage::EntitySpec::process(1, "w.exe", "u"),
                        aiql_storage::EntitySpec::file(&format!("/data/f{}", i % 3), "u"),
                        Timestamp::from_secs(i64::from(i) + 1),
                        u64::from(i % 2),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let cell = std::mem::size_of::<Value>() as u64;
        let acc = std::mem::size_of::<AggAcc>() as u64;
        for (src, per_row) in [
            ("proc p write file f as e return p, f, e.amount", 3 * cell),
            // `e.amount` is no entity reference: no id keys, only value keys.
            (
                "proc p write file f as e return distinct f, e.amount",
                2 * cell + 2 * 16,
            ),
            // One key column, one event ref and two entity ids, one
            // accumulator.
            (
                "proc p write file f as e return f, e.amount as first, count(e.amount) as n \
                 group by f",
                2 * 8 + (8 + 2 * 4) + acc,
            ),
        ] {
            let a = analyzed(&store, src);
            let config = crate::EngineConfig::default();
            let exec = crate::exec::MultieventExec::new(&store, &a, &config);
            let (env, tuples, _, _) = exec.join().unwrap();
            let mut sink = ProjectionSink::new(&env);
            let p = &a.patterns[0];
            let key = 2 * 8 * a.group_by.len() as u64;
            if a.projection.aggregated {
                assert_eq!(per_row, key + tuples.tuple_bytes() + acc, "{src}");
            }
            for i in 0..tuples.len() {
                let (events, vars) = (tuples.events_of(i), tuples.vars_of(i));
                let bind = |v: usize| (v, EntityId(vars[v]));
                sink.emit(&tuples, i, 0, events[0], bind(p.subject), bind(p.object));
                assert_eq!(sink.retained_bytes(), sink.kept() as u64 * per_row, "{src}");
            }
            assert_eq!(sink.pushed(), 5);
            let kept = sink.kept();
            assert!(kept > 1, "{src}");
            assert_eq!(sink.finish().rows.len(), kept);
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
