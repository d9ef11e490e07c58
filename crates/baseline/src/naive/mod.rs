//! The dynamic evaluator, the reference semantics the engine is held to:
//! expressions evaluated against a *binding* (one entity per entity
//! variable, one event per event variable, plus alias values and window
//! history in aggregated contexts), every name looked up per evaluation in
//! a row context of hash maps. A bare `p1` in a return clause evaluates to
//! its kind's default attribute (`p1.exe_name` for processes).
//!
//! Both baselines project here ([`project`],
//! [`run_anomaly_over_tuples_naive`]); [`mod@reference`] is the brute-force
//! oracle. The engine evaluates only its compiled projection and shares
//! just the analyzer and the value semantics ([`apply_binop`], [`AggAcc`],
//! [`order_and_limit`]).

pub mod reference;

use std::collections::HashMap;

use aiql_engine::analyze::{AnalyzedAnomaly, AnalyzedMultievent};
use aiql_engine::anomaly::window_range;
use aiql_engine::eval::{agg_key, apply_binop, negate};
use aiql_engine::exec::Tuple;
use aiql_engine::op::project::{collect_aggs, column_name, order_and_limit, AggAcc};
use aiql_engine::{EngineError, ResultTable, Rows};
use aiql_lang::{Expr, Literal};
use aiql_model::{EntityId, Event, Timestamp, Value};
use aiql_storage::EventStore;

pub use reference::{match_reference, run_reference};

/// The evaluation context of one result row.
#[derive(Default)]
pub struct RowCtx<'a> {
    /// Entity variable bindings.
    pub var_entity: HashMap<&'a str, EntityId>,
    /// Event variable bindings.
    pub events: HashMap<&'a str, Event>,
    /// Aggregate alias values (current window / current group).
    pub aliases: HashMap<String, Value>,
    /// Precomputed aggregate values keyed by the aggregate node's canonical
    /// key (see [`agg_key`]).
    pub agg_values: HashMap<String, Value>,
    /// Historical alias values: `(alias, lag) → value`. Missing history is
    /// treated as 0 (stream semantics: an empty previous window contributed
    /// nothing).
    pub history: HashMap<(String, u32), Value>,
}

/// Evaluates an expression in a row context.
pub fn eval(expr: &Expr, store: &EventStore, ctx: &RowCtx<'_>) -> Result<Value, EngineError> {
    match expr {
        Expr::Literal(lit) => Ok(match lit {
            Literal::Int(i) => Value::Int(*i),
            Literal::Float(x) => Value::Float(*x),
            Literal::Str(s) => match store.interner().get(s) {
                Some(sym) => Value::Str(sym),
                None => Value::Null,
            },
        }),
        Expr::Ref { var, attr } => {
            if let Some(event) = ctx.events.get(var.as_str()) {
                let attr = attr.as_deref().unwrap_or("id");
                return event.get(attr).map_err(EngineError::Model);
            }
            if let Some(&id) = ctx.var_entity.get(var.as_str()) {
                let entity = store.entities().get(id);
                return match attr {
                    Some(a) => entity.get(a).map_err(EngineError::Model),
                    None => Ok(entity.attrs.default_value()),
                };
            }
            if attr.is_none() {
                if let Some(v) = ctx.aliases.get(var.as_str()) {
                    return Ok(*v);
                }
            }
            Err(EngineError::Analysis(format!("unbound variable `{var}`")))
        }
        Expr::Agg { .. } => ctx.agg_values.get(&agg_key(expr)).copied().ok_or_else(|| {
            EngineError::Analysis("aggregate evaluated outside aggregation context".into())
        }),
        Expr::History { name, lag } => {
            if *lag == 0 {
                return Ok(ctx
                    .aliases
                    .get(name.as_str())
                    .copied()
                    .unwrap_or(Value::Null));
            }
            Ok(ctx
                .history
                .get(&(name.clone(), *lag))
                .copied()
                .unwrap_or(Value::Float(0.0)))
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, store, ctx)?;
            let r = eval(rhs, store, ctx)?;
            Ok(apply_binop(*op, l, r))
        }
        Expr::Neg(inner) => Ok(negate(eval(inner, store, ctx)?)),
    }
}

/// Populates the (reused) row context from a materialized tuple.
fn fill_ctx<'a>(a: &'a AnalyzedMultievent, t: &Tuple, ctx: &mut RowCtx<'a>) {
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

    // `distinct` keeps a row's first occurrence, by its canonical key.
    let mut seen = std::collections::HashSet::new();
    let mut keep = |row: &[Value]| !a.ret.distinct || seen.insert(ResultTable::row_key(row));
    let mut rows = Rows::new();
    if !aggregated {
        for t in tuples {
            fill_ctx(a, t, &mut ctx);
            let mut row = Vec::with_capacity(a.ret.items.len());
            for item in &a.ret.items {
                row.push(eval(&item.expr, store, &ctx)?);
            }
            if let Some(h) = &a.having {
                // having without aggregation degenerates to a row filter.
                if !eval(h, store, &ctx)?.truthy() {
                    continue;
                }
            }
            if keep(&row) {
                rows.push(row);
            }
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
                key_vals.push(eval(g, store, &ctx)?);
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
                acc.add(eval(arg, store, &ctx)?);
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
                let v = eval(&item.expr, store, &ctx)?;
                if let Some(alias) = &item.alias {
                    ctx.aliases.insert(alias.clone(), v);
                }
                row.push(v);
            }
            if let Some(h) = &a.having {
                if !eval(h, store, &ctx)?.truthy() {
                    continue;
                }
            }
            if keep(&row) {
                rows.push(row);
            }
        }
    }

    order_and_limit(a, &mut rows);
    table.rows = rows;
    Ok(table)
}

/// Runs the sliding-window aggregation over already-fetched tuples on the
/// dynamic [`RowCtx`] path, assigning events to windows by a per-window
/// linear filter — the cost model of a general-purpose engine
/// nested-looping `generate_series` against the event set. The baselines
/// fetch candidates their own way and aggregate here; it is their
/// reference, an implementation the engine's window loop shares no tuple
/// loop with.
pub fn run_anomaly_over_tuples_naive(
    store: &EventStore,
    a: &AnalyzedAnomaly,
    mut tuples: Vec<Tuple>,
) -> Result<ResultTable, EngineError> {
    let mut table = ResultTable::new(a.base.ret.items.iter().map(column_name).collect());
    let start_of = |t: &Tuple| t.events[0].map_or(Timestamp(0), |e| e.start_time).micros();
    tuples.sort_by_key(start_of);
    let start_times: Vec<i64> = tuples.iter().map(start_of).collect();
    let (Some(&first), Some(&last)) = (start_times.first(), start_times.last()) else {
        return Ok(table);
    };
    let (range_start, range_end) = window_range(a, first, last);
    let (length, step) = (a.window_spec.length.micros(), a.window_spec.step.micros());

    // Per-tuple group keys and aggregate inputs are window-independent;
    // compute them once instead of per overlapping window.
    let aggs = collect_aggs(&a.base);
    let mut ctx = RowCtx::default();
    let mut tuple_keys: Vec<String> = Vec::with_capacity(tuples.len());
    let mut tuple_inputs: Vec<Vec<Value>> = Vec::with_capacity(tuples.len());
    for t in &tuples {
        fill_ctx(&a.base, t, &mut ctx);
        let keys = a.base.group_by.iter().map(|g| eval(g, store, &ctx));
        tuple_keys.push(ResultTable::row_key(&keys.collect::<Result<Vec<_>, _>>()?));
        let inputs = aggs.iter().map(|(_, _, arg)| eval(arg, store, &ctx));
        tuple_inputs.push(inputs.collect::<Result<_, _>>()?);
    }

    // Every aggregate node becomes a synthetic alias, so a group's
    // evaluation looks it up by name instead of re-deriving its key.
    let agg_aliases: Vec<String> = (0..aggs.len()).map(|i| format!("__agg{i}")).collect();
    let items: Vec<(Option<&String>, Expr)> = (a.base.ret.items.iter())
        .map(|item| (item.alias.as_ref(), replace_aggs(&item.expr, &aggs)))
        .collect();
    let having = a.base.having.as_ref().map(|h| replace_aggs(h, &aggs));
    // History lags referenced by the having clause.
    let mut lags: Vec<(String, u32)> = Vec::new();
    if let Some(h) = &having {
        h.visit(&mut |e| {
            if let Expr::History { name, lag } = e {
                if *lag > 0 && !lags.contains(&(name.clone(), *lag)) {
                    lags.push((name.clone(), *lag));
                }
            }
        });
    }
    // Aliased values per window per group, for history access:
    // window index → group key → alias → value.
    let mut window_history: Vec<HashMap<String, HashMap<String, Value>>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut rows = Rows::new();
    let mut w_start = range_start;
    while w_start < range_end {
        let w_end = w_start.saturating_add(length);
        let k = window_history.len();
        let mut this_window: HashMap<String, HashMap<String, Value>> = HashMap::new();
        // Group the tuples with start time in [w_start, w_end), touching
        // every tuple per window.
        let mut order: Vec<&str> = Vec::new();
        let mut groups: HashMap<&str, (usize, Vec<AggAcc>)> = HashMap::new();
        let in_window = start_times.iter().enumerate();
        for (ti, _) in in_window.filter(|(_, t)| (w_start..w_end).contains(*t)) {
            let key = tuple_keys[ti].as_str();
            let (_, accs) = groups.entry(key).or_insert_with(|| {
                order.push(key);
                (ti, aggs.iter().map(|_| AggAcc::new()).collect())
            });
            (accs.iter_mut().zip(&tuple_inputs[ti])).for_each(|(acc, v)| acc.add(*v));
        }
        for key in order {
            let (rep, accs) = &groups[key];
            fill_ctx(&a.base, &tuples[*rep], &mut ctx);
            for ((name, (_, func, _)), acc) in agg_aliases.iter().zip(&aggs).zip(accs) {
                ctx.aliases.insert(name.clone(), acc.finalize(*func));
            }
            // Alias env from return items (needed by having and by future
            // windows' history lookups).
            for (alias, expr) in &items {
                if let Some(alias) = alias {
                    let v = eval(expr, store, &ctx)?;
                    ctx.aliases.insert(alias.to_string(), v);
                }
            }
            // Wire up history: alias values from windows k-1, k-2, …
            ctx.history.clear();
            for (name, lag) in &lags {
                let v = window_history
                    .get(k.wrapping_sub(*lag as usize))
                    .and_then(|w| w.get(key))
                    .and_then(|m| m.get(name))
                    .copied()
                    .unwrap_or(Value::Float(0.0));
                ctx.history.insert((name.clone(), *lag), v);
            }
            let keep = match &having {
                Some(h) => eval(h, store, &ctx)?.truthy(),
                None => true,
            };
            if keep {
                let row = items.iter().map(|(_, expr)| eval(expr, store, &ctx));
                let row = row.collect::<Result<Vec<_>, EngineError>>()?;
                if !a.base.ret.distinct || seen.insert(ResultTable::row_key(&row)) {
                    rows.push(row);
                }
            }
            this_window.insert(key.to_string(), std::mem::take(&mut ctx.aliases));
        }
        window_history.push(this_window);
        w_start = w_start.saturating_add(step);
    }

    table.rows = rows;
    Ok(table)
}

/// Structurally replaces every aggregate node with a lag-0 history access
/// to its synthetic alias `__agg{i}` (aggregate identity matched by
/// canonical key).
fn replace_aggs(e: &Expr, aggs: &[(String, aiql_lang::AggFunc, Expr)]) -> Expr {
    match e {
        Expr::Agg { .. } => {
            let key = agg_key(e);
            let i = (aggs.iter().position(|(k, _, _)| *k == key))
                .expect("aggregate collected during analysis");
            Expr::History {
                name: format!("__agg{i}"),
                lag: 0,
            }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(replace_aggs(lhs, aggs)),
            rhs: Box::new(replace_aggs(rhs, aggs)),
        },
        Expr::Neg(inner) => Expr::Neg(Box::new(replace_aggs(inner, aggs))),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_lang::parse_query;
    use aiql_model::{AgentId, Operation};
    use aiql_storage::{EntitySpec, RawEvent};

    fn store_and_event() -> (EventStore, Event) {
        let mut s = EventStore::default();
        s.ingest_all(&[RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(10, "sbblv.exe", "system"),
            EntitySpec::file("/tmp/x", "system"),
            Timestamp::from_secs(5),
            4096,
        )]);
        let e = s.scan_collect(&aiql_storage::EventFilter::all())[0];
        (s, e)
    }

    fn having_expr(src: &str) -> Expr {
        let q = parse_query(&format!("proc p read file f as e return p having {src}")).unwrap();
        let aiql_lang::Query::Multievent(m) = q else {
            panic!()
        };
        m.having.unwrap()
    }

    #[test]
    fn arithmetic_precedence_and_types() {
        let (s, _) = store_and_event();
        let ctx = RowCtx::default();
        let e = having_expr("1 + 2 * 3");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Int(7));
        let e = having_expr("7 / 2");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Float(3.5));
        let e = having_expr("2 * 3.5");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Float(7.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        let (s, _) = store_and_event();
        let e = having_expr("1 / 0");
        assert_eq!(eval(&e, &s, &RowCtx::default()).unwrap(), Value::Null);
    }

    #[test]
    fn event_attribute_access() {
        let (s, event) = store_and_event();
        let mut ctx = RowCtx::default();
        ctx.events.insert("e", event);
        let e = having_expr("e.amount > 1000");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn entity_default_attribute_shortcut() {
        let (s, event) = store_and_event();
        let mut ctx = RowCtx::default();
        ctx.var_entity.insert("p", event.subject);
        let e = having_expr(r#"p = "sbblv.exe""#);
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(true));
        let e2 = having_expr(r#"p.user = "system""#);
        assert_eq!(eval(&e2, &s, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn alias_and_history_lookup() {
        let (s, _) = store_and_event();
        let mut ctx = RowCtx::default();
        ctx.aliases.insert("amt".into(), Value::Float(100.0));
        ctx.history.insert(("amt".into(), 1), Value::Float(40.0));
        // amt > 2 * (amt + amt[1] + amt[2]) / 3 with amt[2] missing (=0).
        let e = having_expr("amt > 2 * (amt[0] + amt[1] + amt[2]) / 3");
        // 100 > 2*(100+40+0)/3 = 93.3 → true
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(true));
        ctx.history.insert(("amt".into(), 2), Value::Float(80.0));
        // 100 > 2*(100+40+80)/3 = 146.7 → false
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(false));
    }

    #[test]
    fn logic_operators() {
        let (s, _) = store_and_event();
        let ctx = RowCtx::default();
        let e = having_expr("1 < 2 and 3 < 2 or 1 = 1");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unbound_variable_errors() {
        let (s, _) = store_and_event();
        let e = having_expr("zz > 1");
        assert!(eval(&e, &s, &RowCtx::default()).is_err());
    }
}
