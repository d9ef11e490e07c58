//! Sliding-window anomaly query execution.
//!
//! Per §2.3: "for an anomaly query, the engine partitions the events into
//! sliding windows by the timestamp, computes the aggregate results, and
//! enforces the filters." Windows may overlap (`length > step`), events
//! contribute to every window containing them, and per-group aggregate
//! history is retained so `having` clauses can reference `alias[k]` — the
//! aggregate value `k` windows earlier, the language's hook for
//! frequency-based behavioral models (e.g. moving averages).
//!
//! The engine walks the windows over the join's row references with the
//! slot-compiled projection (README, "Anomaly queries");
//! [`run_anomaly_over_tuples_naive`] is the baselines' dynamic loop.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use aiql_lang::Expr;
use aiql_model::{TimeWindow, Timestamp, Value};
use aiql_storage::EventStore;

use crate::analyze::AnalyzedAnomaly;
use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::eval::{self, RowCtx, SlotCtx, TupleView};
use crate::exec::{flag_trip, MultieventExec, Tuple};
use crate::governor::Governor;
use crate::op::project::{
    collect_aggs, column_name, compile_projection, fill_ctx, slots, AggAcc, CompiledProjection,
    KeyIndex,
};
use crate::op::{ExecEnv, RefArena};
use crate::result::ResultTable;

/// Executes an anomaly query end to end: the candidate fetch runs on the
/// optional persistent scan pool, and both the fetch and the window loop
/// answer to `governor`. In error mode a trip is its typed error; in
/// partial mode the table is the rows of the windows finished before the
/// trip, flagged `truncated` with the governor's warning.
pub fn run_anomaly_pooled(
    store: &EventStore,
    a: &AnalyzedAnomaly,
    config: &EngineConfig,
    pool: Option<Arc<crate::pool::ScanPool>>,
    governor: Option<Arc<Governor>>,
) -> Result<ResultTable, EngineError> {
    let exec = MultieventExec::new(store, &a.base, config)
        .with_pool(pool)
        .with_governor(governor.clone());
    let (env, tuples, truncated, _) = exec.join()?;
    let mut table = match compile_projection(store, &a.base) {
        Some(cp) => run_windows(&env, a, &cp, &tuples, governor.as_deref())?,
        // An expression that resists compilation keeps the dynamic loop,
        // which raises its error exactly as `Project`'s fallback does.
        None => run_anomaly_over_tuples_naive(store, a, tuples.materialize(&env.parts))?,
    };
    table.truncated |= truncated;
    flag_trip(&mut table, governor.as_deref());
    Ok(table)
}

/// The window range: the query's `at` window when bounded, else the
/// data's span — from the first start time to just past the last.
fn window_range(a: &AnalyzedAnomaly, first: i64, last: i64) -> (i64, i64) {
    match a.base.globals.window {
        TimeWindow::ALL => (first, last + 1),
        w => (w.start.micros(), w.end.micros()),
    }
}

/// The engine's window loop over the join's row references (see the
/// module docs).
fn run_windows(
    env: &ExecEnv<'_>,
    a: &AnalyzedAnomaly,
    cp: &CompiledProjection,
    tuples: &RefArena,
    governor: Option<&Governor>,
) -> Result<ResultTable, EngineError> {
    let mut table = ResultTable::new(a.base.ret.items.iter().map(column_name).collect());
    let view = |i: usize| TupleView::Refs {
        events: tuples.events_of(i),
        vars: tuples.vars_of(i),
    };
    // Tuples by start time (the one pattern's, read from its column); the
    // stable sort keeps the join's order among ties.
    let start = |i: usize| env.parts.start(tuples.events_of(i)[0]).micros();
    let mut order: Vec<(i64, usize)> = (0..tuples.len()).map(|i| (start(i), i)).collect();
    order.sort_by_key(|&(t, _)| t);
    let (Some(&(first, _)), Some(&(last, _))) = (order.first(), order.last()) else {
        return Ok(table);
    };

    // Per tuple, once: its group's first-occurrence number and its
    // aggregate inputs (`naggs` per tuple, in start-time order).
    let naggs = cp.aggs.len();
    let (mut keys, mut ngroups, mut vals) = (KeyIndex::default(), 0, Vec::new());
    let mut group = Vec::with_capacity(order.len());
    let mut inputs = Vec::with_capacity(order.len() * naggs);
    for &(_, i) in &order {
        let cx = slots(env, view(i), &cp.unset_aliases, &[]);
        vals.clear();
        for g in &cp.group_by {
            vals.push(g.eval(&cx)?);
        }
        let (g, new) = keys.find_or_insert(&vals);
        ngroups += usize::from(new);
        group.push(g);
        for (_, arg) in &cp.aggs {
            inputs.push(arg.eval(&cx)?);
        }
    }

    // Per group: accumulators and the window they were last reset for, and
    // per history slot `(alias, lag)` the alias values of the group's
    // windows at most `lag` back, oldest first — never more entries than
    // `lag + 1`, nor than windows the group appeared in.
    let mut accs = vec![AggAcc::new(); ngroups * naggs];
    let mut stamp = vec![-1i64; ngroups];
    let nlags = cp.lags.len();
    let mut history = vec![VecDeque::<(i64, Value)>::new(); ngroups * nlags];
    // This window's groups in first-occurrence order, with the position of
    // their first tuple (the representative non-aggregate items read).
    let mut present: Vec<(usize, usize)> = Vec::new();
    let (mut aggs, mut aliases) = (vec![Value::Null; naggs], cp.unset_aliases.clone());
    let mut past = vec![Value::Null; nlags];
    let mut rows: Vec<Vec<Value>> = Vec::new();

    let (range_start, range_end) = window_range(a, first, last);
    let (length, step) = (a.window_spec.length.micros(), a.window_spec.step.micros());
    let (mut k, mut w_start) = (0i64, range_start);
    while w_start < range_end {
        if let Some(g) = governor {
            if let Err(t) = g.check() {
                g.on_trip(t)?;
                break;
            }
        }
        let lo = order.partition_point(|&(t, _)| t < w_start);
        let hi = order.partition_point(|&(t, _)| t < w_start.saturating_add(length));
        present.clear();
        for j in lo..hi {
            let (g, input) = (group[j], &inputs[j * naggs..(j + 1) * naggs]);
            let group_accs = &mut accs[g * naggs..(g + 1) * naggs];
            if stamp[g] != k {
                stamp[g] = k;
                group_accs.fill(AggAcc::new());
                present.push((g, j));
            }
            (group_accs.iter_mut().zip(input)).for_each(|(acc, v)| acc.add(*v));
        }
        for &(g, j) in &present {
            let group_accs = &accs[g * naggs..(g + 1) * naggs];
            for (slot, ((func, _), acc)) in cp.aggs.iter().zip(group_accs).enumerate() {
                aggs[slot] = acc.finalize(*func);
            }
            // Aliased items first: `having` and later windows read them; the
            // row is evaluated only for a group that is kept.
            aliases.fill(None);
            let rep = view(order[j].1);
            for (item, alias) in cp.items.iter().zip(&cp.alias_slot) {
                if let Some(slot) = alias {
                    aliases[*slot] = Some(item.eval(&slots(env, rep, &aliases, &aggs))?);
                }
            }
            let group_history = &mut history[g * nlags..(g + 1) * nlags];
            for ((&(slot, lag), v), h) in cp.lags.iter().zip(&mut past).zip(group_history) {
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
                history: &past,
                ..slots(env, rep, &aliases, &aggs)
            };
            if cp.having.as_ref().map_or(Ok(true), |h| h.passes(&cx))? {
                let row = cp.items.iter().map(|e| e.eval(&cx));
                rows.push(row.collect::<Result<_, _>>()?);
            }
        }
        k += 1;
        w_start = w_start.saturating_add(step);
    }

    if a.base.ret.distinct {
        let mut seen = KeyIndex::default();
        rows.retain(|r| seen.find_or_insert(r).1);
    }
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
        let keys = a.base.group_by.iter().map(|g| eval::eval(g, store, &ctx));
        tuple_keys.push(ResultTable::row_key(&keys.collect::<Result<Vec<_>, _>>()?));
        let inputs = aggs.iter().map(|(_, _, arg)| eval::eval(arg, store, &ctx));
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
    let mut rows: Vec<Vec<Value>> = Vec::new();
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
                    let v = eval::eval(expr, store, &ctx)?;
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
                Some(h) => eval::eval(h, store, &ctx)?.truthy(),
                None => true,
            };
            if keep {
                let row = items.iter().map(|(_, expr)| eval::eval(expr, store, &ctx));
                rows.push(row.collect::<Result<_, EngineError>>()?);
            }
            this_window.insert(key.to_string(), std::mem::take(&mut ctx.aliases));
        }
        window_history.push(this_window);
        w_start = w_start.saturating_add(step);
    }

    if a.base.ret.distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(ResultTable::row_key(r)));
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
            let key = eval::agg_key(e);
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
