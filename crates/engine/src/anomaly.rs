//! Sliding-window anomaly query execution.
//!
//! Per §2.3: "for an anomaly query, the engine partitions the events into
//! sliding windows by the timestamp, computes the aggregate results, and
//! enforces the filters." Windows may overlap (`length > step`), events
//! contribute to every window containing them, and per-group aggregate
//! history is retained so `having` clauses can reference `alias[k]` — the
//! aggregate value `k` windows earlier, the language's hook for
//! frequency-based behavioral models (e.g. moving averages).

use std::collections::HashMap;
use std::sync::Arc;

use aiql_lang::Expr;
use aiql_model::{Duration, Timestamp, Value};
use aiql_storage::EventStore;

use crate::analyze::AnalyzedAnomaly;
use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::eval::{self, RowCtx};
use crate::exec::{flag_trip, MultieventExec, Tuple};
use crate::governor::Governor;
use crate::op::project::AggAcc;
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
    // Phase 1: fetch matching events with the multievent machinery (one
    // pattern, so tuples are single events).
    let exec = MultieventExec::new(store, &a.base, config)
        .with_pool(pool)
        .with_governor(governor.clone());
    let (tuples, truncated, _) = exec.match_tuples()?;
    let mut table = run_anomaly_windows(store, a, tuples, truncated, false, governor.as_deref())?;
    flag_trip(&mut table, governor.as_deref());
    Ok(table)
}

/// Runs the sliding-window aggregation over already-fetched tuples,
/// assigning events to windows by a per-window linear filter instead of
/// sort + binary search — the cost model of a general-purpose engine
/// nested-looping `generate_series` against the event set (the baselines
/// fetch candidates their own way and aggregate here).
pub fn run_anomaly_over_tuples_naive(
    store: &EventStore,
    a: &AnalyzedAnomaly,
    tuples: Vec<Tuple>,
    truncated: bool,
) -> Result<ResultTable, EngineError> {
    run_anomaly_windows(store, a, tuples, truncated, true, None)
}

fn run_anomaly_windows(
    store: &EventStore,
    a: &AnalyzedAnomaly,
    mut tuples: Vec<Tuple>,
    truncated: bool,
    naive_window_assignment: bool,
    governor: Option<&Governor>,
) -> Result<ResultTable, EngineError> {
    let columns: Vec<String> = a
        .base
        .ret
        .items
        .iter()
        .map(|i| {
            i.alias
                .clone()
                .unwrap_or_else(|| aiql_lang::pretty::print_expr(&i.expr))
        })
        .collect();
    let mut table = ResultTable::new(columns);
    table.truncated = truncated;
    if tuples.is_empty() {
        return Ok(table);
    }
    tuples.sort_by_key(|t| t.events[0].map(|e| e.start_time).unwrap_or(Timestamp(0)));

    // Window range: the query's global window when bounded, else the data's.
    let first = tuples
        .first()
        .and_then(|t| t.events[0])
        .expect("nonempty tuples");
    let last = tuples
        .last()
        .and_then(|t| t.events[0])
        .expect("nonempty tuples");
    let range_start = if a.base.globals.window.start == Timestamp::MIN {
        first.start_time
    } else {
        a.base.globals.window.start
    };
    let range_end = if a.base.globals.window.end == Timestamp::MAX {
        last.start_time + Duration(1)
    } else {
        a.base.globals.window.end
    };
    let step = a.window_spec.step.micros();
    let length = a.window_spec.length.micros();

    let aggs = crate::exec::collect_aggs(&a.base);
    // Rewrite every aggregate node into a synthetic alias reference so the
    // per-window evaluation is a hash lookup instead of a structural-key
    // computation (this loop runs per window × group).
    let agg_aliases: Vec<String> = (0..aggs.len()).map(|i| format!("__agg{i}")).collect();
    let rewritten_items: Vec<(Option<String>, Expr)> = a
        .base
        .ret
        .items
        .iter()
        .map(|item| {
            (
                item.alias.clone(),
                replace_aggs(&item.expr, &aggs, &agg_aliases),
            )
        })
        .collect();
    let rewritten_having: Option<Expr> = a
        .base
        .having
        .as_ref()
        .map(|h| replace_aggs(h, &aggs, &agg_aliases));
    // Aliased aggregate values per window per group, for history access:
    // window index → group key → alias → value.
    let mut window_history: Vec<HashMap<String, HashMap<String, Value>>> = Vec::new();
    let mut rows: Vec<Vec<Value>> = Vec::new();

    let start_times: Vec<i64> = tuples
        .iter()
        .map(|t| t.events[0].expect("single pattern").start_time.micros())
        .collect();

    // Per-tuple group keys and aggregate inputs are window-independent;
    // compute them once instead of per overlapping window.
    let mut tuple_keys: Vec<String> = Vec::with_capacity(tuples.len());
    let mut tuple_inputs: Vec<Vec<Value>> = Vec::with_capacity(tuples.len());
    for t in &tuples {
        let ctx = tuple_ctx_for(&a.base, t);
        let mut key_vals = Vec::with_capacity(a.base.group_by.len());
        for g in &a.base.group_by {
            key_vals.push(eval::eval(g, store, &ctx)?);
        }
        tuple_keys.push(ResultTable::row_key(&key_vals));
        let mut inputs = Vec::with_capacity(aggs.len());
        for (_, _, arg) in &aggs {
            inputs.push(eval::eval(arg, store, &ctx)?);
        }
        tuple_inputs.push(inputs);
    }

    // History lags referenced by the having clause (computed once).
    let mut lags: Vec<(String, u32)> = Vec::new();
    if let Some(h) = &rewritten_having {
        h.visit(&mut |e| {
            if let Expr::History { name, lag } = e {
                if *lag > 0 && !lags.contains(&(name.clone(), *lag)) {
                    lags.push((name.clone(), *lag));
                }
            }
        });
    }

    let mut indices_buf: Vec<usize> = Vec::new();
    let mut w_start = range_start.micros();
    while w_start < range_end.micros() {
        if let Some(g) = governor {
            if let Err(t) = g.check() {
                if !g.partial() {
                    return Err(g.error(t));
                }
                break;
            }
        }
        let w_end = w_start + length;
        // Tuples with start_time in [w_start, w_end).
        indices_buf.clear();
        if naive_window_assignment {
            // Nested-loop window assignment: touch every event per window —
            // the cost model of generate_series × events in SQL.
            for (i, &t) in start_times.iter().enumerate() {
                if t >= w_start && t < w_end {
                    indices_buf.push(i);
                }
            }
        } else {
            // Sorted input + binary search: the domain-aware plan.
            let lo = start_times.partition_point(|&t| t < w_start);
            let hi = start_times.partition_point(|&t| t < w_end);
            indices_buf.extend(lo..hi);
        }
        let k = window_history.len();
        let mut this_window: HashMap<String, HashMap<String, Value>> = HashMap::new();

        if !indices_buf.is_empty() {
            // Group by precomputed keys, accumulating precomputed inputs.
            let mut order: Vec<&str> = Vec::new();
            let mut groups: HashMap<&str, (usize, Vec<AggAcc>)> = HashMap::new();
            for &ti in &indices_buf {
                let key = tuple_keys[ti].as_str();
                let entry = match groups.get_mut(key) {
                    Some(e) => e,
                    None => {
                        order.push(key);
                        groups
                            .entry(key)
                            .or_insert((ti, aggs.iter().map(|_| AggAcc::new()).collect()))
                    }
                };
                for (acc, v) in entry.1.iter_mut().zip(&tuple_inputs[ti]) {
                    acc.add(*v);
                }
            }
            for key in order {
                let (rep_idx, accs) = groups.remove(key).expect("group exists");
                let rep = &tuples[rep_idx];
                let mut ctx = tuple_ctx_for(&a.base, rep);
                for ((name, (_, func, _)), acc) in
                    agg_aliases.iter().zip(aggs.iter()).zip(accs.iter())
                {
                    ctx.aliases.insert(name.clone(), acc.finalize(*func));
                }
                // Alias env from return items (needed by having and by
                // future windows' history lookups).
                for (alias, expr) in &rewritten_items {
                    if let Some(alias) = alias {
                        let v = eval::eval(expr, store, &ctx)?;
                        ctx.aliases.insert(alias.clone(), v);
                    }
                }
                // Wire up history: alias values from windows k-1, k-2, …
                for (name, lag) in &lags {
                    let v = window_history
                        .get(k.wrapping_sub(*lag as usize))
                        .and_then(|w| w.get(key))
                        .and_then(|m| m.get(name))
                        .copied()
                        .unwrap_or(Value::Float(0.0));
                    ctx.history.insert((name.clone(), *lag), v);
                }
                let keep = match &rewritten_having {
                    Some(h) => eval::eval(h, store, &ctx)?.truthy(),
                    None => true,
                };
                // Only groups passing the filter materialize a row — the
                // common case (quiet background window) stops here.
                if keep {
                    let mut row = Vec::with_capacity(rewritten_items.len());
                    for (_, expr) in &rewritten_items {
                        row.push(eval::eval(expr, store, &ctx)?);
                    }
                    rows.push(row);
                }
                this_window.insert(key.to_string(), std::mem::take(&mut ctx.aliases));
            }
        }
        window_history.push(this_window);
        w_start += step;
    }

    if a.base.ret.distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(ResultTable::row_key(r)));
    }
    table.rows = rows;
    Ok(table)
}

/// Structurally replaces every aggregate node with a lag-0 history access
/// to its synthetic alias (aggregate identity matched by canonical key).
fn replace_aggs(e: &Expr, aggs: &[(String, aiql_lang::AggFunc, Expr)], names: &[String]) -> Expr {
    match e {
        Expr::Agg { .. } => {
            let key = crate::eval::agg_key(e);
            let idx = aggs
                .iter()
                .position(|(k, _, _)| *k == key)
                .expect("aggregate collected during analysis");
            Expr::History {
                name: names[idx].clone(),
                lag: 0,
            }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(replace_aggs(lhs, aggs, names)),
            rhs: Box::new(replace_aggs(rhs, aggs, names)),
        },
        Expr::Neg(inner) => Expr::Neg(Box::new(replace_aggs(inner, aggs, names))),
        other => other.clone(),
    }
}

fn tuple_ctx_for<'a>(base: &'a crate::analyze::AnalyzedMultievent, t: &Tuple) -> RowCtx<'a> {
    let mut ctx = RowCtx::default();
    for (vi, var) in base.vars.iter().enumerate() {
        if let Some(id) = t.vars[vi] {
            ctx.var_entity.insert(var.name.as_str(), id);
        }
    }
    for (pi, p) in base.patterns.iter().enumerate() {
        if let Some(e) = t.events[pi] {
            ctx.events.insert(p.name.as_str(), e);
        }
    }
    ctx
}
