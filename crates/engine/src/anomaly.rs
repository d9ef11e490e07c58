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
//! projection analysis compiled (README, "Anomaly queries"); the
//! baselines' dynamic loop lives in `aiql_baseline::naive`.

use std::collections::VecDeque;

use aiql_model::{TimeWindow, Value};

use crate::analyze::AnalyzedAnomaly;
use crate::error::EngineError;
use crate::exec::{flag_trip, MultieventExec};
use crate::governor::Governor;
use crate::op::project::{column_name, slots, AggAcc, GroupCloser, KeyIndex};
use crate::op::{ExecEnv, RefArena};
use crate::result::ResultTable;

/// Executes an anomaly query end to end: `exec` — planned over `a.base`
/// under the query's plan cache and budget — fetches the candidates, and
/// both the fetch and the window loop answer to its budget. In error mode a
/// governor trip is its typed error; in partial mode the table is the rows
/// of the windows finished before the trip. A fetch the tuple cap cut, or a
/// partial-mode trip, flags the table `truncated` with one warning per
/// cause.
pub fn run_anomaly(
    exec: &MultieventExec<'_>,
    a: &AnalyzedAnomaly,
) -> Result<ResultTable, EngineError> {
    let (env, tuples, cap_trip, _) = exec.join()?;
    let mut table = run_windows(&env, a, &tuples, env.gov())?;
    flag_trip(&mut table, cap_trip, env.gov());
    Ok(table)
}

/// The window loop `run_windows` runs, as `EXPLAIN` roots an anomaly
/// query's plan with it: window and step, how many windows the `at` range
/// holds (without one, the data's span bounds them), the history lags
/// `having` reads, and the grouping.
pub(crate) fn describe(a: &AnalyzedAnomaly) -> String {
    let (w, step) = (&a.window_spec, a.window_spec.step.micros() as u64);
    let windows = match a.base.globals.window {
        TimeWindow::ALL => "windows over the data's span".to_string(),
        r => format!(
            "{} window(s)",
            r.end.micros().abs_diff(r.start.micros()).div_ceil(step)
        ),
    };
    let mut lags: Vec<u32> = a.base.projection.lags.iter().map(|&(_, lag)| lag).collect();
    lags.sort_unstable();
    lags.dedup();
    let lags = match lags.is_empty() {
        true => String::new(),
        false => format!(" | history lags {lags:?}"),
    };
    let grouping = crate::op::project::grouping(&a.base);
    format!("{} / step {} | {windows}{lags}{grouping}", w.length, w.step)
}

/// The window range: the query's `at` window when bounded, else the
/// data's span — from the first start time to just past the last.
pub fn window_range(a: &AnalyzedAnomaly, first: i64, last: i64) -> (i64, i64) {
    match a.base.globals.window {
        TimeWindow::ALL => (first, last + 1),
        w => (w.start.micros(), w.end.micros()),
    }
}

/// The engine's window loop over the join's row references (see the
/// module docs); each window's groups close through [`GroupCloser`], as a
/// projection sink's do.
fn run_windows(
    env: &ExecEnv<'_>,
    a: &AnalyzedAnomaly,
    tuples: &RefArena,
    governor: Option<&Governor>,
) -> Result<ResultTable, EngineError> {
    let cp = &a.base.projection;
    let mut table = ResultTable::new(a.base.ret.items.iter().map(column_name).collect());
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
        let cx = slots(env, tuples.view(i), &cp.unset_aliases, &[]);
        vals.clear();
        vals.extend(cp.group_by.iter().map(|g| g.eval(&cx)));
        let (g, new) = keys.find_or_insert(&vals);
        ngroups += usize::from(new);
        group.push(g);
        inputs.extend(cp.aggs.iter().map(|(_, arg)| arg.eval(&cx)));
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
    let mut closer = GroupCloser::new(&a.base);

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
            let group_history = &mut history[g * nlags..(g + 1) * nlags];
            closer.close(env, tuples.view(order[j].1), group_accs, k, group_history);
        }
        k += 1;
        w_start = w_start.saturating_add(step);
    }

    table.rows = closer.rows;
    Ok(table)
}
