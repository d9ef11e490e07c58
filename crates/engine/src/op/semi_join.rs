//! `SemiJoinNarrow`: per-pattern filter preparation.
//!
//! Before a pattern's scan runs, this operator narrows its base pushdown
//! filter with everything the already-executed patterns learned:
//!
//! * **semi-join pushdown** — entity-id sets bound by earlier patterns are
//!   AND-ed into the filter's subject/object posting-list lookups;
//! * **temporal narrowing** — observed time bounds of temporally related
//!   patterns shrink the scan window;
//! * without `entity_pushdown`, the dictionary id sets are stripped (the
//!   scan verifies attribute constraints per row instead), and a variable
//!   proven unsatisfiable short-circuits the whole pipeline.
//!
//! The narrowed filter is staged in [`PipelineState::narrowed`] for the
//! parent [`PatternScan`](crate::op::PatternScan).

use aiql_lang::TemporalOp;
use aiql_model::{TimeWindow, Timestamp};
use aiql_storage::EventFilter;

use crate::analyze::TemporalConstraint;
use crate::error::EngineError;
use crate::op::{ExecEnv, OpStat, Operator, PipelineState};

/// The filter-narrowing operator of one pattern.
#[derive(Debug, Clone, Copy)]
pub struct SemiJoinNarrow {
    pattern: usize,
}

impl SemiJoinNarrow {
    pub(crate) fn new(pattern: usize) -> Self {
        SemiJoinNarrow { pattern }
    }

    /// The filter the narrowing of pattern `i` starts from, before any
    /// binding or time bound arrives: its base filter, with the dictionary
    /// id sets stripped without entity pushdown (the scan then checks the
    /// constraints per row).
    pub(crate) fn unbound_filter(env: &ExecEnv<'_>, i: usize) -> EventFilter {
        let mut filter = env.ctx.filters[i].clone();
        if !env.config.ablation.entity_pushdown {
            filter.subjects = None;
            filter.objects = None;
        }
        filter
    }

    /// Whether a variable of the pattern is unsatisfiable while the scan,
    /// without entity pushdown, would not see it: the pipeline stops here.
    fn stops(&self, env: &ExecEnv<'_>) -> bool {
        let p = &env.a.patterns[self.pattern];
        !env.config.ablation.entity_pushdown
            && (env.a.vars[p.subject].unsatisfiable || env.a.vars[p.object].unsatisfiable)
    }
}

impl Operator for SemiJoinNarrow {
    fn kind(&self) -> &'static str {
        "SemiJoinNarrow"
    }

    fn pattern(&self) -> Option<usize> {
        Some(self.pattern)
    }

    fn run(&self, env: &ExecEnv<'_>, st: &mut PipelineState) -> Result<OpStat, EngineError> {
        if st.done {
            return Ok(OpStat::default());
        }
        let i = self.pattern;
        let p = &env.a.patterns[i];
        if self.stops(env) {
            st.done = true;
            return Ok(OpStat::default());
        }
        let mut filter = Self::unbound_filter(env, i);
        let mut bound_in = 0;
        let mut pushed = 0;
        if env.config.ablation.semi_join_pushdown {
            for (var, slot) in [
                (p.subject, &mut filter.subjects),
                (p.object, &mut filter.objects),
            ] {
                if let Some(b) = st.bound.get(&var) {
                    bound_in += b.len();
                    match slot {
                        // In-place bitmap AND — no per-pattern set rebuild.
                        Some(existing) => existing.intersect_with(b),
                        None => *slot = Some(b.clone()),
                    }
                    pushed += slot.as_ref().map(aiql_storage::IdSet::len).unwrap_or(0);
                }
            }
        }
        if env.config.ablation.temporal_narrowing {
            narrow_window(env, &mut filter, i, &st.time_stats);
        }
        st.narrowed = Some(filter);
        Ok(OpStat {
            rows_in: bound_in,
            rows_out: pushed,
            ..OpStat::default()
        })
    }

    /// The patterns scanned before this one whose bindings `run` ANDs in
    /// (none without semi-join pushdown), whether a temporal relation to
    /// one of them narrows the window, and whether entity pushdown is off,
    /// stripping the id sets or stopping the pipeline.
    fn describe(&self, env: &ExecEnv<'_>) -> String {
        let (a, i, config) = (env.a, self.pattern, env.config);
        let p = &a.patterns[i];
        let order = &env.ctx.plan.order;
        let scanned = &order[..order.iter().position(|&j| j == i).unwrap_or(0)];
        let shares = |v: usize| v == p.subject || v == p.object;
        let binders: Vec<&str> = (scanned.iter().map(|&j| &a.patterns[j]))
            .filter(|e| shares(e.subject) || shares(e.object))
            .map(|e| e.name.as_str())
            .collect();
        let mut detail = match binders.is_empty() || !config.ablation.semi_join_pushdown {
            true => format!("{} pass-through", p.name),
            false => format!("{} bindings from {}", p.name, binders.join(", ")),
        };
        let related = |t: &TemporalConstraint| {
            (t.left == i && scanned.contains(&t.right))
                || (t.right == i && scanned.contains(&t.left))
        };
        if config.ablation.temporal_narrowing && a.temporal.iter().any(related) {
            detail.push_str(" | window narrowed");
        }
        let ids = &env.ctx.filters[i];
        if self.stops(env) {
            detail.push_str(" | unsatisfiable: the pipeline stops");
        } else if !config.ablation.entity_pushdown
            && (ids.subjects.is_some() || ids.objects.is_some())
        {
            detail.push_str(" | entity ids stripped, checked per row");
        }
        detail
    }
}

/// Narrows a pattern's scan window using the observed time bounds of
/// already-executed patterns it is temporally related to.
fn narrow_window(
    env: &ExecEnv<'_>,
    filter: &mut EventFilter,
    idx: usize,
    time_stats: &[Option<(i64, i64, i64, i64)>],
) {
    let mut lo = filter.window.start.micros();
    let mut hi = filter.window.end.micros();
    for t in &env.a.temporal {
        // `left before right`: left.end <= right.start.
        let (before_left, before_right) = match &t.op {
            TemporalOp::Before(b) => ((t.left, t.right), b),
            TemporalOp::After(b) => ((t.right, t.left), b),
        };
        let (l, r) = before_left;
        if r == idx {
            if let Some((_, _, min_end, max_end)) = time_stats[l] {
                lo = lo.max(min_end);
                if let Some(bound) = before_right {
                    hi = hi.min(max_end.saturating_add(bound.micros()).saturating_add(1));
                }
            }
        }
        if l == idx {
            if let Some((_, max_start, ..)) = time_stats[r] {
                // This pattern's events must end (hence start) no later
                // than the latest start of the other side.
                hi = hi.min(max_start.saturating_add(1));
            }
        }
    }
    if lo > filter.window.start.micros() || hi < filter.window.end.micros() {
        filter.window = TimeWindow::new(Timestamp(lo), Timestamp(hi.max(lo)));
    }
}
