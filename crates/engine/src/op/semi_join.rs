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
        let a = env.a;
        let i = self.pattern;
        let p = &a.patterns[i];
        let mut filter = env.ctx.filters[i].clone();
        if !env.config.entity_pushdown {
            // Without the domain-specific pushdown the scan cannot use
            // entity posting lists; constraints are verified per row by the
            // scan (but unsatisfiable constraints still short-circuit).
            if a.vars[p.subject].unsatisfiable || a.vars[p.object].unsatisfiable {
                st.done = true;
                return Ok(OpStat::default());
            }
            filter.subjects = None;
            filter.objects = None;
        }
        let mut bound_in = 0;
        let mut pushed = 0;
        if env.config.semi_join_pushdown {
            for (var, is_subject) in [(p.subject, true), (p.object, false)] {
                if let Some(b) = st.bound.get(&var) {
                    bound_in += b.len();
                    let slot = if is_subject {
                        &mut filter.subjects
                    } else {
                        &mut filter.objects
                    };
                    match slot {
                        // In-place bitmap AND — no per-pattern set rebuild.
                        Some(existing) => existing.intersect_with(b),
                        None => *slot = Some(b.clone()),
                    }
                    pushed += slot.as_ref().map(aiql_storage::IdSet::len).unwrap_or(0);
                }
            }
        }
        if env.config.temporal_narrowing {
            narrow_window(env, &mut filter, i, &st.time_stats);
        }
        st.narrowed = Some(filter);
        Ok(OpStat {
            rows_in: bound_in,
            rows_out: pushed,
            ..OpStat::default()
        })
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
