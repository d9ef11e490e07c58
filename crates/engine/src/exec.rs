//! Multievent query execution: the driver over the physical operator
//! pipeline ([`crate::op`]).
//!
//! The executor assembles the operator tree the scheduler planned —
//! `SemiJoinNarrow → PatternScan` per pattern in schedule order, feeding
//! `TemporalJoin`, closed by `Project`/`Aggregate` — and executes it
//! post-order, timing every operator into [`ExecStats::ops`]. All data
//! movement lives in the operators; this module only prepares the shared
//! phase (plan context, partition table) and adapts the
//! pipeline's outputs to the public API. One builder
//! (`MultieventExec::build`) plans every execution and every `EXPLAIN`.
//!
//! Candidate lists, binding propagation, the multi-way join, the
//! projection sink and the anomaly window loop carry [`EventRef`]s —
//! ⟨partition, row⟩ pairs resolved against the columnar segments on demand;
//! a group's representative is one such row too. Full `Event` structs are
//! built only for the tuples [`MultieventExec::match_tuples`] hands out to
//! tests and the oracle.

use std::sync::Arc;

use crate::analyze::AnalyzedMultievent;
use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::governor::{ExecBudget, Governor, Warning, DEFAULT_MAX_TUPLES};
use crate::op::{self, ExecEnv, PartTable, PipelineState, PlanNode, RefArena};
use crate::result::ResultTable;
use crate::schedule::{self, PlanCache};

use aiql_storage::EventStore;

// Public API surface kept stable across the operator-pipeline refactor:
// the baselines and tests reach these through `aiql_engine::exec`.
pub use crate::op::scan::residual_ok;
pub use crate::op::{EventRef, ExecStats, OpStat, Tuple};

/// The multievent executor.
pub struct MultieventExec<'a> {
    store: &'a EventStore,
    a: &'a AnalyzedMultievent,
    config: &'a EngineConfig,
    plan_cache: Option<&'a PlanCache>,
    governor: Option<Arc<Governor>>,
    max_tuples: usize,
}

impl<'a> MultieventExec<'a> {
    /// Creates an executor over a store.
    pub fn new(store: &'a EventStore, a: &'a AnalyzedMultievent, config: &'a EngineConfig) -> Self {
        MultieventExec {
            store,
            a,
            config,
            plan_cache: None,
            governor: None,
            max_tuples: DEFAULT_MAX_TUPLES,
        }
    }

    /// Attaches a cross-query plan-resolution cache; without one the
    /// shared phase is computed afresh.
    #[must_use]
    pub fn with_plan_cache(mut self, cache: &'a PlanCache) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Runs under `budget` ([`crate::governor`]): its tuple cap, and a
    /// governor when it sets a governed limit. Without this call — or under
    /// a budget with no governed limit — the query executes ungoverned,
    /// with zero budget-checking overhead, under the default tuple cap.
    #[must_use]
    pub fn with_budget(mut self, budget: &ExecBudget) -> Self {
        self.governor = budget.is_limited().then(|| Arc::new(Governor::new(budget)));
        self.max_tuples = budget.max_tuples;
        self
    }

    /// The one planner: the execution environment — the compiled shared
    /// phase (resolved vars, base filters, schedule; memoized across
    /// queries when a plan cache is attached) and the partition address
    /// space — and the operator tree over it, closed by the query's
    /// projection when `project`. Execution and `EXPLAIN` both start here.
    pub(crate) fn build(&self, project: bool) -> (ExecEnv<'a>, PlanNode) {
        let ctx = schedule::prepare(
            self.a,
            self.store,
            self.config.ablation.prioritize_pruning,
            self.plan_cache,
        );
        let tree = op::plan_tree(self.a, &ctx.plan.order, project);
        let env = ExecEnv {
            store: self.store,
            a: self.a,
            config: self.config,
            ctx,
            parts: PartTable::build(self.store),
            project,
            governor: self.governor.clone(),
            max_tuples: self.max_tuples,
        };
        (env, tree)
    }

    /// Runs the query and also returns execution statistics.
    pub fn run_with_stats(&self) -> Result<(ResultTable, ExecStats), EngineError> {
        let (env, tree) = self.build(true);
        let mut st = PipelineState::new(self.a, &env.ctx.plan.order);
        tree.execute(&env, &mut st)?;
        let mut table = st
            .table
            .take()
            .ok_or_else(|| op::internal("projection operator left no result table"))?;
        flag_trip(&mut table, st.cap_trip, self.governor.as_deref());
        Ok((table, st.stats))
    }

    /// Runs the operator tree without its projection root: the joined
    /// tuples as row references, the environment they resolve in, the
    /// join's tuple-cap warning when the cap cut it, and the operators'
    /// statistics.
    pub(crate) fn join(
        &self,
    ) -> Result<(ExecEnv<'a>, RefArena, Option<Warning>, ExecStats), EngineError> {
        let (env, tree) = self.build(false);
        let mut st = PipelineState::new(self.a, &env.ctx.plan.order);
        tree.execute(&env, &mut st)?;
        let (tuples, cap_trip, stats) = (st.frontier, st.cap_trip, st.stats);
        Ok((env, tuples, cap_trip, stats))
    }

    /// Finds all joined tuples satisfying the query's pattern constraints,
    /// with their events materialized (tests compare them with an oracle;
    /// the engine itself reads `MultieventExec::join`'s row references),
    /// and whether the join stopped early (its tuple cap or a governor
    /// trip).
    pub fn match_tuples(&self) -> Result<(Vec<Tuple>, bool, ExecStats), EngineError> {
        let (env, tuples, cap_trip, stats) = self.join()?;
        let tripped = env.gov().is_some_and(|g| g.trip().is_some());
        let truncated = cap_trip.is_some() || tripped;
        Ok((tuples.materialize(&env.parts), truncated, stats))
    }
}

/// Records why a query that still returned a table stopped early — the
/// join's tuple cap, then a sticky governor trip (partial mode) — as one
/// warning each. The one place a table becomes `truncated`: it is exactly
/// when it carries a warning, so the caller can tell a capped or budgeted
/// prefix from a complete result, and which limit cut it.
pub(crate) fn flag_trip(
    table: &mut ResultTable,
    cap_trip: Option<Warning>,
    governor: Option<&Governor>,
) {
    let trip = governor.and_then(|g| g.trip().map(|t| g.warning(t)));
    table.warnings.extend(cap_trip.into_iter().chain(trip));
    table.truncated = !table.warnings.is_empty();
}
