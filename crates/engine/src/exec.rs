//! Multievent query execution: the driver over the physical operator
//! pipeline ([`crate::op`]).
//!
//! The executor assembles the operator tree the scheduler planned —
//! `SemiJoinNarrow → PatternScan` per pattern in schedule order, feeding
//! `TemporalJoin`, closed by `Project`/`Aggregate` — and executes it
//! post-order, timing every operator into [`ExecStats::ops`]. All data
//! movement lives in the operators; this module only prepares the shared
//! phase (plan context, partition table) and adapts the
//! pipeline's outputs to the public API.
//!
//! Candidate lists, binding propagation, and the multi-way join carry
//! [`EventRef`]s — ⟨partition, row⟩ pairs resolved against the columnar
//! segments on demand. Full `Event` structs are built only for what
//! outlives the join: a group's representative tuple, or the tuples
//! [`MultieventExec::match_tuples`] hands out to tests.

use std::sync::Arc;

use crate::analyze::AnalyzedMultievent;
use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::governor::Governor;
use crate::op::{self, ExecEnv, PartTable, PipelineState, RefArena};
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
        }
    }

    /// Attaches a cross-query plan-resolution cache; without one the
    /// shared phase is computed afresh.
    #[must_use]
    pub fn with_plan_cache(mut self, cache: &'a PlanCache) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Attaches a query governor ([`crate::governor`]). `None` — the
    /// default — executes ungoverned with zero budget-checking overhead.
    #[must_use]
    pub fn with_governor(mut self, governor: Option<Arc<Governor>>) -> Self {
        self.governor = governor;
        self
    }

    /// Builds the execution environment: the compiled shared phase
    /// (resolved vars, base filters, schedule — memoized across queries
    /// when a plan cache is attached), the partition address space, and
    /// whether the query's projection closes the pipeline (`project`).
    fn env(&self, project: bool) -> ExecEnv<'a> {
        ExecEnv {
            store: self.store,
            a: self.a,
            config: self.config,
            ctx: schedule::prepare(
                self.a,
                self.store,
                self.config.prioritize_pruning,
                self.plan_cache,
            ),
            parts: PartTable::build(self.store),
            project,
            governor: self.governor.clone(),
        }
    }

    /// Runs the query and also returns execution statistics.
    pub fn run_with_stats(&self) -> Result<(ResultTable, ExecStats), EngineError> {
        let env = self.env(true);
        let tree = op::query_tree(self.a, &env.ctx.plan.order);
        let mut st = PipelineState::new(self.a, &env.ctx.plan.order);
        tree.execute(&env, &mut st)?;
        let mut table = st
            .table
            .take()
            .ok_or_else(|| op::internal("projection operator left no result table"))?;
        flag_trip(&mut table, self.governor.as_deref());
        Ok((table, st.stats))
    }

    /// Runs the operator tree without its projection root: the joined
    /// tuples as row references, the environment they resolve in, whether
    /// the join stopped early (its cap or a governor trip), and the
    /// operators' statistics.
    pub(crate) fn join(&self) -> Result<(ExecEnv<'a>, RefArena, bool, ExecStats), EngineError> {
        let env = self.env(false);
        let tree = op::join_tree(&env.ctx.plan.order);
        let mut st = PipelineState::new(self.a, &env.ctx.plan.order);
        tree.execute(&env, &mut st)?;
        let tripped = self.governor.as_ref().is_some_and(|g| g.trip().is_some());
        let (tuples, truncated, stats) = (st.frontier, st.truncated || tripped, st.stats);
        Ok((env, tuples, truncated, stats))
    }

    /// Finds all joined tuples satisfying the query's pattern constraints,
    /// with their events materialized (tests compare them with an oracle;
    /// the engine itself reads `MultieventExec::join`'s row references).
    pub fn match_tuples(&self) -> Result<(Vec<Tuple>, bool, ExecStats), EngineError> {
        let (env, tuples, truncated, stats) = self.join()?;
        Ok((tuples.materialize(&env.parts), truncated, stats))
    }
}

/// A sticky governor trip on a query that still returned a table (partial
/// mode) means it stopped early somewhere: surface it as a truncation plus
/// a warning so the caller can tell a budgeted prefix from a complete
/// result.
pub(crate) fn flag_trip(table: &mut ResultTable, governor: Option<&Governor>) {
    if let Some(g) = governor {
        if let Some(t) = g.trip() {
            table.truncated = true;
            table.warnings.push(g.warning(t));
        }
    }
}
