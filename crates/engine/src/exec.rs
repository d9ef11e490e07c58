//! Multievent query execution: the driver over the physical operator
//! pipeline ([`crate::op`]).
//!
//! The executor assembles the operator tree the scheduler planned —
//! `SemiJoinNarrow → PatternScan` per pattern in schedule order, feeding
//! `TemporalJoin`, closed by `Project`/`Aggregate` — and executes it
//! post-order, timing every operator into [`ExecStats::ops`]. All data
//! movement lives in the operators; this module only prepares the shared
//! phase (plan context, partition table, pool handle) and adapts the
//! pipeline's outputs to the public API.
//!
//! Candidate lists, binding propagation, and the multi-way join carry
//! [`EventRef`]s — ⟨partition, row⟩ pairs resolved against the columnar
//! segments on demand. Full `Event` structs are built only for what
//! outlives the join: a group's representative tuple, or the tuples
//! [`MultieventExec::match_tuples`] hands out.

use std::sync::Arc;

use crate::analyze::AnalyzedMultievent;
use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::governor::Governor;
use crate::op::{self, ExecEnv, PartTable, PipelineState};
use crate::pool::ScanPool;
use crate::result::ResultTable;
use crate::schedule::{self, PlanCache};

use aiql_storage::EventStore;

// Public API surface kept stable across the operator-pipeline refactor:
// the baselines and tests reach these through `aiql_engine::exec`.
pub(crate) use crate::op::project::collect_aggs;
pub use crate::op::project::project;
pub use crate::op::scan::residual_ok;
pub use crate::op::{EventRef, ExecStats, OpStat, Tuple};

/// The multievent executor.
pub struct MultieventExec<'a> {
    store: &'a EventStore,
    a: &'a AnalyzedMultievent,
    config: &'a EngineConfig,
    pool: Option<Arc<ScanPool>>,
    plan_cache: Option<Arc<PlanCache>>,
    governor: Option<Arc<Governor>>,
}

impl<'a> MultieventExec<'a> {
    /// Creates an executor over a store.
    pub fn new(store: &'a EventStore, a: &'a AnalyzedMultievent, config: &'a EngineConfig) -> Self {
        MultieventExec {
            store,
            a,
            config,
            pool: None,
            plan_cache: None,
            governor: None,
        }
    }

    /// Attaches the scan executor; without one every scan and the join run
    /// on the query thread.
    #[must_use]
    pub fn with_pool(mut self, pool: Option<Arc<ScanPool>>) -> Self {
        self.pool = pool;
        self
    }

    /// Attaches a cross-query plan-resolution cache (ignored when
    /// `EngineConfig::plan_cache` is off).
    #[must_use]
    pub fn with_plan_cache(mut self, cache: Option<Arc<PlanCache>>) -> Self {
        self.plan_cache = cache;
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
    /// when a plan cache is attached), the partition address space, and —
    /// when a projection closes the pipeline (`project`) — its compiled
    /// form.
    fn env(&self, project: bool) -> ExecEnv<'a> {
        let cache = if self.config.plan_cache {
            self.plan_cache.as_deref()
        } else {
            None
        };
        ExecEnv {
            store: self.store,
            a: self.a,
            config: self.config,
            pool: self.pool.clone(),
            ctx: schedule::prepare(self.a, self.store, self.config.prioritize_pruning, cache),
            parts: PartTable::build(self.store),
            projection: project
                .then(|| op::project::compile_projection(self.store, self.a))
                .flatten(),
            governor: self.governor.clone(),
        }
    }

    /// Runs the query to a result table.
    pub fn run(&self) -> Result<ResultTable, EngineError> {
        self.run_with_stats().map(|(table, _)| table)
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

    /// Finds all joined tuples satisfying the query's pattern constraints.
    ///
    /// Runs the operator tree without its projection root and materializes
    /// the surviving tuples — callers that only need projection should use
    /// [`MultieventExec::run`], which skips this materialization entirely.
    pub fn match_tuples(&self) -> Result<(Vec<Tuple>, bool, ExecStats), EngineError> {
        let env = self.env(false);
        let tree = op::join_tree(&env.ctx.plan.order);
        let mut st = PipelineState::new(self.a, &env.ctx.plan.order);
        tree.execute(&env, &mut st)?;
        let tuples = st.frontier.materialize(&env.parts);
        let tripped = self.governor.as_ref().is_some_and(|g| g.trip().is_some());
        Ok((tuples, st.truncated || tripped, st.stats))
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
