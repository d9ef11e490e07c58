//! The engine facade: parse → analyze → route → execute.

use std::sync::Arc;

use aiql_lang::{parse_query, Query};
use aiql_storage::EventStore;

use crate::analyze::{self, AnalyzedAnomaly, AnalyzedMultievent};
use crate::anomaly;
use crate::error::EngineError;
use crate::exec::{ExecStats, MultieventExec};
use crate::explain::{self, QueryPlan};
use crate::governor::ExecBudget;
use crate::result::ResultTable;
use crate::schedule::PlanCache;

/// What a caller chooses about the engine: how many threads a join fans
/// out on, and which of the paper's scheduling optimizations run. Every
/// other choice the pipeline makes is unconditional.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Threads a join's seed runs fan out on: the query thread plus
    /// `parallelism − 1` scoped threads, no more than there are runs. 1 =
    /// everything runs on the query thread (the paper's parallelism switch
    /// off).
    pub parallelism: usize,
    /// The paper's four scheduling optimizations, each switchable off for
    /// the fig. 5 ablation; all on by default.
    pub ablation: Ablation,
    /// Test hook: the join drive's seed-run size in tuples (the seed
    /// candidates are taken in runs of this many, each driven depth-first
    /// through every join step, and the runs fan out once there is more
    /// than one). The result is byte-identical across block sizes; tests
    /// shrink it to fan small seeds out.
    #[doc(hidden)]
    pub join_block_tuples: usize,
    /// Test hook: panic at the start of every join-drive run, on whichever
    /// thread drives it — in the parallel drive that exercises the
    /// panic-isolation path ([`EngineError::WorkerPanic`]); in the serial
    /// drive, whatever catches panics on the query thread (the service's
    /// dispatcher).
    #[doc(hidden)]
    pub inject_drive_panic: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            ablation: Ablation::default(),
            join_block_tuples: 4096,
            inject_drive_panic: false,
        }
    }
}

impl EngineConfig {
    /// The paper's five optimizations off (`parallelism: 1` among them):
    /// scheduling degrades to source order with no pushdown, on one thread,
    /// mirroring how a general-purpose engine would execute the synthesized
    /// plan. Nothing else moves, so against `default()` the ablation's
    /// all-off row differs by the five.
    pub fn unoptimized() -> Self {
        EngineConfig {
            parallelism: 1,
            ablation: Ablation::all_off(),
            ..EngineConfig::default()
        }
    }
}

/// The paper's domain-specific scheduling optimizations, each of which can
/// be switched off alone — which is how the fig. 5 ablation isolates their
/// contributions (`EngineConfig::parallelism: 1` is the fifth). The
/// default turns every one on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    /// Schedule patterns by estimated pruning power (vs. source order).
    pub prioritize_pruning: bool,
    /// Resolve entity constraints against the dictionary and push the id
    /// sets into the event scans as posting-list lookups — the paper's
    /// per-pattern data-query synthesis. Without it, entity predicates are
    /// evaluated per scanned row (hash-join style).
    pub entity_pushdown: bool,
    /// Push bindings of executed patterns into later data queries.
    pub semi_join_pushdown: bool,
    /// Narrow scan windows using temporal relations and observed bounds.
    pub temporal_narrowing: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Ablation {
            prioritize_pruning: true,
            entity_pushdown: true,
            semi_join_pushdown: true,
            temporal_narrowing: true,
        }
    }
}

impl Ablation {
    /// Every optimization off.
    pub fn all_off() -> Self {
        Ablation {
            prioritize_pruning: false,
            entity_pushdown: false,
            semi_join_pushdown: false,
            temporal_narrowing: false,
        }
    }
}

/// The AIQL query engine. Every engine memoizes dictionary constraint
/// resolutions and filter estimates in an LRU shared by every query it
/// (and its clones) runs, so repeated investigations skip the shared
/// phase. Invalidation is partition-scoped: resolutions are guarded by the
/// store's dictionary epoch, estimates by the ⟨partition, epoch⟩
/// dependencies they read, so cached plans survive ingest into partitions
/// they never touched.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
    /// Cross-query plan-resolution cache; the handle is shared, so clones
    /// of an engine — whenever they were made — use one cache.
    plan_cache: Arc<PlanCache>,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            plan_cache: Arc::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// `(hits, misses)` of the engine's plan-resolution cache, for tests
    /// and benches asserting cache behavior (e.g. that a cached plan
    /// survives an ingest into a partition it never read).
    pub fn plan_cache_counters(&self) -> (u64, u64) {
        self.plan_cache.counters()
    }

    /// Parses and executes AIQL query text against a store, ungoverned.
    pub fn execute_text(
        &self,
        store: &EventStore,
        source: &str,
    ) -> Result<ResultTable, EngineError> {
        self.execute_text_with_budget(store, source, &ExecBudget::unlimited())
    }

    /// Parses and executes AIQL query text under an explicit execution
    /// budget (see [`Engine::execute_with_budget`]).
    pub fn execute_text_with_budget(
        &self,
        store: &EventStore,
        source: &str,
        budget: &ExecBudget,
    ) -> Result<ResultTable, EngineError> {
        let query = parse_query(source)?;
        self.execute_with_budget(store, &query, budget)
    }

    /// Executes a parsed query ungoverned: no deadline, no memory budget,
    /// no cancellation — under [`ExecBudget::unlimited`], whose tuple cap
    /// still applies.
    pub fn execute(&self, store: &EventStore, query: &Query) -> Result<ResultTable, EngineError> {
        self.execute_with_budget(store, query, &ExecBudget::unlimited())
    }

    /// Executes a parsed query under an explicit execution budget: its
    /// tuple cap, plus a wall-clock deadline, a cooperative
    /// [`crate::governor::CancelToken`], and/or a byte budget on
    /// intermediate state, checked cooperatively at batch boundaries
    /// throughout the pipeline. With
    /// `partial_results`, a tripped budget returns the prefix of results
    /// produced so far (flagged with a warning) instead of an error. For an
    /// anomaly query that prefix is the rows of the windows aggregated
    /// before the trip.
    pub fn execute_with_budget(
        &self,
        store: &EventStore,
        query: &Query,
        budget: &ExecBudget,
    ) -> Result<ResultTable, EngineError> {
        self.dispatch(store, query, |a, anomaly| {
            let exec = self.exec(store, a, budget);
            match anomaly {
                Some(an) => anomaly::run_anomaly(&exec, an),
                None => Ok(exec.run_with_stats()?.0),
            }
        })
    }

    /// Plans a parsed query without executing it: dispatched like
    /// [`Engine::execute_with_budget`], and planned by the executor's own
    /// builder under `budget` and this engine's plan cache, so the plan is
    /// the one that query runs.
    pub fn explain(
        &self,
        store: &EventStore,
        query: &Query,
        budget: &ExecBudget,
    ) -> Result<QueryPlan, EngineError> {
        self.dispatch(store, query, |a, anomaly| {
            let exec = self.exec(store, a, budget);
            Ok(explain::plan(&exec, query, anomaly, budget))
        })
    }

    /// Executes a multievent query ungoverned and returns execution
    /// statistics (pattern order, per-operator counts and timings) for
    /// benchmarking.
    pub fn execute_multievent_with_stats(
        &self,
        store: &EventStore,
        m: &aiql_lang::MultieventQuery,
    ) -> Result<(ResultTable, ExecStats), EngineError> {
        let a = analyze::analyze_multievent(m, store)?;
        self.exec(store, &a, &ExecBudget::unlimited())
            .run_with_stats()
    }

    /// The one dispatch of execution and `EXPLAIN`: analyzes `query` and
    /// hands `run` its multievent form — a dependency query's semantically
    /// equivalent multievent query (§2.3), an anomaly query's fetch with
    /// the anomaly query itself.
    fn dispatch<T>(
        &self,
        store: &EventStore,
        query: &Query,
        run: impl FnOnce(&AnalyzedMultievent, Option<&AnalyzedAnomaly>) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        match query {
            Query::Multievent(m) => run(&analyze::analyze_multievent(m, store)?, None),
            Query::Dependency(d) => {
                let m = aiql_lang::dependency_to_multievent(d)?;
                run(&analyze::analyze_multievent(&m, store)?, None)
            }
            Query::Anomaly(an) => {
                let a = analyze::analyze_anomaly(an, store)?;
                run(&a.base, Some(&a))
            }
        }
    }

    /// The executor of `a` through the engine's plan cache under `budget`.
    fn exec<'a>(
        &'a self,
        store: &'a EventStore,
        a: &'a AnalyzedMultievent,
        budget: &ExecBudget,
    ) -> MultieventExec<'a> {
        MultieventExec::new(store, a, &self.config)
            .with_plan_cache(&self.plan_cache)
            .with_budget(budget)
    }
}
