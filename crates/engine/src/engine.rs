//! The engine facade: parse → analyze → route → execute.

use aiql_lang::{parse_query, Query};
use aiql_storage::EventStore;

use crate::analyze;
use crate::anomaly;
use crate::error::EngineError;
use crate::exec::{ExecStats, MultieventExec};
use crate::governor::{ExecBudget, Governor};
use crate::result::ResultTable;

/// Engine tunables. The paper's five domain-specific optimizations
/// (`prioritize_pruning`, `partition_parallel`, `entity_pushdown`,
/// `semi_join_pushdown`, `temporal_narrowing`) can be switched off
/// individually, which is how the fig. 5 ablation isolates their
/// contributions; everything else the pipeline does is unconditional.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-query fan-out on the process-wide scan executor
    /// ([`crate::pool::shared`]): partition-parallel scans and the join's
    /// run-sharded drive and sharded index builds. 1 = everything runs on
    /// the query thread.
    pub parallelism: usize,
    /// Schedule patterns by estimated pruning power (vs. source order).
    pub prioritize_pruning: bool,
    /// Scan hypertable partitions in parallel.
    pub partition_parallel: bool,
    /// Resolve entity constraints against the dictionary and push the id
    /// sets into the event scans as posting-list lookups — the paper's
    /// per-pattern data-query synthesis. Without it, entity predicates are
    /// evaluated per scanned row (hash-join style).
    pub entity_pushdown: bool,
    /// Push bindings of executed patterns into later data queries.
    pub semi_join_pushdown: bool,
    /// Narrow scan windows using temporal relations and observed bounds.
    pub temporal_narrowing: bool,
    /// Join partition count. 0 = auto: the seed frontier's runs fan out
    /// across the executor once there are enough seed tuples to pay for the
    /// fork/merge, and an index build shards once its candidate list is big
    /// enough. A non-zero value forces the parallel drive and exactly that
    /// many index shards on every step big enough to split (differential
    /// tests pin this to reach both on tiny inputs).
    pub join_partitions: usize,
    /// Seed-frontier run size (in tuples) of the join drive: the seed
    /// candidates are taken in runs of this many tuples, each driven
    /// depth-first through every join step. The result is byte-identical
    /// across block sizes; smaller blocks bound live intermediate state
    /// more tightly, larger blocks amortize per-run overhead.
    pub join_block_tuples: usize,
    /// Memoize dictionary constraint resolutions and filter estimates in
    /// an LRU shared by every query this engine (and its clones) runs —
    /// repeated investigations skip the shared phase. Invalidation is
    /// partition-scoped: resolutions are guarded by the store's dictionary
    /// epoch, estimates by the ⟨partition, epoch⟩ dependencies they read,
    /// so cached plans survive ingest into partitions they never touched.
    pub plan_cache: bool,
    /// Minimum estimated scan size before partition-parallelism kicks in
    /// (thread fan-out is pure overhead for tiny scans).
    pub parallel_threshold: usize,
    /// Cap on intermediate join tuples (guard against pattern explosion).
    pub max_intermediate: usize,
    /// Wall-clock deadline per query in milliseconds; 0 disables. Tripping
    /// the deadline yields [`EngineError::DeadlineExceeded`] unless
    /// `partial_results` is on.
    pub deadline_ms: u64,
    /// Byte budget for in-flight intermediate state (candidate lists plus
    /// the join frontier); 0 disables. Tripping yields
    /// [`EngineError::MemoryBudget`] unless `partial_results` is on.
    pub memory_budget_bytes: u64,
    /// On a governor trip, return the prefix of results produced so far
    /// (flagged `truncated` with a [`crate::governor::Warning`]) instead
    /// of an error.
    pub partial_results: bool,
    /// Fault injection: panic inside a pooled scan worker. Exercises the
    /// panic-isolation path ([`EngineError::WorkerPanic`]) in tests; never
    /// set in production configs.
    pub inject_scan_panic: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            prioritize_pruning: true,
            partition_parallel: true,
            entity_pushdown: true,
            semi_join_pushdown: true,
            temporal_narrowing: true,
            join_partitions: 0,
            join_block_tuples: 4096,
            plan_cache: true,
            parallel_threshold: 8_192,
            max_intermediate: 4_000_000,
            deadline_ms: 0,
            memory_budget_bytes: 0,
            partial_results: false,
            inject_scan_panic: false,
        }
    }
}

impl EngineConfig {
    /// The paper's five optimizations off, on one thread: scheduling
    /// degrades to source order with no pushdown, mirroring how a
    /// general-purpose engine would execute the synthesized plan. Nothing
    /// else moves — the plan cache stays on — so against `default()` the
    /// ablation's all-off row differs by the five and the thread count.
    pub fn unoptimized() -> Self {
        EngineConfig {
            parallelism: 1,
            prioritize_pruning: false,
            partition_parallel: false,
            entity_pushdown: false,
            semi_join_pushdown: false,
            temporal_narrowing: false,
            ..EngineConfig::default()
        }
    }

    /// The execution budget implied by the configuration's governor
    /// tunables (`deadline_ms`, `memory_budget_bytes`, `partial_results`).
    /// Unlimited when none are set.
    pub fn budget(&self) -> crate::governor::ExecBudget {
        let mut b =
            crate::governor::ExecBudget::unlimited().with_partial_results(self.partial_results);
        if self.deadline_ms > 0 {
            b = b.with_deadline(std::time::Duration::from_millis(self.deadline_ms));
        }
        if self.memory_budget_bytes > 0 {
            b = b.with_memory_bytes(self.memory_budget_bytes);
        }
        b
    }
}

/// The AIQL query engine.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
    /// Cross-query plan-resolution cache; the handle is shared, so clones
    /// of an engine — whenever they were made — use one cache.
    plan_cache: std::sync::Arc<crate::schedule::PlanCache>,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            plan_cache: std::sync::Arc::new(crate::schedule::PlanCache::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The plan-resolution cache handle, if the configuration wants one.
    fn cache(&self) -> Option<std::sync::Arc<crate::schedule::PlanCache>> {
        self.config.plan_cache.then(|| self.plan_cache.clone())
    }

    /// The process-wide scan executor, if the configuration fans out at
    /// all. Per-query fan-out stays capped at `parallelism`.
    fn pool(&self) -> Option<std::sync::Arc<crate::pool::ScanPool>> {
        (self.config.partition_parallel && self.config.parallelism > 1).then(crate::pool::shared)
    }

    /// `(hits, misses)` of the engine's plan-resolution cache, for tests
    /// and benches asserting cache behavior (e.g. that a cached plan
    /// survives an ingest into a partition it never read).
    pub fn plan_cache_counters(&self) -> (u64, u64) {
        self.plan_cache.counters()
    }

    /// The governor for a budget: `Some` only when the budget actually
    /// limits something, so unbudgeted queries keep the zero-overhead
    /// ungoverned path.
    fn governor(&self, budget: &ExecBudget) -> Option<std::sync::Arc<Governor>> {
        budget
            .is_limited()
            .then(|| std::sync::Arc::new(Governor::new(budget)))
    }

    /// Parses and executes AIQL query text against a store.
    pub fn execute_text(
        &self,
        store: &EventStore,
        source: &str,
    ) -> Result<ResultTable, EngineError> {
        let query = parse_query(source)?;
        self.execute(store, &query)
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

    /// Executes a parsed query under the configuration's implied budget
    /// (`deadline_ms` / `memory_budget_bytes` / `partial_results`; all off
    /// by default, i.e. ungoverned).
    pub fn execute(&self, store: &EventStore, query: &Query) -> Result<ResultTable, EngineError> {
        self.execute_with_budget(store, query, &self.config.budget())
    }

    /// Executes a parsed query under an explicit execution budget: a
    /// wall-clock deadline, a cooperative [`crate::governor::CancelToken`],
    /// and/or a byte budget on intermediate state, checked cooperatively
    /// at batch boundaries throughout the pipeline. With
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
        match query {
            Query::Multievent(m) => {
                let a = analyze::analyze_multievent(m, store)?;
                MultieventExec::new(store, &a, &self.config)
                    .with_pool(self.pool())
                    .with_plan_cache(self.cache())
                    .with_governor(self.governor(budget))
                    .run()
            }
            Query::Dependency(d) => {
                // §2.3: compile to a semantically equivalent multievent query.
                let m = aiql_lang::dependency_to_multievent(d)?;
                let a = analyze::analyze_multievent(&m, store)?;
                MultieventExec::new(store, &a, &self.config)
                    .with_pool(self.pool())
                    .with_plan_cache(self.cache())
                    .with_governor(self.governor(budget))
                    .run()
            }
            Query::Anomaly(anom) => {
                let a = analyze::analyze_anomaly(anom, store)?;
                anomaly::run_anomaly_pooled(
                    store,
                    &a,
                    &self.config,
                    self.pool(),
                    self.governor(budget),
                )
            }
        }
    }

    /// Executes a multievent query and returns execution statistics
    /// (pattern order, per-pattern fetch counts) for benchmarking.
    pub fn execute_multievent_with_stats(
        &self,
        store: &EventStore,
        m: &aiql_lang::MultieventQuery,
    ) -> Result<(ResultTable, ExecStats), EngineError> {
        let a = analyze::analyze_multievent(m, store)?;
        MultieventExec::new(store, &a, &self.config)
            .with_pool(self.pool())
            .with_plan_cache(self.cache())
            .with_governor(self.governor(&self.config.budget()))
            .run_with_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_share_the_process_wide_pool() {
        let e1 = Engine::new(EngineConfig {
            parallelism: 2,
            ..EngineConfig::default()
        });
        let e2 = Engine::new(EngineConfig {
            parallelism: 4,
            ..EngineConfig::default()
        });
        let p1 = e1.pool().expect("parallel config wants a pool");
        let p2 = e2.pool().expect("parallel config wants a pool");
        assert!(
            std::sync::Arc::ptr_eq(&p1, &p2),
            "every engine must use the one process-wide executor"
        );
    }

    #[test]
    fn serial_config_gets_no_pool() {
        let e = Engine::new(EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        });
        assert!(e.pool().is_none());
        let unopt = Engine::new(EngineConfig::unoptimized());
        assert!(unopt.pool().is_none());
    }
}
