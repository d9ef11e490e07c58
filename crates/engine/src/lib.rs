//! # aiql-engine
//!
//! The optimized AIQL query execution engine (§2.3 of the paper).
//!
//! Rather than weaving all joins and constraints of a multievent query into
//! one large SQL statement and relying on a general-purpose planner, the
//! engine synthesizes **one data query per event pattern** and schedules
//! their execution with two domain-specific insights:
//!
//! 1. **Pruning-power priority** ([`schedule`]): patterns whose constraints
//!    are most selective (estimated from the entity dictionary and segment
//!    statistics) execute first, and their bindings are pushed into later
//!    data queries as entity-id semi-joins — irrelevant events are discarded
//!    as early as possible.
//! 2. **Temporal/spatial partitioning** ([`op`]): each data query is
//!    split along the hypertable's ⟨time-bucket, agent⟩ partitions and the
//!    partitions are scanned in parallel on a process-wide shared worker
//!    pool ([`pool`]); the multi-way join drives its seed runs on the
//!    same executor.
//!
//! Execution is structured as a tree of physical operators ([`op`]):
//! `SemiJoinNarrow → PatternScan` per pattern, `TemporalJoin`,
//! `Project`/`Aggregate` — assembled by the scheduler, driven by
//! [`exec`], and rendered verbatim by `EXPLAIN` ([`explain`]).
//!
//! The data path is columnar end to end ([`exec`]): scans produce
//! selection vectors, candidate lists and the multi-way join carry
//! ⟨partition, row⟩ references, the join's final step feeds a streaming
//! projection sink, and events are materialized only for what outlives the
//! join.
//!
//! Dependency queries are rewritten to equivalent multievent queries (in
//! `aiql-lang`) and reuse the same pipeline. Anomaly queries are executed by
//! a sliding-window aggregation operator ([`anomaly`]) that maintains
//! per-group aggregate history so `having` clauses can reference previous
//! windows (`amt[1]`).
//!
//! Execution is fault-contained: an optional per-query governor
//! ([`governor`]) enforces wall-clock deadlines, cooperative cancellation,
//! and byte budgets on intermediate state at batch boundaries, either
//! erroring with a structured [`EngineError`] or — under
//! `partial_results` — returning a prefix of the full answer with a
//! warning. Worker panics are caught at the pool boundary ([`pool`]) and
//! delivered to the owning query as [`EngineError::WorkerPanic`] while the
//! shared executor keeps serving other queries.
//!
//! Above single-query execution sits the multi-tenant query [`service`]:
//! per-analyst sessions with private plan caches and variable bindings,
//! admission control that carves a global memory pool into per-query
//! governor budgets, deficit-round-robin fairness across sessions, and
//! explicit overload shedding with client-side backoff — many concurrent
//! investigations over one store without sharing their failures.
//!
//! The paper's five optimizations are individually toggleable through
//! [`EngineConfig`] for the fig. 5 ablation. The [`mod@reference`] module
//! provides a tiny, obviously-correct executor used as the
//! property-testing oracle.

pub mod analyze;
pub mod anomaly;
pub mod engine;
pub mod error;
pub mod eval;
pub mod exec;
pub mod explain;
pub mod governor;
pub mod op;
pub mod pool;
pub mod reference;
pub mod result;
pub mod schedule;
pub mod service;

pub use analyze::{analyze_multievent, AnalyzedGlobals, AnalyzedMultievent, AnalyzedPattern};
pub use engine::{Engine, EngineConfig};
pub use error::EngineError;
pub use explain::{explain, QueryPlan};
pub use governor::{CancelToken, Clock, ExecBudget, Governor, ManualClock, SystemClock, Warning};
pub use pool::PoolPanic;
pub use result::ResultTable;
pub use service::{
    BackoffPolicy, QueryResponse, QueryService, QueryTicket, ServiceConfig, ServiceError,
    ServiceStats, SessionId,
};
