//! # AIQL — a query system for investigating complex attack behaviors
//!
//! A from-scratch Rust implementation of the AIQL system (Gao et al.,
//! VLDB 2019 demo / USENIX ATC 2018): domain-specific storage for system
//! monitoring data, the Attack Investigation Query Language, and an
//! execution engine with domain-specific optimizations — plus the
//! general-purpose baseline engines and the workload simulator used to
//! reproduce the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use aiql::{AiqlSystem, RawEvent, EntitySpec};
//! use aiql::model::{AgentId, Operation, Timestamp};
//!
//! let mut system = AiqlSystem::new();
//! // Ingest observations from your data collection agents.
//! system.ingest(&[RawEvent::instant(
//!     AgentId(1),
//!     Operation::Write,
//!     EntitySpec::process(1200, "C:\\MSSQL\\sqlservr.exe", "mssql"),
//!     EntitySpec::file("C:\\dumps\\backup1.dmp", "mssql"),
//!     Timestamp::from_date(2018, 3, 19),
//!     4096,
//! )]);
//! // Investigate with AIQL.
//! let table = system
//!     .query(r#"proc p write file f["%backup1.dmp"] as evt return p, f"#)
//!     .unwrap();
//! assert_eq!(table.rows.len(), 1);
//! println!("{}", system.render(&table));
//! ```
//!
//! The crates compose as in the paper's architecture (Figure 1): data
//! collection feeds the optimized storage ([`storage`]); the language
//! parser ([`lang`]) turns AIQL text into multievent / dependency / anomaly
//! queries; and the engine ([`engine`]) schedules per-pattern data queries
//! with pruning-power prioritization and partition parallelism. The
//! [`baseline`] engines (PostgreSQL-like, Neo4j-like) and the [`sim`]
//! workloads exist to regenerate the evaluation figures.

pub use aiql_baseline as baseline;
pub use aiql_engine as engine;
pub use aiql_lang as lang;
pub use aiql_model as model;
pub use aiql_sim as sim;
pub use aiql_storage as storage;

pub use aiql_engine::{Engine, EngineConfig, EngineError, ResultTable};
pub use aiql_lang::{parse_query, Query};
pub use aiql_storage::{EntitySpec, EventStore, RawEvent, StoreConfig};

use std::path::Path;

/// The assembled AIQL system: optimized store + query engine, with
/// persistence hooks. This is the deployment surface a security team would
/// embed (the paper fronts it with a web UI; the `repl` example plays that
/// role here).
#[derive(Debug, Default)]
pub struct AiqlSystem {
    store: EventStore,
    engine: Engine,
}

impl AiqlSystem {
    /// Creates a system with default storage and engine configurations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a system with explicit configurations.
    pub fn with_config(store_config: StoreConfig, engine_config: EngineConfig) -> Self {
        AiqlSystem {
            store: EventStore::new(store_config),
            engine: Engine::new(engine_config),
        }
    }

    /// Ingests a batch of raw observations (committed at the end).
    pub fn ingest(&mut self, raws: &[RawEvent]) {
        self.store.ingest_all(raws);
    }

    /// Parses and executes an AIQL query.
    pub fn query(&self, source: &str) -> Result<ResultTable, EngineError> {
        self.engine.execute_text(&self.store, source)
    }

    /// Checks a query's syntax and semantics without executing it, powering
    /// editor integration (the web UI's syntax-checking feature).
    pub fn check(&self, source: &str) -> Result<Query, EngineError> {
        let q = parse_query(source)?;
        match &q {
            Query::Multievent(m) => {
                aiql_engine::analyze::analyze_multievent(m, &self.store)?;
            }
            Query::Dependency(d) => {
                let m = aiql_lang::dependency_to_multievent(d)?;
                aiql_engine::analyze::analyze_multievent(&m, &self.store)?;
            }
            Query::Anomaly(a) => {
                aiql_engine::analyze::analyze_anomaly(a, &self.store)?;
            }
        }
        Ok(q)
    }

    /// Renders a result table against this system's string dictionary.
    pub fn render(&self, table: &ResultTable) -> String {
        table.render(self.store.interner())
    }

    /// Explains how a query would execute (scheduling order, selectivity
    /// estimates, partition fan-out) without running it.
    pub fn explain(&self, source: &str) -> Result<engine::QueryPlan, EngineError> {
        let q = parse_query(source)?;
        engine::explain(
            &self.store,
            &q,
            self.engine.config(),
            &engine::ExecBudget::unlimited(),
        )
    }

    /// Read access to the store.
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    /// Mutable access to the store.
    pub fn store_mut(&mut self) -> &mut EventStore {
        &mut self.store
    }

    /// Saves a binary snapshot of the store.
    pub fn save_snapshot(&self, path: &Path) -> Result<(), storage::WalError> {
        storage::snapshot::save(&self.store, path)
    }

    /// Loads a system from a snapshot.
    pub fn load_snapshot(path: &Path) -> Result<Self, storage::WalError> {
        Ok(AiqlSystem {
            store: storage::snapshot::load(path)?,
            engine: Engine::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{AgentId, Operation, Timestamp};

    fn sample_system() -> AiqlSystem {
        let mut sys = AiqlSystem::new();
        sys.ingest(&[
            RawEvent::instant(
                AgentId(1),
                Operation::Start,
                EntitySpec::process(1, "C:\\Windows\\System32\\cmd.exe", "admin"),
                EntitySpec::process(2, "C:\\MSSQL\\osql.exe", "admin"),
                Timestamp::from_secs(100),
                0,
            ),
            RawEvent::instant(
                AgentId(1),
                Operation::Write,
                EntitySpec::process(3, "C:\\MSSQL\\sqlservr.exe", "mssql"),
                EntitySpec::file("C:\\dumps\\backup1.dmp", "mssql"),
                Timestamp::from_secs(200),
                1 << 20,
            ),
        ]);
        sys
    }

    #[test]
    fn end_to_end_query() {
        let sys = sample_system();
        let t = sys
            .query(r#"proc p1["%cmd.exe"] start proc p2 as evt return p1, p2"#)
            .unwrap();
        assert_eq!(t.rows.len(), 1);
        let rendered = sys.render(&t);
        assert!(rendered.contains("osql.exe"));
    }

    #[test]
    fn check_accepts_valid_rejects_invalid() {
        let sys = sample_system();
        assert!(sys.check("proc p read file f as e return p").is_ok());
        assert!(sys.check("proc p read file f as e return qqq").is_err());
        assert!(sys.check("proc p frobnicate file f as e return p").is_err());
    }

    #[test]
    fn explain_via_facade() {
        let sys = sample_system();
        let plan = sys
            .explain(r#"proc p1["%cmd.exe"] start proc p2 as evt return p1"#)
            .unwrap();
        assert_eq!(plan.kind, "multievent");
        assert_eq!(plan.patterns.len(), 1);
        assert!(sys.explain("proc p bogus file f as e return p").is_err());
    }

    #[test]
    fn snapshot_roundtrip_via_facade() {
        let sys = sample_system();
        let mut path = std::env::temp_dir();
        path.push(format!("aiql-facade-snap-{}", std::process::id()));
        sys.save_snapshot(&path).unwrap();
        let loaded = AiqlSystem::load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let q = r#"proc p write file f["%backup1.dmp"] as evt return p, f"#;
        assert_eq!(
            sys.query(q).unwrap().normalized().rows,
            loaded.query(q).unwrap().normalized().rows
        );
    }
}
