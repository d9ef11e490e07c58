//! PostgreSQL-style relational baseline.

use std::collections::HashMap;

use aiql_engine::analyze::{analyze_anomaly, analyze_multievent, AnalyzedMultievent};
use aiql_engine::exec::Tuple;
use aiql_engine::{EngineError, ResultTable};
use aiql_lang::{parse_query, Query};
use aiql_model::{EntityId, Event};
use aiql_storage::{EventFilter, EventStore, IdSet};

use crate::naive::reference::temporal_ok;

/// A general-purpose relational executor: one scan per `events` alias in
/// the synthesized SQL, textual join order, hash joins, and no
/// domain-specific scheduling.
#[derive(Debug, Clone)]
pub struct RelationalEngine {
    /// Whether the storage optimizations (indexes, partition pruning) are
    /// available to scans. Figure 4 compares with them; Figure 5 without.
    pub optimized_storage: bool,
    /// Intermediate tuple cap (same guard as the optimized engine).
    pub max_intermediate: usize,
}

impl Default for RelationalEngine {
    fn default() -> Self {
        RelationalEngine {
            optimized_storage: true,
            max_intermediate: 4_000_000,
        }
    }
}

impl RelationalEngine {
    /// Creates a baseline with or without the storage optimizations.
    pub fn new(optimized_storage: bool) -> Self {
        RelationalEngine {
            optimized_storage,
            ..Default::default()
        }
    }

    /// Parses and executes AIQL text (the baseline executes the same
    /// semantics the hand-written SQL would).
    pub fn execute_text(
        &self,
        store: &EventStore,
        source: &str,
    ) -> Result<ResultTable, EngineError> {
        let q = parse_query(source)?;
        self.execute(store, &q)
    }

    /// Executes a parsed query.
    pub fn execute(&self, store: &EventStore, query: &Query) -> Result<ResultTable, EngineError> {
        match query {
            Query::Multievent(m) => {
                let a = analyze_multievent(m, store)?;
                let tuples = self.match_tuples(store, &a)?;
                crate::naive::project(store, &a, &tuples)
            }
            Query::Dependency(d) => {
                let m = aiql_lang::dependency_to_multievent(d)?;
                self.execute(store, &Query::Multievent(m))
            }
            Query::Anomaly(anom) => {
                let a = analyze_anomaly(anom, store)?;
                // SQL expresses windows with generate_series + LAG; the
                // equivalent processing cost here is a per-pattern scan
                // (without domain pushdown) followed by the same windowed
                // aggregation.
                let tuples = self.match_tuples(store, &a.base)?;
                crate::naive::run_anomaly_over_tuples_naive(store, &a, tuples)
            }
        }
    }

    /// Fetches every pattern's candidates in source order (no binding
    /// propagation), then hash-joins them in source order.
    fn match_tuples(
        &self,
        store: &EventStore,
        a: &AnalyzedMultievent,
    ) -> Result<Vec<Tuple>, EngineError> {
        let n = a.patterns.len();
        let mut candidates: Vec<Vec<Event>> = Vec::with_capacity(n);
        for i in 0..n {
            candidates.push(self.fetch_pattern(store, a, i));
        }
        // Hash join in source order.
        let mut tuples: Vec<Tuple> = vec![Tuple {
            events: vec![None; n],
            vars: vec![None; a.vars.len()],
        }];
        for (i, events) in candidates.iter().enumerate() {
            let p = &a.patterns[i];
            let pattern_vars: Vec<usize> = if p.subject == p.object {
                vec![p.subject]
            } else {
                vec![p.subject, p.object]
            };
            let bound_vars: Vec<usize> = pattern_vars
                .iter()
                .copied()
                .filter(|&v| tuples.first().map(|t| t.vars[v].is_some()).unwrap_or(false))
                .collect();
            let mut index: HashMap<Vec<EntityId>, Vec<&Event>> = HashMap::new();
            for e in events {
                if p.subject == p.object && e.subject != e.object {
                    continue;
                }
                let key: Vec<EntityId> = bound_vars
                    .iter()
                    .map(|&v| if v == p.subject { e.subject } else { e.object })
                    .collect();
                index.entry(key).or_default().push(e);
            }
            let mut next = Vec::new();
            'outer: for t in &tuples {
                let key: Vec<EntityId> = bound_vars
                    .iter()
                    .map(|&v| t.vars[v].expect("bound"))
                    .collect();
                let Some(matches) = index.get(&key) else {
                    continue;
                };
                for e in matches {
                    if !temporal_ok(a, i, e, t) {
                        continue;
                    }
                    let mut nt = t.clone();
                    nt.events[i] = Some(**e);
                    nt.vars[p.subject] = Some(e.subject);
                    nt.vars[p.object] = Some(e.object);
                    next.push(nt);
                    if next.len() >= self.max_intermediate {
                        break 'outer;
                    }
                }
            }
            tuples = next;
            if tuples.is_empty() {
                break;
            }
        }
        Ok(tuples)
    }

    /// One pattern's scan, modeling a SQL engine's hash-join access path:
    /// the (small) entity tables are filtered once into hash sets, then the
    /// `events` alias is scanned and each row probes those sets. What the
    /// baseline deliberately does *not* get is AIQL's domain-specific
    /// pushdown — intersecting the entity id sets with the per-segment
    /// posting lists before touching event rows — because a general-purpose
    /// planner handed one big join has no such operator.
    ///
    /// With `optimized_storage` the events scan still benefits from the
    /// storage layer (partition pruning by time/agent, operation postings),
    /// matching Figure 4's "PostgreSQL w/ our optimized storage"
    /// configuration; without it every pattern is a full heap scan
    /// (Figure 5's configuration).
    fn fetch_pattern(&self, store: &EventStore, a: &AnalyzedMultievent, idx: usize) -> Vec<Event> {
        let p = &a.patterns[idx];
        let residual = &a.globals.residual;
        // Hash-join build side: filtered entity id sets (cheap, dictionary
        // sized). Unconstrained variables probe by kind only.
        let mut sets: [Option<IdSet>; 2] = [None, None];
        for (slot, var_idx) in [(0, p.subject), (1, p.object)] {
            let var = &a.vars[var_idx];
            if var.unsatisfiable {
                return Vec::new();
            }
            if !var.constraints.is_empty() {
                let ids =
                    store
                        .entities()
                        .find(var.kind, a.globals.agents.as_deref(), &var.constraints);
                sets[slot] = Some(IdSet::from_iter(ids));
            }
        }
        let probe = |e: &Event| -> bool {
            if !residual_ok(e, residual) || !kinds_ok(store, a, idx, e) {
                return false;
            }
            if let Some(s) = &sets[0] {
                if !s.contains(e.subject) {
                    return false;
                }
            }
            if let Some(s) = &sets[1] {
                if !s.contains(e.object) {
                    return false;
                }
            }
            true
        };
        let mut out = Vec::new();
        if self.optimized_storage {
            let mut filter = EventFilter::all()
                .with_window(a.globals.window)
                .with_ops(p.ops);
            if let Some(agents) = &a.globals.agents {
                filter = filter.with_agents(agents.clone());
            }
            store.scan(&filter, &mut |e| {
                if probe(e) {
                    out.push(*e);
                }
            });
        } else {
            // Plain relational tables: an ordinary index on the operation
            // column exists (any SQL schema would have one), but none of
            // the domain optimizations — no partition pruning, no zone
            // maps; time/host predicates are verified per candidate row.
            let mut filter = EventFilter::all()
                .with_window(a.globals.window)
                .with_ops(p.ops);
            if let Some(agents) = &a.globals.agents {
                filter = filter.with_agents(agents.clone());
            }
            store.scan_op_indexed(&filter, &mut |e| {
                if probe(e) {
                    out.push(*e);
                }
            });
        }
        out
    }
}

/// Kind check for both endpoints (constraints are applied through the
/// hash-join probe sets; unconstrained variables still pin the kind).
fn kinds_ok(store: &EventStore, a: &AnalyzedMultievent, idx: usize, e: &Event) -> bool {
    let p = &a.patterns[idx];
    store.entities().get(e.subject).kind() == a.vars[p.subject].kind
        && store.entities().get(e.object).kind() == a.vars[p.object].kind
        && (p.subject != p.object || e.subject == e.object)
}

use aiql_engine::exec::residual_ok;

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_engine::{Engine, EngineConfig};
    use aiql_model::{AgentId, Operation, Timestamp};
    use aiql_storage::{EntitySpec, RawEvent};

    fn test_store() -> EventStore {
        let mut s = EventStore::default();
        let mut raws = Vec::new();
        for i in 0..200i64 {
            raws.push(RawEvent::instant(
                AgentId((i % 3) as u32),
                if i % 4 == 0 {
                    Operation::Write
                } else {
                    Operation::Read
                },
                EntitySpec::process(100 + (i % 5) as u32, &format!("exe{}.bin", i % 5), "u"),
                EntitySpec::file(&format!("/data/f{}", i % 7), "u"),
                Timestamp::from_secs(i * 30),
                (i * 10) as u64,
            ));
        }
        s.ingest_all(&raws);
        s
    }

    const QUERIES: &[&str] = &[
        r#"proc p["%exe1.bin"] read file f as e return distinct p, f"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return distinct p1, p2, f"#,
        r#"agentid = 1 proc p read || write file f as e return p, count(e.amount) as n group by p"#,
    ];

    #[test]
    fn relational_matches_optimized_engine() {
        let store = test_store();
        let engine = Engine::new(EngineConfig::default());
        for optimized in [true, false] {
            let baseline = RelationalEngine::new(optimized);
            for src in QUERIES {
                let fast = engine.execute_text(&store, src).unwrap().normalized();
                let slow = baseline.execute_text(&store, src).unwrap().normalized();
                assert_eq!(fast.rows, slow.rows, "query {src} optimized={optimized}");
            }
        }
    }

    #[test]
    fn relational_handles_dependency_queries() {
        let store = test_store();
        let src = r#"forward: proc p1["%exe2.bin"] ->[write] file f1 <-[read] proc p2
                     return p1, p2, f1"#;
        let engine = Engine::new(EngineConfig::default());
        let fast = engine.execute_text(&store, src).unwrap().normalized();
        let slow = RelationalEngine::new(false)
            .execute_text(&store, src)
            .unwrap()
            .normalized();
        assert_eq!(fast.rows, slow.rows);
    }

    #[test]
    fn relational_handles_anomaly_queries() {
        let store = test_store();
        let src = r#"window = 10 min, step = 5 min
                     proc p write file f as evt
                     return p, sum(evt.amount) as total
                     group by p
                     having total > 0"#;
        let engine = Engine::new(EngineConfig::default());
        let fast = engine.execute_text(&store, src).unwrap().normalized();
        let slow = RelationalEngine::new(true)
            .execute_text(&store, src)
            .unwrap()
            .normalized();
        assert_eq!(fast.rows, slow.rows);
    }
}
