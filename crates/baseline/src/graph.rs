//! Neo4j-style graph baseline.
//!
//! Entities become nodes and events become relationships; multievent
//! patterns match by backtracking traversal. The engine expands adjacency
//! lists when a pattern touches an already-bound variable, but — like a
//! graph database without hash-join support — it falls back to a full
//! relationship scan whenever a pattern shares no bound variable, and
//! evaluates every property predicate per visited relationship. As the
//! paper observes, this loses badly once attack behaviors need multi-step
//! joins.

use aiql_engine::analyze::{analyze_anomaly, analyze_multievent, AnalyzedMultievent};
use aiql_engine::exec::Tuple;
use aiql_engine::{EngineError, ResultTable};
use aiql_lang::{parse_query, Query, TemporalOp};
use aiql_model::Event;
use aiql_storage::EventStore;

use crate::naive::reference::{binds_consistently, event_satisfies_pattern};

/// An adjacency-list property graph over a store's entities and events.
#[derive(Debug)]
pub struct GraphEngine {
    /// Outgoing relationships per entity (indices into `edges`).
    out: Vec<Vec<u32>>,
    /// Incoming relationships per entity.
    incoming: Vec<Vec<u32>>,
    /// All relationships (events).
    edges: Vec<Event>,
    /// Intermediate result cap.
    max_intermediate: usize,
}

impl GraphEngine {
    /// Builds the property graph from a store (Neo4j's import step).
    pub fn build(store: &EventStore) -> Self {
        let n = store.entities().len();
        let mut g = GraphEngine {
            out: vec![Vec::new(); n],
            incoming: vec![Vec::new(); n],
            edges: Vec::new(),
            max_intermediate: 4_000_000,
        };
        store.for_each_event(&mut |e| {
            let idx = g.edges.len() as u32;
            g.edges.push(*e);
            g.out[e.subject.index()].push(idx);
            g.incoming[e.object.index()].push(idx);
        });
        g
    }

    /// Number of relationships in the graph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Parses and executes AIQL text with graph-traversal semantics.
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
                let tuples = self.match_tuples(store, &a);
                crate::naive::project(store, &a, &tuples)
            }
            Query::Dependency(d) => {
                let m = aiql_lang::dependency_to_multievent(d)?;
                self.execute(store, &Query::Multievent(m))
            }
            Query::Anomaly(anom) => {
                let a = analyze_anomaly(anom, store)?;
                let tuples = self.match_tuples(store, &a.base);
                crate::naive::run_anomaly_over_tuples_naive(store, &a, tuples)
            }
        }
    }

    /// Backtracking pattern matcher in source order.
    ///
    /// Structural (shared-variable) consistency prunes during traversal,
    /// but cross-relationship *value* predicates — the temporal relations —
    /// are evaluated in a filter over the completed matches, the way the
    /// era's Cypher planner places `WHERE e1.end_time <= e2.start_time`
    /// above the Expand operators. This is precisely why multi-step
    /// behaviors explode on the graph engine.
    fn match_tuples(&self, store: &EventStore, a: &AnalyzedMultievent) -> Vec<Tuple> {
        let mut out = Vec::new();
        let mut tuple = Tuple {
            events: vec![None; a.patterns.len()],
            vars: vec![None; a.vars.len()],
        };
        self.backtrack(store, a, 0, &mut tuple, &mut out);
        out.retain(|t| temporal_post_filter(a, t));
        out
    }

    fn backtrack(
        &self,
        store: &EventStore,
        a: &AnalyzedMultievent,
        idx: usize,
        tuple: &mut Tuple,
        out: &mut Vec<Tuple>,
    ) {
        if out.len() >= self.max_intermediate {
            return;
        }
        if idx == a.patterns.len() {
            out.push(tuple.clone());
            return;
        }
        let p = &a.patterns[idx];
        // Candidate relationships: adjacency expansion when an endpoint is
        // bound, otherwise a full relationship scan (no join support).
        let candidates: &[u32] = if let Some(id) = tuple.vars[p.subject] {
            &self.out[id.index()]
        } else if let Some(id) = tuple.vars[p.object] {
            &self.incoming[id.index()]
        } else {
            &[]
        };
        let full_scan;
        let candidates: Box<dyn Iterator<Item = &Event>> =
            if tuple.vars[p.subject].is_some() || tuple.vars[p.object].is_some() {
                Box::new(candidates.iter().map(|&i| &self.edges[i as usize]))
            } else {
                full_scan = &self.edges;
                Box::new(full_scan.iter())
            };
        for e in candidates {
            // Every predicate is evaluated per visited relationship (no
            // posting lists); structural consistency prunes the traversal.
            if !event_satisfies_pattern(store, a, idx, e) || !binds_consistently(a, idx, e, tuple) {
                continue;
            }
            let prev_s = tuple.vars[p.subject];
            let prev_o = tuple.vars[p.object];
            tuple.events[idx] = Some(*e);
            tuple.vars[p.subject] = Some(e.subject);
            tuple.vars[p.object] = Some(e.object);
            self.backtrack(store, a, idx + 1, tuple, out);
            tuple.events[idx] = None;
            tuple.vars[p.subject] = prev_s;
            tuple.vars[p.object] = prev_o;
        }
    }
}

/// The deferred temporal filter over a complete match.
fn temporal_post_filter(a: &AnalyzedMultievent, tuple: &Tuple) -> bool {
    for rel in &a.temporal {
        let (l, r, bound) = match &rel.op {
            TemporalOp::Before(b) => (rel.left, rel.right, b),
            TemporalOp::After(b) => (rel.right, rel.left, b),
        };
        let (Some(left_event), Some(right_event)) = (tuple.events[l], tuple.events[r]) else {
            continue;
        };
        if left_event.end_time > right_event.start_time {
            return false;
        }
        if let Some(b) = bound {
            if (right_event.start_time - left_event.end_time) > *b {
                return false;
            }
        }
    }
    true
}

/// Convenience: builds the graph and reports basic shape (used by benches
/// to exclude import cost from query timings).
pub fn import_stats(store: &EventStore) -> (usize, usize) {
    let g = GraphEngine::build(store);
    let nodes = store.entities().len();
    (nodes, g.edge_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_engine::{Engine, EngineConfig};
    use aiql_model::{AgentId, Operation, Timestamp};
    use aiql_storage::{EntitySpec, RawEvent};

    fn test_store() -> EventStore {
        let mut s = EventStore::default();
        let mut raws = Vec::new();
        for i in 0..150i64 {
            raws.push(RawEvent::instant(
                AgentId((i % 2) as u32),
                match i % 3 {
                    0 => Operation::Write,
                    1 => Operation::Read,
                    _ => Operation::Start,
                },
                EntitySpec::process(100 + (i % 4) as u32, &format!("exe{}.bin", i % 4), "u"),
                match i % 3 {
                    0 | 1 => EntitySpec::file(&format!("/data/f{}", i % 5), "u"),
                    _ => EntitySpec::process(200 + (i % 6) as u32, &format!("child{}", i % 6), "u"),
                },
                Timestamp::from_secs(i * 45),
                (i * 7) as u64,
            ));
        }
        s.ingest_all(&raws);
        s
    }

    #[test]
    fn graph_matches_optimized_engine() {
        let store = test_store();
        let graph = GraphEngine::build(&store);
        let engine = Engine::new(EngineConfig::default());
        for src in [
            r#"proc p["%exe1.bin"] read file f as e return distinct p, f"#,
            r#"proc p1 write file f as e1
               proc p2 read file f as e2
               with e1 before e2
               return distinct p1, p2, f"#,
            r#"proc p0 start proc p1 as e0
               proc p1 write file f as e1
               return distinct p0, p1, f"#,
        ] {
            let fast = engine.execute_text(&store, src).unwrap().normalized();
            let slow = graph.execute_text(&store, src).unwrap().normalized();
            assert_eq!(fast.rows, slow.rows, "query {src}");
        }
    }

    #[test]
    fn graph_builds_expected_shape() {
        let store = test_store();
        let (nodes, edges) = import_stats(&store);
        assert_eq!(nodes, store.entities().len());
        assert_eq!(edges as u64, store.event_count());
    }

    #[test]
    fn graph_handles_dependency_query() {
        let store = test_store();
        let graph = GraphEngine::build(&store);
        let engine = Engine::new(EngineConfig::default());
        let src = r#"forward: proc p1["%exe0.bin"] ->[write] file f1 <-[read] proc p2
                     return p1, p2, f1"#;
        let fast = engine.execute_text(&store, src).unwrap().normalized();
        let slow = graph.execute_text(&store, src).unwrap().normalized();
        assert_eq!(fast.rows, slow.rows);
    }

    #[test]
    fn graph_handles_anomaly_query() {
        let store = test_store();
        let graph = GraphEngine::build(&store);
        let engine = Engine::new(EngineConfig::default());
        let src = r#"window = 10 min, step = 5 min
                     proc p write file f as evt
                     return p, count(evt.amount) as n
                     group by p
                     having n >= 1"#;
        let fast = engine.execute_text(&store, src).unwrap().normalized();
        let slow = graph.execute_text(&store, src).unwrap().normalized();
        assert_eq!(fast.rows, slow.rows);
    }
}
