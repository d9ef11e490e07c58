//! Query plan explanation.
//!
//! `EXPLAIN` for AIQL: how the engine will run a query, without running
//! it. [`crate::Engine::explain`] dispatches like execution and plans
//! through the executor's own builder (`MultieventExec::build`): the same
//! resolution, estimates and pruning-power order (through the engine's
//! plan cache), and the same operator tree. `plan` walks that tree once
//! and asks each operator to describe the decision its `run` makes
//! ([`crate::op::Operator::describe`]); nothing here re-derives a choice
//! from the configuration, so what is shown is what runs. An anomaly
//! query's plan is rooted at its window loop. The web UI's
//! execution-status panel surfaces this; the `repl` example exposes it as
//! `:explain`.

use std::fmt::Write as _;

use aiql_lang::Query;
use aiql_storage::EventStore;

use crate::analyze::AnalyzedAnomaly;
use crate::exec::MultieventExec;
use crate::governor::ExecBudget;
use crate::op::{ExecEnv, PatternScan, PlanNode, SemiJoinNarrow};

/// The plan of one pattern's data query.
#[derive(Debug, Clone)]
pub struct PatternPlan {
    /// Pattern index in source order.
    pub index: usize,
    /// Event variable name.
    pub name: String,
    /// Execution position (0 = first).
    pub position: usize,
    /// Estimated matching events from storage statistics.
    pub estimate: usize,
    /// Size of the subject id set the scan pushes down (`None` = none:
    /// unconstrained, or checked per row without entity pushdown).
    pub subject_candidates: Option<usize>,
    /// Size of the object id set the scan pushes down.
    pub object_candidates: Option<usize>,
    /// Hypertable partitions the data query will touch.
    pub partitions: usize,
    /// Columnar segments across those partitions (== `partitions` when the
    /// store is fully compacted; higher means fragmented layouts).
    pub segments: usize,
}

/// One node of the physical operator tree, as `EXPLAIN` renders it: a
/// node of the tree [`crate::op::plan_tree`] builds for execution.
#[derive(Debug, Clone)]
pub struct OpPlanNode {
    /// Operator kind (`PatternScan`, `SemiJoinNarrow`, `TemporalJoin`,
    /// `Project`, `Aggregate`) — matches [`crate::op::OpStat::kind`] — or
    /// `SlidingWindow`, an anomaly query's window loop.
    pub kind: &'static str,
    /// Pattern index (source order) for per-pattern operators — matches
    /// [`crate::op::OpStat::pattern`].
    pub pattern: Option<usize>,
    /// The operator's own description of what it will do
    /// ([`crate::op::Operator::describe`]).
    pub detail: String,
    /// Child operators (executed before this one).
    pub children: Vec<OpPlanNode>,
}

impl OpPlanNode {
    /// The description of an operator tree, node for node.
    fn of(node: &PlanNode, env: &ExecEnv<'_>) -> Self {
        OpPlanNode {
            kind: node.op.kind(),
            pattern: node.op.pattern(),
            detail: node.op.describe(env),
            children: node.children.iter().map(|c| Self::of(c, env)).collect(),
        }
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let _ = writeln!(out, "  {}{} {}", "  ".repeat(depth), self.kind, self.detail);
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// A full query plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Query kind (`multievent`, `dependency`, `anomaly`).
    pub kind: &'static str,
    /// Whether a dependency query was rewritten to multievent form.
    pub rewritten: bool,
    /// Per-pattern plans, in source order.
    pub patterns: Vec<PatternPlan>,
    /// Number of temporal relations.
    pub temporal_relations: usize,
    /// Whether pruning-power scheduling is active.
    pub pruning_priority: bool,
    /// The configured per-query fan-out (`EngineConfig::parallelism`).
    pub parallelism: usize,
    /// Governor limits in effect (`None` when the query runs ungoverned):
    /// rendered summary of deadline / memory budget / partial-results mode.
    pub governor: Option<String>,
    /// Novelty-overlay state of the store snapshot being planned against
    /// (`None` when every partition is fully sealed): recently-ingested
    /// rows the scans will read from open overlays, and how many overlay
    /// flushes the store has absorbed.
    pub overlay: Option<String>,
    /// The physical operator tree the executor will run.
    pub operators: OpPlanNode,
}

impl QueryPlan {
    /// Renders the plan as indented text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} query{} | {} temporal relation(s) | pruning priority: {} | parallelism: {}",
            self.kind,
            if self.rewritten {
                " (rewritten to multievent)"
            } else {
                ""
            },
            self.temporal_relations,
            if self.pruning_priority { "on" } else { "off" },
            self.parallelism,
        );
        let mut by_position: Vec<&PatternPlan> = self.patterns.iter().collect();
        by_position.sort_by_key(|p| p.position);
        for p in by_position {
            let fmt_c = |c: Option<usize>| match c {
                Some(n) => n.to_string(),
                None => "*".to_string(),
            };
            let _ = writeln!(
                out,
                "  #{} {:<10} est {:>8} events | subjects {:>6} | objects {:>6} | {} partition(s) / {} segment(s)",
                p.position + 1,
                p.name,
                p.estimate,
                fmt_c(p.subject_candidates),
                fmt_c(p.object_candidates),
                p.partitions,
                p.segments,
            );
        }
        if let Some(gov) = &self.governor {
            let _ = writeln!(out, "governor: {gov}");
        }
        if let Some(overlay) = &self.overlay {
            let _ = writeln!(out, "novelty overlay: {overlay}");
        }
        let _ = writeln!(out, "physical operator tree:");
        self.operators.render_into(&mut out, 0);
        out
    }
}

/// The plan `exec` would run for `query`: its own environment and
/// operator tree, described operator by operator, under a `SlidingWindow`
/// root for an anomaly query (`windows`). `budget` is the one `exec` runs
/// under.
pub(crate) fn plan(
    exec: &MultieventExec<'_>,
    query: &Query,
    windows: Option<&AnalyzedAnomaly>,
    budget: &ExecBudget,
) -> QueryPlan {
    let kind = match query {
        Query::Multievent(_) => "multievent",
        Query::Dependency(_) => "dependency",
        Query::Anomaly(_) => "anomaly",
    };
    let (env, tree) = exec.build(windows.is_none());
    let mut operators = OpPlanNode::of(&tree, &env);
    if let Some(an) = windows {
        operators = OpPlanNode {
            kind: "SlidingWindow",
            pattern: None,
            detail: crate::anomaly::describe(an),
            children: vec![operators],
        };
    }
    let order = &env.ctx.plan.order;
    let patterns = (env.a.patterns.iter())
        .map(|p| {
            let filter = SemiJoinNarrow::unbound_filter(&env, p.index);
            let (partitions, segments) = PatternScan::layout(&env, &filter);
            PatternPlan {
                index: p.index,
                name: p.name.clone(),
                position: order.iter().position(|&i| i == p.index).unwrap_or(p.index),
                estimate: env.ctx.plan.estimates[p.index],
                subject_candidates: filter.subjects.as_ref().map(|s| s.len()),
                object_candidates: filter.objects.as_ref().map(|s| s.len()),
                partitions,
                segments,
            }
        })
        .collect();
    QueryPlan {
        kind,
        rewritten: kind == "dependency",
        patterns,
        temporal_relations: env.a.temporal.len(),
        pruning_priority: env.config.ablation.prioritize_pruning,
        parallelism: env.config.parallelism,
        governor: governor_summary(budget),
        overlay: overlay_summary(env.store),
        operators,
    }
}

/// Renders the store's novelty-overlay state for `EXPLAIN`, or `None` when
/// every partition is fully sealed (the overlay-off steady state).
fn overlay_summary(store: &EventStore) -> Option<String> {
    let stats = store.stats();
    if stats.novelty_events == 0 {
        return None;
    }
    Some(format!(
        "{} unsealed row(s) across open overlays | {} flush(es) absorbed",
        stats.novelty_events, stats.novelty_flushes
    ))
}

/// Renders the budget's limits for `EXPLAIN`, or `None` when the query runs
/// ungoverned (the zero-overhead path).
fn governor_summary(budget: &ExecBudget) -> Option<String> {
    if !budget.is_limited() {
        return None;
    }
    let mut parts = Vec::new();
    if let Some(d) = budget.deadline {
        parts.push(format!("deadline {}ms", d.as_millis()));
    }
    if let Some(bytes) = budget.memory_bytes {
        parts.push(format!("memory {bytes} bytes"));
    }
    parts.push(match budget.partial_results {
        true => "on trip: partial results".to_string(),
        false => "on trip: error".to_string(),
    });
    Some(parts.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ablation, Engine, EngineConfig};
    use crate::error::EngineError;
    use aiql_lang::parse_query;
    use aiql_model::{AgentId, Operation, Timestamp};
    use aiql_storage::{EntitySpec, RawEvent};

    /// The plan of `q` under `config` and `budget`.
    fn explain(
        store: &EventStore,
        q: &Query,
        config: &EngineConfig,
        budget: &ExecBudget,
    ) -> Result<QueryPlan, EngineError> {
        Engine::new(config.clone()).explain(store, q, budget)
    }

    /// The plan of a query run without a budget (`Engine::execute`).
    fn unbudgeted(store: &EventStore, q: &Query, config: &EngineConfig) -> QueryPlan {
        explain(store, q, config, &ExecBudget::unlimited()).unwrap()
    }

    fn store() -> EventStore {
        let mut s = EventStore::default();
        let mut raws = Vec::new();
        for i in 0..300 {
            raws.push(RawEvent::instant(
                AgentId(1),
                Operation::Write,
                EntitySpec::process(1, "sqlservr.exe", "mssql"),
                EntitySpec::file(&format!("/data/f{i}"), "mssql"),
                Timestamp::from_secs(i * 60),
                100,
            ));
        }
        raws.push(RawEvent::instant(
            AgentId(1),
            Operation::Start,
            EntitySpec::process(2, "cmd.exe", "admin"),
            EntitySpec::process(3, "osql.exe", "admin"),
            Timestamp::from_secs(10),
            0,
        ));
        s.ingest_all(&raws);
        s
    }

    #[test]
    fn selective_pattern_is_scheduled_first_in_plan() {
        let store = store();
        let q = parse_query(
            r#"proc p3 write file f1 as big
               proc p1["%cmd.exe"] start proc p2["%osql.exe"] as rare
               return p1"#,
        )
        .unwrap();
        let plan = unbudgeted(&store, &q, &EngineConfig::default());
        let rare = plan.patterns.iter().find(|p| p.name == "rare").unwrap();
        let big = plan.patterns.iter().find(|p| p.name == "big").unwrap();
        assert_eq!(rare.position, 0, "rare pattern must execute first");
        assert!(rare.estimate < big.estimate);
        assert_eq!(rare.subject_candidates, Some(1));
        assert!(big.subject_candidates.is_none());
    }

    #[test]
    fn dependency_plans_are_marked_rewritten() {
        let store = store();
        let q = parse_query(r#"forward: proc p1["%cmd.exe"] ->[start] proc p2 return p2"#).unwrap();
        let plan = unbudgeted(&store, &q, &EngineConfig::default());
        assert!(plan.rewritten);
        assert_eq!(plan.kind, "dependency");
        assert_eq!(plan.temporal_relations, 0);
    }

    #[test]
    fn render_is_readable() {
        let store = store();
        let q = parse_query(
            r#"proc p1["%cmd.exe"] start proc p2 as e1
               proc p2 write file f as e2
               with e1 before e2
               return p1, f"#,
        )
        .unwrap();
        let plan = unbudgeted(&store, &q, &EngineConfig::default());
        let text = plan.render();
        assert!(text.contains("multievent query"));
        assert!(text.contains("1 temporal relation"));
        assert!(text.contains("#1"));
        assert!(text.contains("e1"));
    }

    /// The demo and case-study scenario stores at test scale, each with its
    /// catalog (figs. 4 and 5): every query id with its parsed query.
    fn catalogs() -> Vec<(EventStore, Vec<(&'static str, Query)>)> {
        use aiql_sim::{build_store, queries, scenario, Scale};
        let parsed = |catalog: Vec<queries::CatalogQuery>| {
            (catalog.into_iter())
                .map(|c| (c.id, parse_query(&c.aiql).unwrap()))
                .collect()
        };
        let store = |s| build_store(&s, aiql_storage::StoreConfig::default());
        vec![
            (
                store(scenario::scenario_demo(Scale::test())),
                parsed(queries::demo_queries()),
            ),
            (
                store(scenario::scenario_case_study(Scale::test())),
                parsed(queries::case_study_queries()),
            ),
        ]
    }

    /// What a run of `q` under `config` executed: each operator's
    /// `(kind, pattern)` in execution order, and the scan order. An anomaly
    /// query's are its fetch's, the join subtree under the window loop.
    fn executed(
        store: &EventStore,
        q: &Query,
        config: &EngineConfig,
    ) -> (Vec<(&'static str, Option<usize>)>, Vec<usize>) {
        use crate::analyze::{analyze_anomaly, analyze_multievent};
        let (a, anomaly) = match q {
            Query::Multievent(m) => (analyze_multievent(m, store).unwrap(), false),
            Query::Dependency(d) => {
                let m = aiql_lang::dependency_to_multievent(d).unwrap();
                (analyze_multievent(&m, store).unwrap(), false)
            }
            Query::Anomaly(an) => (analyze_anomaly(an, store).unwrap().base, true),
        };
        let exec = MultieventExec::new(store, &a, config);
        let stats = match anomaly {
            true => exec.match_tuples().unwrap().2,
            false => exec.run_with_stats().unwrap().1,
        };
        (
            stats.ops.iter().map(|o| (o.kind, o.pattern)).collect(),
            stats.order,
        )
    }

    /// Every node of a plan tree in post-order: children before their
    /// parent, the order the driver runs them in.
    fn post_order(node: &OpPlanNode) -> Vec<&OpPlanNode> {
        let mut out: Vec<&OpPlanNode> = node.children.iter().flat_map(post_order).collect();
        out.push(node);
        out
    }

    /// The plan's patterns in scan order.
    fn scan_order(plan: &QueryPlan) -> Vec<usize> {
        let mut by_position: Vec<&PatternPlan> = plan.patterns.iter().collect();
        by_position.sort_by_key(|p| p.position);
        by_position.iter().map(|p| p.index).collect()
    }

    /// EXPLAIN under each of the paper's four scheduling switches off, and
    /// under all five off, is the plan that runs: its scan order is the
    /// run's, and no operator claims an optimization the configuration
    /// turned off. The motivating case: with entity pushdown off, the
    /// selective `rare` scan strips its id sets, so it must not name entity
    /// postings, nor count subjects it does not push down.
    #[test]
    fn explain_tells_the_truth_under_every_ablation() {
        let on = Ablation::default();
        let ablated = |ablation| EngineConfig {
            ablation,
            ..EngineConfig::default()
        };
        let configs = [
            ("default", EngineConfig::default()),
            (
                "source order",
                ablated(Ablation {
                    prioritize_pruning: false,
                    ..on
                }),
            ),
            (
                "no entity pushdown",
                ablated(Ablation {
                    entity_pushdown: false,
                    ..on
                }),
            ),
            (
                "no semi-join pushdown",
                ablated(Ablation {
                    semi_join_pushdown: false,
                    ..on
                }),
            ),
            (
                "no temporal narrowing",
                ablated(Ablation {
                    temporal_narrowing: false,
                    ..on
                }),
            ),
            ("unoptimized", EngineConfig::unoptimized()),
        ];
        let rare = parse_query(
            r#"(at "03/19/2018") agentid = 2
               proc p3 write file f1 as big
               proc p1["%cmd.exe"] start proc p2["%osql.exe"] as rare
               return p1"#,
        )
        .unwrap();
        let mut catalogs = catalogs();
        catalogs[0].1.push(("rare", rare));
        for (name, config) in &configs {
            // What the default plan shows at least once across the catalogs.
            let mut shown = [false; 3];
            for (store, queries) in &catalogs {
                for (id, q) in queries {
                    let plan = explain(store, q, config, &ExecBudget::unlimited()).unwrap();
                    let (_, order) = executed(store, q, config);
                    assert_eq!(scan_order(&plan), order, "{name} {id}: scan order");
                    let nodes = post_order(&plan.operators);
                    let details = |kind: &'static str| {
                        (nodes.iter().filter(move |n| n.kind == kind)).map(|n| n.detail.as_str())
                    };
                    let claims = [
                        details("PatternScan").any(|d| d.contains("entity-postings")),
                        details("SemiJoinNarrow").any(|d| d.contains("bindings")),
                        details("SemiJoinNarrow").any(|d| d.contains("window narrowed")),
                    ];
                    let on = [
                        config.ablation.entity_pushdown,
                        config.ablation.semi_join_pushdown,
                        config.ablation.temporal_narrowing,
                    ];
                    for (k, claim) in claims.iter().enumerate() {
                        assert!(on[k] || !claim, "{name} {id}: {}", plan.render());
                        shown[k] |= claim;
                    }
                    if *id != "rare" {
                        continue;
                    }
                    let rare = plan.patterns.iter().find(|p| p.name == "rare").unwrap();
                    let scan = details("PatternScan")
                        .find(|d| d.starts_with("rare"))
                        .unwrap();
                    let path = match config.ablation.entity_pushdown {
                        true => "| path entity-postings∩op-postings |",
                        false => "| path op-postings |",
                    };
                    assert!(scan.contains(path), "{name}: {scan}");
                    let pushed = rare.subject_candidates.is_some_and(|n| n > 0);
                    assert_eq!(pushed, config.ablation.entity_pushdown, "{name}");
                }
            }
            if *name == "default" {
                assert_eq!(
                    shown, [true; 3],
                    "the default plan shows every optimization"
                );
            }
        }
    }

    #[test]
    fn operator_tree_matches_execution_shape() {
        let store = store();
        let q = parse_query(
            r#"proc p1["%cmd.exe"] start proc p2 as e1
               proc p2 write file f as e2
               with e1 before e2
               return p1, f, count(e2.amount) as n
               group by p1, f"#,
        )
        .unwrap();
        let config = EngineConfig {
            parallelism: 8,
            ..EngineConfig::default()
        };
        let plan = unbudgeted(&store, &q, &config);
        // Root: aggregation; one join; one scan chain per pattern, each
        // with its narrowing child — the exact shape op::plan_tree builds.
        assert_eq!(plan.operators.kind, "Aggregate");
        assert_eq!(plan.operators.children.len(), 1);
        let join = &plan.operators.children[0];
        assert_eq!(join.kind, "TemporalJoin");
        // The seed's size is a run-time fact: the label carries the floor
        // (more than one 4096-tuple run) below which this plan runs serial,
        // and the eight workers asked for.
        assert!(join
            .detail
            .contains("demand-driven blocked(4096) drive, parallel ×8 worker(s) when seed ≥ 4097"));
        assert_eq!(join.children.len(), 2);
        for scan in &join.children {
            assert_eq!(scan.kind, "PatternScan");
            assert_eq!(scan.children.len(), 1);
            assert_eq!(scan.children[0].kind, "SemiJoinNarrow");
        }
        // The selective start pattern runs first and uses entity postings;
        // the dependent write pattern receives its bindings.
        assert!(join.children[0].detail.contains("e1"));
        assert!(join.children[0].detail.contains("entity-postings"));
        assert!(join.children[1].children[0]
            .detail
            .contains("bindings from e1"));
        let text = plan.render();
        assert!(text.contains("physical operator tree:"));
        assert!(text.contains("TemporalJoin"));
        // Over both catalogs, optimized and not, EXPLAIN's tree is the one
        // that ran, operator for operator in execution order (an anomaly
        // query's join subtree is its fetch).
        for config in [EngineConfig::default(), EngineConfig::unoptimized()] {
            for (store, queries) in &catalogs() {
                for (id, q) in queries {
                    let plan = unbudgeted(store, q, &config);
                    let tree = match plan.operators.kind {
                        "SlidingWindow" => &plan.operators.children[0],
                        _ => &plan.operators,
                    };
                    let shown: Vec<_> = (post_order(tree).iter())
                        .map(|n| (n.kind, n.pattern))
                        .collect();
                    assert_eq!(shown, executed(store, q, &config).0, "{id}");
                }
            }
        }
    }

    #[test]
    fn join_node_names_the_projection_sink() {
        let store = store();
        let join_detail = |ret: &str, config: &EngineConfig| {
            let q = parse_query(&format!(
                "proc p1 start proc p2 as e1 proc p2 write file f as e2 with e1 before e2 {ret}"
            ))
            .unwrap();
            let plan = unbudgeted(&store, &q, config);
            plan.operators.children[0].detail.clone()
        };
        let default = EngineConfig::default();
        assert!(join_detail("return count(e2.amount)", &default).ends_with("→ sink: count"));
        assert!(join_detail(
            "return p1, sum(e2.amount), avg(e2.amount) group by p1",
            &default
        )
        .ends_with("→ sink: sum, avg by (p1)"));
        assert!(join_detail("return distinct p1, f", &default).ends_with("→ sink: distinct(p1, f)"));
        assert!(join_detail("return p1, e2.amount as amt", &default).ends_with("→ sink: rows"));
        // A name the schema lacks has no plan: the same typed error the
        // query gets, before any scan.
        let q =
            parse_query("proc p1 start proc p2 as e1 proc p2 write file f as e2 return e2.bogus")
                .unwrap();
        let err = explain(&store, &q, &default, &ExecBudget::unlimited()).unwrap_err();
        assert!(matches!(err, EngineError::Model(_)), "{err}");
    }

    /// An anomaly query's root is the window loop that runs, with its
    /// shape; the join under it feeds the loop, not a projection sink.
    #[test]
    fn anomaly_root_names_the_sliding_window() {
        let store = store();
        let plan = |src: &str| {
            let q = parse_query(src).unwrap();
            unbudgeted(&store, &q, &EngineConfig::default())
        };
        let day = plan(
            r#"(at "01/01/1970") window = 1 min, step = 10 sec
               proc p write file f as e
               return p, f, sum(e.amount) as amt group by p, f
               having amt > 2 * (amt + amt[2] + amt[1] + amt[1]) / 4"#,
        );
        assert_eq!(day.kind, "anomaly");
        assert_eq!(day.operators.kind, "SlidingWindow");
        assert_eq!(
            day.operators.detail,
            "1 min / step 10 sec | 8640 window(s) | history lags [1, 2] | group by 2"
        );
        let join = &day.operators.children[0];
        assert_eq!(join.kind, "TemporalJoin");
        assert!(!join.detail.contains("sink"), "{}", join.detail);
        assert!(day.render().contains("SlidingWindow 1 min / step 10 sec"));

        let span = plan(
            "window = 5 min, step = 5 min proc p write file f as e \
             return distinct count(e.amount) as n",
        );
        assert_eq!(
            span.operators.detail,
            "5 min / step 5 min | windows over the data's span | distinct"
        );
    }

    #[test]
    fn overlay_state_is_surfaced_and_sealed_stores_stay_quiet() {
        // Fully sealed store: no overlay line.
        let sealed = store();
        let q = parse_query(r#"proc p write file f as e return p, f"#).unwrap();
        let plan = unbudgeted(&sealed, &q, &EngineConfig::default());
        assert!(plan.overlay.is_none());
        assert!(!plan.render().contains("novelty overlay"));
        // A store with unsealed overlay rows names them in the plan.
        let mut live = EventStore::new(aiql_storage::StoreConfig {
            batch_size: 4,
            dedup: false,
            novelty_flush_rows: 1 << 20,
            ..aiql_storage::StoreConfig::default()
        });
        let raws: Vec<RawEvent> = (0..8)
            .map(|i| {
                RawEvent::instant(
                    AgentId(1),
                    Operation::Write,
                    EntitySpec::process(1, "w.exe", "u"),
                    EntitySpec::file(&format!("/f{i}"), "u"),
                    Timestamp::from_secs(i),
                    1,
                )
            })
            .collect();
        live.ingest_all(&raws);
        assert!(live.stats().novelty_events > 0);
        let plan = unbudgeted(&live, &q, &EngineConfig::default());
        let overlay = plan.overlay.as_deref().expect("overlay line present");
        assert!(overlay.contains("unsealed row(s)"));
        assert!(plan.render().contains("novelty overlay:"));
    }

    #[test]
    fn serial_config_renders_serial_join() {
        let store = store();
        let q = parse_query(r#"proc p write file f as e return p, f"#).unwrap();
        let config = EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        };
        let plan = unbudgeted(&store, &q, &config);
        assert_eq!(plan.operators.kind, "Project");
        assert!(plan.operators.children[0]
            .detail
            .contains("drive, serial |"));
    }

    /// EXPLAIN renders the plan under the budget it is given: the governor
    /// line names its limits and the join node its tuple cap, while the
    /// drive is the same under every budget — a memory budget runs the
    /// parallel drive too.
    #[test]
    fn memory_budget_keeps_the_parallel_drive() {
        let store = store();
        let q = parse_query(
            r#"proc p1 start proc p2 as e1
               proc p2 write file f as e2
               with e1 before e2
               return p1, f"#,
        )
        .unwrap();
        let config = EngineConfig {
            parallelism: 8,
            ..EngineConfig::default()
        };
        let plan = |budget: &ExecBudget| explain(&store, &q, &config, budget).unwrap();
        let join_detail = |budget: &ExecBudget| plan(budget).operators.children[0].detail.clone();
        let parallel = "drive, parallel ×8 worker(s) when seed ≥ 4097 | tuple cap 4000000";
        let unlimited = ExecBudget::unlimited();
        assert!(join_detail(&unlimited).contains(parallel));
        assert_eq!(plan(&unlimited).governor, None);
        let budgeted = ExecBudget::unlimited().with_memory_bytes(1 << 20);
        assert!(join_detail(&budgeted).contains(parallel));
        assert_eq!(
            plan(&budgeted).governor.as_deref(),
            Some("memory 1048576 bytes | on trip: error")
        );
        let deadline = ExecBudget::unlimited()
            .with_deadline(std::time::Duration::from_millis(250))
            .with_partial_results(true);
        assert!(join_detail(&deadline).contains(parallel));
        assert_eq!(
            plan(&deadline).governor.as_deref(),
            Some("deadline 250ms | on trip: partial results")
        );
        // The cap is the budget's, and needs no governor.
        let capped = ExecBudget::unlimited().with_max_tuples(1000);
        assert!(join_detail(&capped).contains("| tuple cap 1000"));
        assert_eq!(plan(&capped).governor, None);
    }

    #[test]
    fn source_order_without_pruning_priority() {
        let store = store();
        let q = parse_query(
            r#"proc p3 write file f1 as big
               proc p1["%cmd.exe"] start proc p2["%osql.exe"] as rare
               return p1"#,
        )
        .unwrap();
        let mut config = EngineConfig::default();
        config.ablation.prioritize_pruning = false;
        let plan = unbudgeted(&store, &q, &config);
        let big = plan.patterns.iter().find(|p| p.name == "big").unwrap();
        assert_eq!(big.position, 0);
    }
}
