//! Query plan explanation.
//!
//! `EXPLAIN` for AIQL: shows how the engine will schedule a query — the
//! per-pattern data queries, their selectivity estimates, the resolved
//! entity-candidate set sizes, the partitions each scan touches, and the
//! join drive's fan-out — without running it. The web UI's
//! execution-status panel surfaces this; the `repl` example exposes it as
//! `:explain`.

use std::fmt::Write as _;

use aiql_lang::{Query, WindowSpec};
use aiql_model::TimeWindow;
use aiql_storage::EventStore;

use crate::analyze::{self, AnalyzedMultievent};
use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::governor::ExecBudget;
use crate::schedule;

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
    /// Resolved candidate-set size for the subject variable
    /// (`None` = unconstrained).
    pub subject_candidates: Option<usize>,
    /// Resolved candidate-set size for the object variable.
    pub object_candidates: Option<usize>,
    /// Hypertable partitions the data query will touch.
    pub partitions: usize,
    /// Columnar segments across those partitions (== `partitions` when the
    /// store is fully compacted; higher means fragmented layouts).
    pub segments: usize,
}

/// One node of the physical operator tree, as `EXPLAIN` renders it:
/// the same shape [`crate::op::query_tree`] assembles for execution.
#[derive(Debug, Clone)]
pub struct OpPlanNode {
    /// Operator kind (`PatternScan`, `SemiJoinNarrow`, `TemporalJoin`,
    /// `Project`, `Aggregate`) — matches [`crate::op::OpStat::kind`] — or
    /// `SlidingWindow`, an anomaly query's window loop.
    pub kind: &'static str,
    /// Human-readable operator detail (pattern, estimates, access path,
    /// fan-out).
    pub detail: String,
    /// Child operators (executed before this one).
    pub children: Vec<OpPlanNode>,
}

impl OpPlanNode {
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

/// Builds the execution plan for a query without executing it: the plan
/// `config` runs under `budget`, the budget the query would execute with.
pub fn explain(
    store: &EventStore,
    query: &Query,
    config: &EngineConfig,
    budget: &ExecBudget,
) -> Result<QueryPlan, EngineError> {
    let (analyzed, kind, rewritten): (AnalyzedMultievent, &'static str, bool) = match query {
        Query::Multievent(m) => (analyze::analyze_multievent(m, store)?, "multievent", false),
        Query::Dependency(d) => {
            let m = aiql_lang::dependency_to_multievent(d)?;
            (analyze::analyze_multievent(&m, store)?, "dependency", true)
        }
        Query::Anomaly(a) => {
            let an = analyze::analyze_anomaly(a, store)?;
            (an.base, "anomaly", false)
        }
    };
    let window = match query {
        Query::Anomaly(a) => a.globals.window,
        _ => None,
    };
    let resolved = schedule::resolve_vars(&analyzed, store);
    let plan = schedule::plan(&analyzed, store, &resolved, config.prioritize_pruning);
    let patterns: Vec<PatternPlan> = analyzed
        .patterns
        .iter()
        .map(|p| {
            let filter = schedule::base_filter(&analyzed, p.index, &resolved);
            let keys = store.partitions_for(&filter);
            PatternPlan {
                index: p.index,
                name: p.name.clone(),
                position: plan
                    .order
                    .iter()
                    .position(|&i| i == p.index)
                    .expect("pattern scheduled"),
                estimate: plan.estimates[p.index],
                subject_candidates: resolved[p.subject].as_ref().map(Vec::len),
                object_candidates: resolved[p.object].as_ref().map(Vec::len),
                segments: segment_count(store, &keys),
                partitions: keys.len(),
            }
        })
        .collect();
    let operators = operator_tree(store, &analyzed, &resolved, &plan, config, budget, window);
    Ok(QueryPlan {
        kind,
        rewritten,
        patterns,
        temporal_relations: analyzed.temporal.len(),
        pruning_priority: config.prioritize_pruning,
        parallelism: config.parallelism,
        governor: governor_summary(budget),
        overlay: overlay_summary(store),
        operators,
    })
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

/// Total columnar segments across a partition-key list — the layout
/// density `EXPLAIN` reports next to the partition fan-out.
fn segment_count(store: &EventStore, keys: &[aiql_storage::PartitionKey]) -> usize {
    keys.iter()
        .map(|&k| store.partition(k).map_or(0, |p| p.segment_count()))
        .sum()
}

/// Builds the `EXPLAIN` rendering of the physical operator tree — the same
/// shape [`crate::op::query_tree`] assembles for execution, annotated with
/// estimates, chosen access paths, and the join drive's planned fan-out.
fn operator_tree(
    store: &EventStore,
    a: &AnalyzedMultievent,
    resolved: &schedule::ResolvedVars,
    plan: &schedule::Schedule,
    config: &EngineConfig,
    budget: &ExecBudget,
    window: Option<WindowSpec>,
) -> OpPlanNode {
    let scans: Vec<OpPlanNode> = plan
        .order
        .iter()
        .enumerate()
        .map(|(position, &i)| {
            let p = &a.patterns[i];
            let filter = schedule::base_filter(a, i, resolved);
            let keys = store.partitions_for(&filter);
            let partitions = keys.len();
            let segments = segment_count(store, &keys);
            // Which of this pattern's variables earlier patterns will have
            // bound by the time it scans (the semi-join inputs).
            let earlier = &plan.order[..position];
            let mut narrowed_by: Vec<&str> = Vec::new();
            if config.semi_join_pushdown {
                for &e in earlier {
                    let ep = &a.patterns[e];
                    if [ep.subject, ep.object]
                        .iter()
                        .any(|v| *v == p.subject || *v == p.object)
                    {
                        narrowed_by.push(ep.name.as_str());
                    }
                }
            }
            let window_narrowed = config.temporal_narrowing
                && a.temporal.iter().any(|t| {
                    (t.left == i && earlier.contains(&t.right))
                        || (t.right == i && earlier.contains(&t.left))
                });
            let mut semi_detail = if narrowed_by.is_empty() {
                "pass-through".to_string()
            } else {
                format!("bindings from {}", narrowed_by.join(", "))
            };
            if window_narrowed {
                semi_detail.push_str(" | window narrowed");
            }
            OpPlanNode {
                kind: "PatternScan",
                detail: format!(
                    "{} est {} candidates | path {} | {} partition(s) / {} segment(s)",
                    p.name,
                    plan.estimates[i],
                    store.access_path(&filter),
                    partitions,
                    segments,
                ),
                children: vec![OpPlanNode {
                    kind: "SemiJoinNarrow",
                    detail: format!("{} {}", p.name, semi_detail),
                    children: Vec::new(),
                }],
            }
        })
        .collect();
    // The drive that will run, whatever the budget: runs fan out on
    // `parallelism` threads when the seed pattern's candidates — known only
    // at run time — fill more than one run; below that floor the same plan
    // runs serial (the run count caps the threads again at run time).
    let drive = if config.parallelism > 1 {
        format!(
            "parallel ×{} worker(s) when seed ≥ {}",
            config.parallelism,
            crate::op::join::parallel_seed_floor(config)
        )
    } else {
        "serial".to_string()
    };
    // The probe-reduction layers in effect (the time search only runs when
    // a temporal relation exists to search by; sideways filters only when
    // there is a second pattern to filter for).
    let mut layers: Vec<&str> = Vec::new();
    if !a.temporal.is_empty() {
        layers.push("time-sorted runs");
    }
    if a.patterns.len() >= 2 {
        layers.push("sideways filters");
    }
    // The drive pushes its tuples straight into the projection sink (an
    // anomaly query's join feeds the window loop instead); name what it
    // retains.
    let sink =
        (window.is_none()).then(|| format!(" → sink: {}", crate::op::project::sink_label(a)));
    let join = OpPlanNode {
        kind: "TemporalJoin",
        detail: format!(
            "{} pattern(s), {} temporal relation(s) | demand-driven blocked({}) drive, {} | tuple cap {}{}{}",
            a.patterns.len(),
            a.temporal.len(),
            config.join_block_tuples,
            drive,
            budget.max_tuples,
            if layers.is_empty() {
                String::new()
            } else {
                format!(" | {}", layers.join(" + "))
            },
            sink.unwrap_or_default(),
        ),
        children: scans,
    };
    let (kind, head) = match window {
        Some(w) => ("SlidingWindow", window_head(a, &w, &a.projection.lags)),
        None => (
            match a.projection.aggregated {
                true => "Aggregate",
                false => "Project",
            },
            format!("{} column(s)", a.ret.items.len()),
        ),
    };
    OpPlanNode {
        kind,
        detail: format!(
            "{head}{}{}{}",
            if a.group_by.is_empty() {
                String::new()
            } else {
                format!(" | group by {}", a.group_by.len())
            },
            if a.ret.distinct { " | distinct" } else { "" },
            match a.limit {
                Some(l) => format!(" | limit {l}"),
                None => String::new(),
            },
        ),
        children: vec![join],
    }
}

/// The window loop's shape: window and step, how many windows the `at`
/// range holds (without one, the data's span bounds them), and the history
/// lags `having` reads.
fn window_head(a: &AnalyzedMultievent, w: &WindowSpec, lags: &[(usize, u32)]) -> String {
    let mut head = format!("{} / step {} | ", w.length, w.step);
    let _ = match a.globals.window {
        TimeWindow::ALL => write!(head, "windows over the data's span"),
        r => {
            let span = r.end.micros().abs_diff(r.start.micros());
            write!(head, "{} window(s)", span.div_ceil(w.step.micros() as u64))
        }
    };
    let mut lags: Vec<u32> = lags.iter().map(|&(_, lag)| lag).collect();
    lags.sort_unstable();
    lags.dedup();
    if !lags.is_empty() {
        let _ = write!(head, " | history lags {lags:?}");
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_lang::parse_query;
    use aiql_model::{AgentId, Operation, Timestamp};
    use aiql_storage::{EntitySpec, RawEvent};

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
        // with its narrowing child — the exact shape op::query_tree builds.
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
        let config = EngineConfig {
            prioritize_pruning: false,
            ..EngineConfig::default()
        };
        let plan = unbudgeted(&store, &q, &config);
        let big = plan.patterns.iter().find(|p| p.name == "big").unwrap();
        assert_eq!(big.position, 0);
    }
}
