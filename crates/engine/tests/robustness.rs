//! Robustness and edge-case behavior of the engine: truncation guards,
//! degenerate windows, empty groups, ordering and limits, unicode-ish
//! inputs, and adversarial queries.

use aiql_engine::{Engine, EngineConfig, EngineError};
use aiql_lang::parse_query;
use aiql_model::{AgentId, Operation, Timestamp, Value};
use aiql_storage::{EntitySpec, EventStore, RawEvent, StoreConfig};

fn store_with(n: i64) -> EventStore {
    let mut store = EventStore::new(StoreConfig {
        dedup: false,
        ..StoreConfig::default()
    });
    let mut raws = Vec::new();
    for i in 0..n {
        raws.push(RawEvent::instant(
            AgentId((i % 2) as u32),
            if i % 2 == 0 {
                Operation::Write
            } else {
                Operation::Read
            },
            EntitySpec::process(100 + (i % 3) as u32, &format!("exe{}.bin", i % 3), "u"),
            EntitySpec::file(&format!("/f{}", i % 4), "u"),
            Timestamp::from_secs(i),
            (i as u64) * 3,
        ));
    }
    store.ingest_all(&raws);
    store
}

#[test]
fn intermediate_truncation_sets_flag() {
    let store = store_with(60);
    // A cartesian-ish query with a tiny cap must truncate, not explode.
    let engine = Engine::new(EngineConfig {
        max_intermediate: 5,
        ..EngineConfig::default()
    });
    let table = engine
        .execute_text(
            &store,
            r#"proc p1 write file f1 as e1
               proc p2 read file f2 as e2
               return p1, p2"#,
        )
        .unwrap();
    assert!(table.truncated);
    assert!(!table.rows.is_empty());
}

#[test]
fn limit_caps_row_count_and_order_is_respected() {
    let store = store_with(40);
    let engine = Engine::new(EngineConfig::default());
    let table = engine
        .execute_text(
            &store,
            r#"proc p write file f as e
               return p, sum(e.amount) as total
               group by p
               order by total desc
               limit 2"#,
        )
        .unwrap();
    assert!(table.rows.len() <= 2);
    if table.rows.len() == 2 {
        let a = table.rows[0][1].as_f64().unwrap();
        let b = table.rows[1][1].as_f64().unwrap();
        assert!(a >= b, "descending order violated: {a} < {b}");
    }
}

#[test]
fn order_by_unreturned_column_is_an_error() {
    let store = store_with(10);
    let engine = Engine::new(EngineConfig::default());
    let err = engine
        .execute_text(&store, "proc p write file f as e return p order by f")
        .unwrap_err();
    assert!(err.to_string().contains("order by"), "{err}");
}

#[test]
fn anomaly_on_empty_match_set_is_empty() {
    let store = store_with(10);
    let engine = Engine::new(EngineConfig::default());
    let table = engine
        .execute_text(
            &store,
            r#"window = 1 min, step = 30 sec
               proc p["%no_such%"] write file f as evt
               return p, count(*) as n
               group by p"#,
        )
        .unwrap();
    assert!(table.rows.is_empty());
}

#[test]
fn anomaly_window_larger_than_data_range() {
    let store = store_with(5); // 5 seconds of data
    let engine = Engine::new(EngineConfig::default());
    let table = engine
        .execute_text(
            &store,
            r#"window = 1 hour, step = 1 hour
               proc p write file f as evt
               return p, count(*) as n
               group by p
               having n >= 1"#,
        )
        .unwrap();
    // Everything lands in the single window.
    let total: i64 = table.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(total, 3); // 3 write events (ids 0, 2, 4)
}

/// A nested aggregate's argument is evaluated per tuple, before any
/// aggregate value exists: a typed error in both query kinds, not a panic.
#[test]
fn nested_aggregate_is_an_error() {
    let store = store_with(10);
    let engine = Engine::new(EngineConfig::default());
    for header in ["", "window = 1 min, step = 30 sec "] {
        let src = format!(
            "{header}proc p write file f as e return p, sum(count(e.amount)) as n group by p"
        );
        let err = engine.execute_text(&store, &src).unwrap_err();
        assert!(err.to_string().contains("outside aggregation"), "{err}");
    }
}

#[test]
fn zero_limit_returns_nothing() {
    let store = store_with(10);
    let engine = Engine::new(EngineConfig::default());
    let table = engine
        .execute_text(&store, "proc p write file f as e return p limit 0")
        .unwrap();
    assert!(table.rows.is_empty());
}

#[test]
fn self_join_same_variable_subject_object() {
    // `proc p connect proc p` requires subject == object; none exist here.
    let store = store_with(20);
    let engine = Engine::new(EngineConfig::default());
    let table = engine
        .execute_text(&store, "proc p connect proc p as e return p")
        .unwrap();
    assert!(table.rows.is_empty());
}

#[test]
fn min_max_aggregates() {
    let store = store_with(20);
    let engine = Engine::new(EngineConfig::default());
    let table = engine
        .execute_text(
            &store,
            r#"proc p write file f as e
               return min(e.amount) as lo, max(e.amount) as hi"#,
        )
        .unwrap();
    assert_eq!(table.rows.len(), 1);
    let lo = table.rows[0][0];
    let hi = table.rows[0][1];
    assert_eq!(lo, Value::Int(0)); // event 0 amount 0
    assert_eq!(hi, Value::Int(54)); // event 18 amount 54
}

#[test]
fn having_without_aggregates_filters_rows() {
    let store = store_with(20);
    let engine = Engine::new(EngineConfig::default());
    let all = engine
        .execute_text(&store, "proc p write file f as e return p, e.amount")
        .unwrap();
    let filtered = engine
        .execute_text(
            &store,
            "proc p write file f as e return p, e.amount having e.amount > 24",
        )
        .unwrap();
    assert!(filtered.rows.len() < all.rows.len());
    for row in &filtered.rows {
        assert!(row[1].as_i64().unwrap() > 24);
    }
}

#[test]
fn unsatisfiable_query_short_circuits() {
    let store = store_with(50);
    let engine = Engine::new(EngineConfig::default());
    // Exact name not in the dictionary → zero scan work, empty result.
    let table = engine
        .execute_text(
            &store,
            r#"proc p["ghost.exe"] write file f as e
               proc p read file f2 as e2
               return p"#,
        )
        .unwrap();
    assert!(table.rows.is_empty());
}

#[test]
fn contradictory_agents_short_circuit() {
    let store = store_with(50);
    let engine = Engine::new(EngineConfig::default());
    let table = engine
        .execute_text(
            &store,
            "agentid = 0 agentid = 1 proc p write file f as e return p",
        )
        .unwrap();
    assert!(table.rows.is_empty());
}

#[test]
fn windows_paths_with_escapes_survive_the_pipeline() {
    let mut store = EventStore::default();
    store.ingest_all(&[RawEvent::instant(
        AgentId(1),
        Operation::Write,
        EntitySpec::process(1, r"C:\Program Files (x86)\Weird, Inc\tool.exe", "u"),
        EntitySpec::file(r#"C:\data\with "quotes".txt"#, "u"),
        Timestamp::from_secs(1),
        10,
    )]);
    let engine = Engine::new(EngineConfig::default());
    let table = engine
        .execute_text(
            &store,
            r#"proc p["%tool.exe"] write file f as e return p, f"#,
        )
        .unwrap();
    assert_eq!(table.rows.len(), 1);
    let csv = table.to_csv(store.interner());
    assert!(csv.contains("Weird"));
    // Query text containing the escaped quote also parses.
    let q = parse_query(r#"proc p read file f["%\"quotes\"%"] as e return f"#);
    assert!(q.is_ok());
}

/// What one row of [`numeric_extremes_at_every_text_surface`] must return.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// A result table (its values are not pinned).
    Table,
    /// A parse error: a count the parser cannot represent.
    Parse,
    /// A model error: a date outside the representable time range.
    Model,
}

/// Numeric extremes in query text, at every place a number enters: window
/// and step lengths, temporal bounds, `at` dates, arithmetic in `return`
/// and `having` of both multievent and anomaly queries, and `limit`. Each
/// row returns a table or the typed error the row names — never a panic
/// (debug builds check integer overflow) and never a worker fault.
#[test]
fn numeric_extremes_at_every_text_surface() {
    use Expect::{Model, Parse, Table};
    let store = store_with(20);
    let engine = Engine::new(EngineConfig::default());
    const PAT: &str = "proc p write file f as e";
    const JOIN: &str = "proc p1 write file f as e1 proc p2 read file f as e2";
    const COUNT: &str = "return p, count(e.amount) as n group by p";
    let rows: Vec<(String, Expect)> = vec![
        // Window and step counts: past i64 microseconds is a parse error;
        // the largest representable ones run.
        (format!("window = 9223372036854775807 day, step = 1 min {PAT} {COUNT}"), Parse),
        (format!("window = 1 min, step = 9223372036854775807 ms {PAT} {COUNT}"), Parse),
        (format!("window = 106751991 day, step = 106751991 day {PAT} {COUNT}"), Table),
        (format!("window = 9223372036854775807 us, step = 9223372036854775807 us {PAT} {COUNT}"), Table),
        (format!(r#"(at "01/01/1970") window = 1 min, step = 9223372036854775807 us {PAT} {COUNT}"#), Table),
        // Temporal bounds.
        (format!("{JOIN} with e1 before[300000000000 day] e2 return p1, p2"), Parse),
        (format!("{JOIN} with e1 before[106751991 day] e2 return p1, p2"), Table),
        (format!("{JOIN} with e1 after[9223372036854775807 us] e2 return p1, p2"), Table),
        // `at` years outside the representable range.
        (format!(r#"(at "01/01/300000") {PAT} return p"#), Model),
        (format!(r#"(at "01/01/-300000") {PAT} return p"#), Model),
        (format!(r#"(at "12/31/2147483647") {PAT} return p"#), Model),
        (format!(r#"(at "01/01/1970" to "01/01/300000") {PAT} return p"#), Model),
        (format!(r#"(at "01/01/300000") window = 1 min, step = 1 min {PAT} {COUNT}"#), Model),
        // Overflowing integer arithmetic in `return` and `having`.
        (format!("{PAT} return p, 9223372036854775807 * 2 as x"), Table),
        (format!("{PAT} return p, -9223372036854775807 - 2 as x"), Table),
        (format!("{PAT} return p, 9223372036854775807 + e.amount as x"), Table),
        (format!("{PAT} return p, -(-9223372036854775807 - 1) as x"), Table),
        (format!("{PAT} {COUNT} having n * 9223372036854775807 > 0"), Table),
        (format!("{PAT} {COUNT} having 0 - n - 9223372036854775807 < 0"), Table),
        (format!("window = 1 min, step = 1 min {PAT} return p, count(e.amount) * 9223372036854775807 as x group by p"), Table),
        (format!("window = 1 min, step = 1 min {PAT} {COUNT} having n + 9223372036854775807 > 0"), Table),
        (format!("window = 10 sec, step = 5 sec {PAT} {COUNT} having n * 9223372036854775807 - n[1] > 0"), Table),
        // The largest `limit`.
        (format!("{PAT} return p limit 9223372036854775807"), Table),
        (format!("{PAT} return p, sum(e.amount) as s group by p order by s desc limit 9223372036854775807"), Table),
    ];
    let mut failures = Vec::new();
    for (src, expect) in &rows {
        let run = std::panic::catch_unwind(|| engine.execute_text(&store, src));
        let got = match &run {
            Ok(Ok(_)) => Some(Table),
            Ok(Err(EngineError::Parse(_))) => Some(Parse),
            Ok(Err(EngineError::Model(_))) => Some(Model),
            _ => None,
        };
        if got != Some(*expect) {
            let outcome = match run {
                Ok(r) => format!("{:?}", r.map(|t| t.rows.len())),
                Err(_) => "panicked".to_string(),
            };
            failures.push(format!("{src:?}: expected {expect:?}, got {outcome}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn deep_temporal_chain_executes() {
    // 6 patterns in one strict chain over the same subject.
    let mut store = EventStore::default();
    let mut raws = Vec::new();
    for i in 0..6i64 {
        raws.push(RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(7, "chain.exe", "u"),
            EntitySpec::file(&format!("/stage{i}"), "u"),
            Timestamp::from_secs(i * 100),
            1,
        ));
    }
    store.ingest_all(&raws);
    let src = r#"
        proc p write file f1["%stage0"] as e1
        proc p write file f2["%stage1"] as e2
        proc p write file f3["%stage2"] as e3
        proc p write file f4["%stage3"] as e4
        proc p write file f5["%stage4"] as e5
        proc p write file f6["%stage5"] as e6
        with e1 before e2, e2 before e3, e3 before e4, e4 before e5, e5 before e6
        return distinct p"#;
    let engine = Engine::new(EngineConfig::default());
    let table = engine.execute_text(&store, src).unwrap();
    assert_eq!(table.rows.len(), 1);
}
