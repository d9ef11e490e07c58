//! Property-based equivalence: the fully optimized executor (pruning-power
//! scheduling + semi-join pushdown + temporal narrowing + partition
//! parallelism) must return exactly the rows of the brute-force reference
//! executor for arbitrary stores and a family of generated queries.

use aiql_baseline::naive::reference;
use aiql_engine::{analyze_multievent, Engine, EngineConfig};
use aiql_lang::parse_query;
use aiql_model::{AgentId, Operation, Timestamp};
use aiql_storage::{EntitySpec, EventStore, RawEvent, StoreConfig};
use proptest::prelude::*;

fn arb_raw() -> impl Strategy<Value = RawEvent> {
    (
        0u32..3,
        prop_oneof![
            Just(Operation::Read),
            Just(Operation::Write),
            Just(Operation::Start),
            Just(Operation::Connect),
        ],
        0u32..5,
        0u32..6,
        0i64..5_000,
        0u64..2_000,
    )
        .prop_map(|(agent, op, subj, obj, secs, amount)| {
            let subject = EntitySpec::process(100 + subj, &format!("exe{subj}.bin"), "user");
            let object = match op {
                Operation::Read | Operation::Write => {
                    EntitySpec::file(&format!("/data/file{obj}"), "user")
                }
                Operation::Start => {
                    EntitySpec::process(200 + obj, &format!("child{obj}.bin"), "user")
                }
                _ => EntitySpec::tcp(
                    aiql_model::IpV4::from_octets(10, 0, 0, 1),
                    40_000,
                    aiql_model::IpV4::from_octets(10, 0, 4, 128 + (obj % 2) as u8),
                    443,
                ),
            };
            RawEvent::instant(
                AgentId(agent),
                op,
                subject,
                object,
                Timestamp::from_secs(secs),
                amount,
            )
        })
}

/// A family of queries exercising joins, shared variables, temporal
/// relations, global constraints, and op alternatives.
fn query_catalog() -> Vec<&'static str> {
    vec![
        // Single pattern, entity pattern constraint.
        r#"proc p["%exe1.bin"] read file f as e return p, f"#,
        // Shared file variable across two patterns (implicit join).
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return distinct p1, p2, f"#,
        // Three patterns with a temporal chain and an IP constraint.
        r#"proc p1 start proc p2 as e1
           proc p2 write file f as e2
           proc p2 write ip i[dstip = "10.0.4.129"] as e3
           with e1 before e2, e2 before e3
           return p1, p2, f, i"#,
        // Spatial constraint + op alternatives.
        r#"agentid = 1
           proc p read || write file f as e
           return distinct p, f"#,
        // Aggregation with group by and having.
        r#"proc p write file f as e
           return p, count(e.amount) as n, sum(e.amount) as total
           group by p
           having n > 1"#,
        // Temporal bound.
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before[10 min] e2
           return p1, p2"#,
        // Self-relation via shared subject (same proc writes two files).
        r#"proc p write file f1["%file1"] as e1
           proc p write file f2["%file2"] as e2
           return distinct p"#,
    ]
}

fn build_store(raws: &[RawEvent]) -> EventStore {
    let mut store = EventStore::new(StoreConfig {
        time_bucket: aiql_model::Duration::from_mins(10),
        dedup: false, // keep every generated event so the oracle is simple
        ..StoreConfig::default()
    });
    store.ingest_all(raws);
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized executor == brute-force oracle, on every catalog query.
    #[test]
    fn optimized_matches_reference(raws in proptest::collection::vec(arb_raw(), 0..120)) {
        let store = build_store(&raws);
        let engine = Engine::new(EngineConfig::default());
        for src in query_catalog() {
            let q = parse_query(src).unwrap();
            let aiql_lang::Query::Multievent(m) = &q else { panic!() };
            let analyzed = analyze_multievent(m, &store).unwrap();
            let fast = engine.execute(&store, &q).unwrap().normalized();
            let slow = reference::run_reference(&store, &analyzed).unwrap().normalized();
            prop_assert_eq!(
                &fast.rows, &slow.rows,
                "query {} differs: fast {} rows, slow {} rows",
                src, fast.rows.len(), slow.rows.len()
            );
        }
    }

    /// Every single optimization toggled off must still be correct.
    #[test]
    fn each_config_matches_reference(raws in proptest::collection::vec(arb_raw(), 0..80),
                                     which in 0usize..6) {
        let store = build_store(&raws);
        let mut config = EngineConfig::default();
        match which {
            0 => config.ablation.prioritize_pruning = false,
            1 => config.parallelism = 1,
            2 => config.ablation.semi_join_pushdown = false,
            3 => config.ablation.temporal_narrowing = false,
            4 => config.ablation.entity_pushdown = false,
            _ => config = EngineConfig::unoptimized(),
        }
        let engine = Engine::new(config);
        let src = r#"proc p1 write file f as e1
                     proc p2 read file f as e2
                     with e1 before e2
                     return distinct p1, p2, f"#;
        let q = parse_query(src).unwrap();
        let aiql_lang::Query::Multievent(m) = &q else { panic!() };
        let analyzed = analyze_multievent(m, &store).unwrap();
        let fast = engine.execute(&store, &q).unwrap().normalized();
        let slow = reference::run_reference(&store, &analyzed).unwrap().normalized();
        prop_assert_eq!(&fast.rows, &slow.rows);
    }

    /// Anomaly execution is deterministic and its rows satisfy the having
    /// filter semantics (spot-checked via count aggregates).
    #[test]
    fn anomaly_rows_respect_having(raws in proptest::collection::vec(arb_raw(), 1..100)) {
        let store = build_store(&raws);
        let engine = Engine::new(EngineConfig::default());
        let src = r#"window = 100 sec, step = 50 sec
                     proc p write ip i as evt
                     return p, count(evt.amount) as n
                     group by p
                     having n >= 1"#;
        let table = engine.execute_text(&store, src).unwrap();
        for row in &table.rows {
            let n = row[1].as_i64().unwrap();
            prop_assert!(n >= 1);
        }
        // Deterministic across runs.
        let again = engine.execute_text(&store, src).unwrap();
        prop_assert_eq!(table.normalized().rows, again.normalized().rows);
    }
}
