//! Differential property tests for the shared phase — constraint
//! resolution, pushdown filters and estimates, built once per query and
//! memoized across queries by every `Engine`'s plan cache (the
//! store-epoch-invalidated plan-resolution LRU).
//!
//! A warm engine must return tables byte-identical (rows AND order) to a
//! fresh engine per query, including on *repeated* execution (cache hits) and
//! across concurrent ingest (epoch bumps must invalidate the cache); and
//! what the shared phase resolves — `LIKE` shapes through the dictionary
//! indexes, id sets pushed into the scans — must agree with the
//! brute-force oracle, which evaluates every constraint per event.

use aiql_baseline::naive::reference;
use aiql_engine::{analyze_multievent, Engine, EngineConfig, ResultTable};
use aiql_lang::{parse_query, Query};
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

/// Queries leaning on the shared phase: LIKE shapes (suffix, prefix, infix,
/// `_`), repeated constraints (cache keys collide), aggregation with
/// aliases and having, distinct, order by, and IP dictionaries.
fn query_catalog() -> Vec<&'static str> {
    vec![
        r#"proc p["%exe1.bin"] read file f as e return p, f"#,
        r#"proc p["%exe_.bin"] read file f as e return p, f"#,
        r#"proc p["/data%"] write file f["%file3"] as e return p, f"#,
        r#"proc p["%exe%"] write file f as e return distinct p, f"#,
        r#"proc p1["%exe1.bin"] write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, p2, f"#,
        r#"proc p1 start proc p2["%child%"] as e1
           proc p1 write ip i[dstip = "10.0.4.129"] as e2
           return p1, p2, i"#,
        r#"agentid = 1
           proc p read || write file f as e
           return distinct p, f"#,
        r#"proc p["%exe2.bin"] write file f as e
           return p, count(e.amount) as n, sum(e.amount) as total
           group by p, f
           having n > 1
           order by n desc"#,
        r#"proc p write file f as e
           return p, f, e.amount
           limit 7"#,
    ]
}

fn build_store(raws: &[RawEvent]) -> EventStore {
    let mut store = EventStore::new(StoreConfig {
        time_bucket: aiql_model::Duration::from_mins(10),
        dedup: false,
        ..StoreConfig::default()
    });
    store.ingest_all(raws);
    store
}

/// The pipeline with nothing memoized across queries: a fresh engine, so
/// an empty plan cache, for this one query.
fn uncached(store: &EventStore, q: &Query) -> ResultTable {
    Engine::new(EngineConfig::default())
        .execute(store, q)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The plan cache changes nothing: the warm engine returns tables
    /// byte-identical to a fresh one on first execution and on the
    /// cache-hitting second execution — and both agree with the oracle,
    /// which resolves no constraint through the dictionary indexes.
    #[test]
    fn cached_plans_match_uncached_and_the_oracle(
        raws in proptest::collection::vec(arb_raw(), 0..120),
    ) {
        let store = build_store(&raws);
        let cached = Engine::new(EngineConfig::default());
        for src in query_catalog() {
            let q = parse_query(src).unwrap();
            let want = uncached(&store, &q);
            for round in 0..2 {
                let got = cached.execute(&store, &q).unwrap();
                prop_assert_eq!(
                    &want.rows, &got.rows,
                    "query {:?} round {}: rows/order differ ({} vs {})",
                    src, round, want.rows.len(), got.rows.len()
                );
                prop_assert_eq!(want.truncated, got.truncated);
                prop_assert_eq!(&want.columns, &got.columns);
            }
            // `limit` without `order by` keeps whichever rows come first in
            // candidate order; the oracle enumerates in its own.
            if src.contains("limit") {
                continue;
            }
            let Query::Multievent(m) = &q else { panic!("{src:?} is multievent") };
            let a = analyze_multievent(m, &store).unwrap();
            let oracle = reference::run_reference(&store, &a).unwrap();
            prop_assert_eq!(
                &oracle.normalized().rows, &want.normalized().rows,
                "query {:?}: differs from the oracle", src
            );
        }
    }

    /// Concurrent ingest invalidates the plan cache: after appending a
    /// second batch (epoch bump), the cached engine must agree with a
    /// fresh engine on the grown store.
    #[test]
    fn plan_cache_survives_concurrent_ingest(
        first in proptest::collection::vec(arb_raw(), 1..80),
        second in proptest::collection::vec(arb_raw(), 1..80),
    ) {
        let mut cached_store = build_store(&first);
        let mut uncached_store = build_store(&first);
        let cached = Engine::new(EngineConfig::default());
        for src in query_catalog() {
            let q = parse_query(src).unwrap();
            // Warm the cache on the first batch…
            let warm = cached.execute(&cached_store, &q).unwrap();
            let want = uncached(&uncached_store, &q);
            prop_assert_eq!(&warm.rows, &want.rows, "pre-ingest {:?}", src);
        }
        // …then grow both stores identically and re-run everything: stale
        // resolutions/estimates must not leak through the epoch bump.
        cached_store.ingest_all(&second);
        uncached_store.ingest_all(&second);
        for src in query_catalog() {
            let q = parse_query(src).unwrap();
            let got = cached.execute(&cached_store, &q).unwrap();
            let want = uncached(&uncached_store, &q);
            prop_assert_eq!(&got.rows, &want.rows, "post-ingest {:?}", src);
        }
    }
}
