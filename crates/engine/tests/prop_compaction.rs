//! Differential property tests for partition segment compaction (PR 4).
//!
//! A store ingested through tiny batch commits fragments every partition
//! into many small segments; compaction merges them into dense runs while
//! preserving the partition-global flat row addresses the engine's
//! `EventRef`s carry. Three stores built from identical raw streams —
//! fragmented (compaction off), explicitly compacted
//! (`EventStore::compact()`), and auto-compacted (the default commit-time
//! policy) — must return **byte-identical** tables for every query, serial
//! and with the sharded parallel join-index build forced, and the
//! fragmented store's answer must be the brute-force oracle's.
//!
//! Also covered: compaction bumps only the merged partitions' epochs, so
//! plan-cache entries over untouched partitions survive an explicit
//! compaction (asserted through `Engine::plan_cache_counters`), and a fold
//! of the entity dictionary costs no plan-cache entry at all.

use aiql_engine::{analyze_multievent, reference, Engine, EngineConfig};
use aiql_lang::{parse_query, Query};
use aiql_model::{AgentId, Operation, Timestamp};
use aiql_storage::{EntitySpec, EventStore, RawEvent, SharedStore, StoreConfig};
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

/// Queries covering single-pattern scans, multi-pattern joins (the sharded
/// index build), aggregation, and dictionary constraints.
fn query_catalog() -> Vec<&'static str> {
    vec![
        r#"proc p["%exe1.bin"] read file f as e return p, f"#,
        r#"proc p write file f as e return distinct p, f"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, p2, f"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           with e1 before e2, e2 before e3
           return count(e3.amount)"#,
        r#"proc p1 start proc p2["%child%"] as e1
           proc p1 write ip i as e2
           return p1, p2, i"#,
        r#"proc p write file f as e
           return p, count(e.amount) as n, sum(e.amount) as total
           group by p, f
           having n > 1
           order by n desc"#,
        r#"agentid = 1
           proc p read || write file f as e
           return p, f, e.amount
           limit 9"#,
    ]
}

/// Identical raw stream, identical tiny commit batches (so dedup sees the
/// same groups in all three stores) — only the physical layout differs.
fn build_stores(raws: &[RawEvent]) -> (EventStore, EventStore, EventStore) {
    let cfg = |compaction: bool| StoreConfig {
        time_bucket: aiql_model::Duration::from_mins(10),
        batch_size: 16,
        compaction,
        compaction_min_segments: 2,
        ..StoreConfig::default()
    };
    let mut fragmented = EventStore::new(cfg(false));
    fragmented.ingest_all(raws);
    let mut compacted = EventStore::new(cfg(false));
    compacted.ingest_all(raws);
    compacted.compact();
    let mut auto = EventStore::new(cfg(true));
    auto.ingest_all(raws);
    (fragmented, compacted, auto)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serial or with the sharded index build and parallel drive forced,
    /// one warm engine or a fresh one per query: the engine returns
    /// byte-identical tables on fragmented, explicitly compacted, and
    /// auto-compacted stores — on first execution and the second round —
    /// and what it returns on the fragmented store is the brute-force
    /// oracle's answer.
    #[test]
    fn fragmented_and_compacted_stores_agree_under_all_flags(
        raws in proptest::collection::vec(arb_raw(), 0..120),
        flags in 0u32..4,
    ) {
        let parallel = flags & 1 != 0;
        let warm = flags & 2 != 0;
        let (fragmented, compacted, auto) = build_stores(&raws);
        if !raws.is_empty() {
            let f = fragmented.stats();
            prop_assert!(f.segments >= f.partitions);
            let c = compacted.stats();
            prop_assert_eq!(c.segments, c.partitions, "compact() leaves dense runs");
        }
        let config = EngineConfig {
            parallelism: if parallel { 2 } else { 1 },
            // Non-zero forces the parallel drive AND the sharded index
            // build on tiny inputs.
            join_partitions: 3,
            ..EngineConfig::default()
        };
        let shared = Engine::new(config.clone());
        let engine = || if warm { shared.clone() } else { Engine::new(config.clone()) };
        for src in query_catalog() {
            let q = parse_query(src).unwrap();
            let want = engine().execute(&fragmented, &q).unwrap();
            // `limit` without `order by` keeps whichever tuples come first:
            // only the engine's own order defines that answer.
            if !src.contains("limit") {
                let Query::Multievent(m) = &q else { panic!("{src:?} is multievent") };
                let a = analyze_multievent(m, &fragmented).unwrap();
                let oracle = reference::run_reference(&fragmented, &a).unwrap();
                prop_assert_eq!(
                    &oracle.normalized().rows, &want.clone().normalized().rows,
                    "query {:?} flags {:02b}: differs from the oracle", src, flags
                );
            }
            for (name, store) in [("compacted", &compacted), ("auto", &auto)] {
                for round in 0..2 {
                    let got = engine().execute(store, &q).unwrap();
                    prop_assert_eq!(
                        &want.rows, &got.rows,
                        "query {:?} flags {:02b} store {} round {}: rows/order differ",
                        src, flags, name, round
                    );
                    prop_assert_eq!(want.truncated, got.truncated);
                    prop_assert_eq!(&want.columns, &got.columns);
                }
            }
        }
    }

    /// Compacting mid-investigation changes no results: the same engine
    /// (warm plan cache) must see identical tables before and after an
    /// explicit `compact()` of its store.
    #[test]
    fn compaction_under_warm_cache_is_invisible(
        raws in proptest::collection::vec(arb_raw(), 1..100),
    ) {
        let (mut fragmented, _, _) = build_stores(&raws);
        let engine = Engine::new(EngineConfig::default());
        let mut before = Vec::new();
        for src in query_catalog() {
            before.push(engine.execute_text(&fragmented, src).unwrap());
        }
        fragmented.compact();
        for (src, want) in query_catalog().into_iter().zip(&before) {
            let got = engine.execute_text(&fragmented, src).unwrap();
            prop_assert_eq!(&want.rows, &got.rows, "post-compaction {:?}", src);
        }
    }
}

/// The join's `OpStat` carries the build-vs-probe timing split (satellite
/// of the sharded index build): both phases must be timed on a join query,
/// and scans must not report them.
#[test]
fn join_stats_split_build_and_probe_time() {
    let mut raws = Vec::new();
    for i in 0..200i64 {
        raws.push(RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(1, "w.exe", "u"),
            EntitySpec::file(&format!("/f{}", i % 4), "u"),
            Timestamp::from_secs(i),
            1,
        ));
        raws.push(RawEvent::instant(
            AgentId(1),
            Operation::Read,
            EntitySpec::process(2, "r.exe", "u"),
            EntitySpec::file(&format!("/f{}", i % 4), "u"),
            Timestamp::from_secs(i + 1),
            1,
        ));
    }
    let mut store = EventStore::default();
    store.ingest_all(&raws);
    let q = parse_query(
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return count(e2.amount)"#,
    )
    .unwrap();
    let aiql_lang::Query::Multievent(m) = &q else {
        panic!("multievent query");
    };
    for join_partitions in [0usize, 4] {
        let engine = Engine::new(EngineConfig {
            parallelism: 2,
            join_partitions,
            ..EngineConfig::default()
        });
        let (_, stats) = engine.execute_multievent_with_stats(&store, m).unwrap();
        let join = stats
            .ops
            .iter()
            .find(|o| o.kind == "TemporalJoin")
            .expect("join ran");
        assert!(join.build_nanos > 0, "index build must be timed");
        assert!(join.probe_nanos > 0, "probe must be timed");
        assert!(
            join.build_nanos + join.probe_nanos <= join.nanos + 1_000,
            "split must nest inside the operator time"
        );
        for scan in stats.ops.iter().filter(|o| o.kind == "PatternScan") {
            assert_eq!((scan.build_nanos, scan.probe_nanos), (0, 0));
        }
    }
}

/// Day-0 partition stays dense (one commit); day-2 partition fragments
/// across five commits. Compacting merges only day 2, so a cached plan
/// windowed to day 0 survives — hits grow, misses don't.
#[test]
fn plan_cache_survives_compaction_of_unread_partitions() {
    let mut store = EventStore::new(StoreConfig {
        compaction: false,
        dedup: false,
        ..StoreConfig::default()
    });
    store.ingest_all(&[RawEvent::instant(
        AgentId(1),
        Operation::Write,
        EntitySpec::process(7, "svc.exe", "svc"),
        EntitySpec::file("/day0/data", "svc"),
        Timestamp::from_secs(60),
        5,
    )]);
    for i in 0..5 {
        store.ingest_all(&[RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(7, "svc.exe", "svc"),
            EntitySpec::file("/day2/data", "svc"),
            Timestamp::from_secs(2 * 86_400 + i * 60),
            5,
        )]);
    }
    let epochs_before = store.partition_epochs();
    let engine = Engine::new(EngineConfig::default());
    let query = r#"(at "01/01/1970") proc p["%svc.exe"] write file f as e return p, f"#;
    let first = engine.execute_text(&store, query).expect("day-0 query");
    assert!(!first.rows.is_empty());
    engine.execute_text(&store, query).expect("day-0 query");
    let (h1, m1) = engine.plan_cache_counters();
    assert!(h1 > 0 && m1 > 0);

    let report = store.compact();
    assert_eq!(report.partitions_compacted, 1, "only day 2 is fragmented");
    // Only the merged partition's epoch moved.
    for ((key, before), (_, after)) in epochs_before.iter().zip(store.partition_epochs()) {
        if key.bucket == 0 {
            assert_eq!(*before, after, "day-0 epoch untouched");
        } else {
            assert!(after > *before, "day-2 epoch bumped");
        }
    }

    let again = engine.execute_text(&store, query).expect("day-0 query");
    let (h2, m2) = engine.plan_cache_counters();
    assert_eq!(again.rows, first.rows);
    assert!(
        h2 > h1,
        "cached day-0 plan must survive compaction of day 2 ({h1} -> {h2} hits)"
    );
    assert_eq!(m2, m1, "no entry may be recomputed");

    // A query over the compacted partition *is* recomputed (its epochs
    // moved) and still answers identically to a fresh engine.
    let day2 = r#"(at "01/03/1970") proc p["%svc.exe"] write file f as e return p, f"#;
    let warm = engine.execute_text(&store, day2).expect("day-2 query");
    let fresh = Engine::new(EngineConfig::default());
    let want = fresh.execute_text(&store, day2).expect("day-2 query");
    assert_eq!(warm.rows, want.rows);
}

/// A dictionary fold is the dictionary's compaction: it moves the delta's
/// entities into a fresh base and changes no id, no answer, no epoch. Here
/// the delta holds only noise the query never reads, so a warm engine on a
/// snapshot taken after the fold answers identically without a single
/// plan-cache miss.
#[test]
fn plan_cache_survives_a_dictionary_fold() {
    let mut store = EventStore::default();
    store.ingest_all(&[RawEvent::instant(
        AgentId(1),
        Operation::Write,
        EntitySpec::process(7, "svc.exe", "svc"),
        EntitySpec::file("/day0/data", "svc"),
        Timestamp::from_secs(60),
        5,
    )]);
    let shared = SharedStore::new(store);
    // Interned while the published snapshot shares the base: the delta.
    let noise: Vec<RawEvent> = (0..500)
        .map(|i| {
            RawEvent::instant(
                AgentId(2),
                Operation::Read,
                EntitySpec::process(1000 + i, "noise.exe", "user"),
                EntitySpec::file(&format!("/noise/{i}"), "user"),
                Timestamp::from_secs(2 * 86_400 + i64::from(i)),
                1,
            )
        })
        .collect();
    shared.write(|s| s.ingest_all(&noise));
    let before = shared.snapshot();
    assert_eq!(before.entities().delta_len(), 1_000);

    let engine = Engine::new(EngineConfig::default());
    let query = r#"proc p["%svc.exe"] write file f as e return p, f"#;
    let first = engine.execute_text(&before, query).expect("svc query");
    assert_eq!(first.rows.len(), 1);
    engine.execute_text(&before, query).expect("svc query");
    let (h1, m1) = engine.plan_cache_counters();

    shared.write(EventStore::fold_dictionary);
    let after = shared.snapshot();
    assert_eq!(after.entities().delta_len(), 0);
    assert_eq!(after.dict_epoch(), before.dict_epoch());
    let again = engine.execute_text(&after, query).expect("svc query");
    let (h2, m2) = engine.plan_cache_counters();
    assert_eq!(again.rows, first.rows);
    assert!(h2 > h1, "the warm plan must be reused ({h1} -> {h2} hits)");
    assert_eq!(m2, m1, "a fold must not cost a plan-cache miss");
}
