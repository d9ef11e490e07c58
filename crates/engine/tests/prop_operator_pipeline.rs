//! Property tests for the operator pipeline: `SemiJoinNarrow →
//! PatternScan` per pattern, `TemporalJoin`, `Project`/`Aggregate`, over
//! ⟨partition, row⟩ references end to end.
//!
//! There is one pipeline, so every check is against something that is not
//! it, or against itself at a different fan-out:
//!
//! * **production ≡ oracle** — over joins, shared variables, temporal
//!   chains (bounded and unbounded, `before` and `after`), aggregation, op
//!   alternatives and entity constraints, the result equals the
//!   brute-force matcher's (`reference::run_reference`);
//! * **the storage scan ≡ a test-side full scan, rows and order** — every
//!   pattern's pushdown filter selects, partition by partition, exactly
//!   the row sequence a per-row `EventFilter::matches` walk finds, and
//!   pruning drops no partition with a match: candidates are enumerated in
//!   partition order, then row order, which is what `limit` without
//!   `order by` and every truncation prefix depend on;
//! * **serial ≡ parallel** — the pooled scans, sharded index builds and
//!   run-sharded join drive return tables byte-identical (rows, order,
//!   truncation flag) to the single-threaded pipeline at any thread count,
//!   partition count and block size — including when `max_intermediate`
//!   truncates. `Engine` runs on the process-wide executor, sized by the
//!   host, so its thread counts cap fan-out; one test attaches a private
//!   eight-worker executor so the interleavings do not shrink with the
//!   CI box;
//! * **time-bucket pruning drops no admissible tuple** — the timed indexes
//!   skip bucket ranges and still agree with the oracle's exact checks;
//! * the **partition-scoped plan cache** stays correct under concurrent
//!   ingest: results always match a cache-free engine, and ingest into a
//!   partition a cached plan never read does not evict it.

use std::sync::{Arc, OnceLock};

use aiql_engine::exec::MultieventExec;
use aiql_engine::pool::ScanPool;
use aiql_engine::{analyze_multievent, reference, schedule};
use aiql_engine::{Engine, EngineConfig};
use aiql_lang::{parse_query, Query};
use aiql_model::{AgentId, Operation, Timestamp};
use aiql_storage::{EntitySpec, EventFilter, EventStore, PartitionKey, RawEvent, StoreConfig};
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
        0u32..4,
        0u32..4,
        0i64..5_000,
        0u64..2_000,
    )
        .prop_map(|(agent, op, subj, obj, secs, amount)| {
            let subject = EntitySpec::process(100 + subj, &format!("exe{subj}.bin"), "user");
            let object = match op {
                Operation::Read | Operation::Write => {
                    // A small file universe makes the joins fan out.
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

/// Join-heavy queries: multi-pattern chains over a small entity universe,
/// truncation-sensitive orders, aggregation.
fn query_catalog() -> Vec<&'static str> {
    vec![
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, p2, f"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           proc p3 read file f2 as e4
           with e1 before e2, e2 before e3, e3 before e4
           return p1, p3, f, f2"#,
        r#"proc p1 start proc p2 as e1
           proc p2 write file f as e2
           proc p2 write ip i as e3
           with e1 before e2, e2 before e3
           return p1, p2, f, i"#,
        r#"proc p write file f as e
           return p, count(e.amount) as n, sum(e.amount) as total
           group by p"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           return distinct p1, p2"#,
    ]
}

/// The join-heavy catalog plus the shapes the pipeline as a whole has to
/// get right: entity constraints, op alternatives with a global agent
/// filter, `having`, a same-subject self-join, and bounded `before` /
/// `after` relations (finite bucket ranges on both sides of a timed probe).
fn oracle_catalog() -> Vec<&'static str> {
    let mut catalog = query_catalog();
    catalog.extend([
        r#"proc p["%exe1.bin"] read file f as e return p, f"#,
        r#"proc p1 start proc p2 as e1
           proc p2 write file f as e2
           proc p2 write ip i[dstip = "10.0.4.129"] as e3
           with e1 before e2, e2 before e3
           return p1, p2, f, i"#,
        r#"agentid = 1
           proc p read || write file f as e
           return distinct p, f"#,
        r#"proc p write file f as e
           return p, count(e.amount) as n, sum(e.amount) as total
           group by p
           having n > 1"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before[10 min] e2
           return p1, p2"#,
        r#"proc p write file f1["%file1"] as e1
           proc p write file f2["%file2"] as e2
           return distinct p"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           with e1 before[10 min] e2, e2 before[30 min] e3
           return p1, p2, f, f2"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e2 after[20 min] e1
           return p1, p2, f"#,
    ]);
    catalog
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

/// The test-side reference for one partition's scan: every flat row in
/// order, materialized and checked with `EventFilter::matches` — no
/// pruning, no posting list, no column pass.
fn full_scan_rows(store: &EventStore, key: PartitionKey, filter: &EventFilter) -> Vec<u32> {
    let part = store.partition(key).expect("key from partition_list");
    (0..part.len())
        .filter(|&row| filter.matches(&part.event_at(key.agent, row)))
        .map(|row| row as u32)
        .collect()
}

/// The single-threaded pipeline: no executor, so scans, index builds and
/// the join drive all run on the query thread.
fn serial_config() -> EngineConfig {
    EngineConfig {
        parallelism: 1,
        ..EngineConfig::default()
    }
}

/// The pipeline at `threads`, with the parallel scan, the sharded index
/// build and the parallel drive all forced onto proptest-sized inputs.
fn parallel_config(threads: usize, partitions: usize) -> EngineConfig {
    EngineConfig {
        parallelism: threads,
        join_partitions: partitions,
        parallel_threshold: 0,
        ..EngineConfig::default()
    }
}

/// An executor with eight workers regardless of the host's core count,
/// shared by every case of the test that uses it.
fn eight_workers() -> Arc<ScanPool> {
    static POOL: OnceLock<Arc<ScanPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(ScanPool::new(8))).clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel and serial pipelines agree byte-for-byte across thread
    /// counts 1/2/8, partition counts, block sizes, and `max_intermediate`
    /// truncation.
    #[test]
    fn parallel_pipeline_matches_serial_exactly(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
        partitions in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
        max_intermediate in prop_oneof![
            Just(1usize), Just(2), Just(7), Just(100), Just(4_000_000)
        ],
    ) {
        let store = build_store(&raws);
        // Same block on both sides: when an *intermediate* expansion hits
        // the cap, where the run cuts depends on how the seed was blocked.
        let serial = Engine::new(EngineConfig {
            max_intermediate,
            join_block_tuples: block,
            ..serial_config()
        });
        let parallel = Engine::new(EngineConfig {
            max_intermediate,
            join_block_tuples: block,
            ..parallel_config(threads, partitions)
        });
        for src in oracle_catalog() {
            let q = parse_query(src).unwrap();
            let want = serial.execute(&store, &q).unwrap();
            let got = parallel.execute(&store, &q).unwrap();
            prop_assert_eq!(
                &want.rows, &got.rows,
                "query {:?} threads {} partitions {} block {} max {}: rows/order differ ({} vs {})",
                src, threads, partitions, block, max_intermediate,
                want.rows.len(), got.rows.len()
            );
            prop_assert_eq!(
                want.truncated, got.truncated,
                "query {:?} threads {} partitions {} block {} max {}: truncation flag differs",
                src, threads, partitions, block, max_intermediate
            );
        }
    }

    /// The pipeline agrees with the brute-force oracle, with partition
    /// parallelism on and off, serial and fanned out — and the fanned-out
    /// run is byte-identical to the serial one. Under both, each pattern's
    /// scan enumerates candidates in one order (partition order, then row
    /// order) that a test-side full scan reproduces row for row, so `limit`
    /// without `order by` and every truncation prefix rest on an order the
    /// store is held to, not one two configurations happen to share.
    #[test]
    fn pipeline_matches_the_brute_force_oracle(
        raws in proptest::collection::vec(arb_raw(), 0..100),
        flags in 0u32..4,
    ) {
        let partition_parallel = flags & 1 != 0;
        let threads = if flags & 2 != 0 { 4 } else { 1 };

        let store = build_store(&raws);
        let serial = Engine::new(serial_config());
        let variant = Engine::new(EngineConfig {
            partition_parallel,
            ..parallel_config(threads, 3)
        });
        for src in oracle_catalog() {
            let q = parse_query(src).unwrap();
            let Query::Multievent(m) = &q else { panic!("{src:?} is multievent") };
            let a = analyze_multievent(m, &store).unwrap();
            let want = reference::run_reference(&store, &a).unwrap();
            let got = variant.execute(&store, &q).unwrap();
            prop_assert!(!got.truncated);
            prop_assert_eq!(&want.columns, &got.columns);
            prop_assert_eq!(
                &want.normalized().rows, &got.clone().normalized().rows,
                "query {:?} flags {:02b}: differs from the oracle",
                src, flags
            );
            let base = serial.execute(&store, &q).unwrap();
            prop_assert_eq!(
                (&base.rows, base.truncated), (&got.rows, got.truncated),
                "query {:?} flags {:02b}: serial and parallel pipelines diverged",
                src, flags
            );
            let resolved = schedule::resolve_vars(&a, &store);
            for pattern in 0..a.patterns.len() {
                let filter = schedule::base_filter(&a, pattern, &resolved);
                let pruned = store.partitions_for(&filter);
                prop_assert!(pruned.windows(2).all(|w| w[0] < w[1]));
                for key in store.partition_list() {
                    let rows = full_scan_rows(&store, key, &filter);
                    prop_assert!(
                        rows.is_empty() || pruned.contains(&key),
                        "query {:?} pattern {}: pruning dropped {:?}, which has matches",
                        src, pattern, key
                    );
                    prop_assert_eq!(
                        store.select_partition(key, &filter), rows,
                        "query {:?} pattern {} partition {:?}: rows/order differ from the full scan",
                        src, pattern, key
                    );
                }
            }
        }
    }

    /// `Engine` fans out on the process-wide executor, which is sized by the
    /// host (one or two workers on a small CI box), so "threads 8" above
    /// caps a query's fan-out without promising eight workers. This case
    /// attaches a private executor that really has eight, whatever the
    /// host: scans, sharded builds and the run-sharded drive interleave
    /// across all of them and still reproduce the serial table.
    #[test]
    fn eight_worker_executor_matches_serial_exactly(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        partitions in prop_oneof![Just(0usize), Just(3), Just(8)],
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
        max_intermediate in prop_oneof![Just(7usize), Just(100), Just(4_000_000)],
    ) {
        let store = build_store(&raws);
        let serial_cfg = EngineConfig {
            max_intermediate,
            join_block_tuples: block,
            ..serial_config()
        };
        let wide_cfg = EngineConfig {
            max_intermediate,
            join_block_tuples: block,
            ..parallel_config(8, partitions)
        };
        let pool = eight_workers();
        prop_assert_eq!(pool.threads(), 8);
        for src in oracle_catalog() {
            let q = parse_query(src).unwrap();
            let Query::Multievent(m) = &q else { panic!("{src:?} is multievent") };
            let a = analyze_multievent(m, &store).unwrap();
            let want = MultieventExec::new(&store, &a, &serial_cfg).run().unwrap();
            let got = MultieventExec::new(&store, &a, &wide_cfg)
                .with_pool(Some(pool.clone()))
                .run()
                .unwrap();
            prop_assert_eq!(
                (&want.rows, want.truncated), (&got.rows, got.truncated),
                "query {:?} partitions {} block {} max {}: eight workers diverged from serial",
                src, partitions, block, max_intermediate
            );
        }
    }

    /// Plan-cached engines stay correct while the store is mutated between
    /// executions (partition-scoped invalidation must never serve stale
    /// estimates or resolutions).
    #[test]
    fn plan_cache_correct_under_ingest(
        rounds in proptest::collection::vec(
            proptest::collection::vec(arb_raw(), 1..40), 2..5
        ),
    ) {
        let mut store = build_store(&rounds[0]);
        let cached = Engine::new(EngineConfig {
            parallel_threshold: 0,
            ..EngineConfig::default()
        });
        let uncached = Engine::new(EngineConfig {
            plan_cache: false,
            ..EngineConfig::default()
        });
        for round in &rounds[1..] {
            for src in query_catalog() {
                let q = parse_query(src).unwrap();
                let want = uncached.execute(&store, &q).unwrap();
                let got = cached.execute(&store, &q).unwrap();
                prop_assert_eq!(&want.rows, &got.rows, "query {:?}", src);
            }
            store.ingest_all(round);
        }
    }
}

/// Deterministic checks: per-operator statistics are populated, and a
/// plan-cache hit survives ingest into a partition the plan never read.
#[test]
fn run_with_stats_reports_per_operator_timings() {
    let raws: Vec<RawEvent> = (0..3_000)
        .map(|i| {
            RawEvent::instant(
                AgentId(i % 4),
                if i % 3 == 0 {
                    Operation::Write
                } else {
                    Operation::Read
                },
                EntitySpec::process(100 + (i % 5), &format!("exe{}.bin", i % 5), "user"),
                EntitySpec::file(&format!("/data/file{}", i % 7), "user"),
                Timestamp::from_secs(i64::from(i) * 3),
                u64::from(i),
            )
        })
        .collect();
    let store = build_store(&raws);
    let engine = Engine::new(EngineConfig {
        parallelism: 4,
        parallel_threshold: 0,
        join_partitions: 4,
        ..EngineConfig::default()
    });
    let q = parse_query(
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, p2, f"#,
    )
    .unwrap();
    let aiql_lang::Query::Multievent(m) = q else {
        panic!()
    };
    let (table, stats) = engine.execute_multievent_with_stats(&store, &m).unwrap();
    assert!(!table.rows.is_empty());

    // One operator chain per pattern + join + projection, in execution
    // order: narrow, scan, narrow, scan, join, project.
    let kinds: Vec<&str> = stats.ops.iter().map(|o| o.kind).collect();
    assert_eq!(
        kinds,
        [
            "SemiJoinNarrow",
            "PatternScan",
            "SemiJoinNarrow",
            "PatternScan",
            "TemporalJoin",
            "Project"
        ]
    );
    for op in &stats.ops {
        assert!(op.nanos > 0, "{} must be timed", op.kind);
        assert!(op.fanout >= 1);
    }
    let scans: Vec<_> = stats
        .ops
        .iter()
        .filter(|o| o.kind == "PatternScan")
        .collect();
    assert!(scans.iter().all(|o| o.rows_out > 0), "scans fetched tuples");
    assert_eq!(
        scans.iter().map(|o| o.rows_out).sum::<usize>(),
        stats.fetched.iter().sum::<usize>(),
        "per-operator and per-pattern fetch counts agree"
    );
    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
    assert!(join.rows_in > 0);
    assert_eq!(join.rows_out, stats.tuples);
    assert!(join.fanout > 1, "forced join partitions must be used");
    let project = stats.ops.iter().find(|o| o.kind == "Project").unwrap();
    assert_eq!(project.rows_in, stats.tuples);
    assert_eq!(project.rows_out, table.rows.len());
}

#[test]
fn plan_cache_hit_survives_ingest_into_untouched_partition() {
    // Day-0 store; the query reads only day 0.
    let day = 86_400i64;
    let mk = |secs: i64| {
        RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(1, "sqlservr.exe", "mssql"),
            EntitySpec::file("/data/f0", "mssql"),
            Timestamp::from_secs(secs),
            100,
        )
    };
    let mut store = EventStore::default();
    store.ingest_all(&(0..50).map(|i| mk(i * 60)).collect::<Vec<_>>());
    let engine = Engine::new(EngineConfig::default());
    let src = r#"(at "01/01/1970") proc p["%sqlservr.exe"] write file f as e return p, f"#;
    let q = parse_query(src).unwrap();

    let first = engine.execute(&store, &q).unwrap();
    let (h0, m0) = engine.plan_cache_counters();
    assert!(m0 > 0, "first execution must populate the cache");
    engine.execute(&store, &q).unwrap();
    let (h1, m1) = engine.plan_cache_counters();
    assert!(h1 > h0, "repeat execution must hit");
    assert_eq!(m1, m0);

    // Ingest two days later with already-interned entities: new partition,
    // unchanged dictionary, day-0 buckets untouched.
    store.ingest_all(&[mk(2 * day)]);
    let after = engine.execute(&store, &q).unwrap();
    let (h2, m2) = engine.plan_cache_counters();
    assert!(
        h2 > h1,
        "cached plan must survive ingest into an untouched partition"
    );
    assert_eq!(m2, m1, "no cache entry may be recomputed");
    assert_eq!(after.rows, first.rows, "day-0 results unchanged");

    // Ingest into day 0: the cached estimate must now be recomputed and
    // the new event must show up.
    store.ingest_all(&[mk(30)]);
    let touched = engine.execute(&store, &q).unwrap();
    let (_, m3) = engine.plan_cache_counters();
    assert!(m3 > m2, "ingest into a read partition must recompute");
    assert_eq!(touched.rows.len(), first.rows.len() + 1);
}

/// Time-bucket pruning is purely an acceleration: on clustered ("bursty")
/// data with bounded temporal relations it must skip whole bucket ranges
/// (visible in the join's operator stats) while never dropping a tuple the
/// oracle's exact temporal check admits.
#[test]
fn time_bucket_pruning_drops_no_admissible_tuple() {
    // Six bursts of activity far apart in time on one host and one file;
    // within a burst events are seconds apart, so a `before[10 min]`
    // bound admits only same-burst pairs. Single-host ingest keeps
    // candidate lists in time order, so posting chunks cover disjoint
    // bursts and the bucket grid can skip the other bursts' chunks.
    let raws: Vec<RawEvent> = (0..360)
        .map(|i| {
            let burst = i / 60;
            let base = i64::from(burst) * 100_000;
            RawEvent::instant(
                AgentId(0),
                if i % 2 == 0 {
                    Operation::Write
                } else {
                    Operation::Read
                },
                EntitySpec::process(100 + (i % 5), &format!("exe{}.bin", i % 5), "user"),
                EntitySpec::file("/data/file0", "user"),
                Timestamp::from_secs(base + i64::from(i % 60) * 7),
                u64::from(i),
            )
        })
        .collect();
    let store = build_store(&raws);
    let q = parse_query(
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           with e1 before[10 min] e2, e2 before[10 min] e3
           return p1, p2, f, f2"#,
    )
    .unwrap();
    let Query::Multievent(m) = q else { panic!() };

    let (timed, stats) = Engine::new(serial_config())
        .execute_multievent_with_stats(&store, &m)
        .unwrap();
    let a = analyze_multievent(&m, &store).unwrap();
    let exact = reference::run_reference(&store, &a).unwrap();
    assert!(!timed.rows.is_empty(), "query must match something");
    assert_eq!(
        timed.normalized().rows,
        exact.normalized().rows,
        "bucket pruning must not change results"
    );

    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
    assert!(
        join.bucket_skipped > 0,
        "bursty data with bounded relations must skip bucket ranges"
    );
    assert!(
        join.join_steps.iter().any(|s| s.buckets > 1),
        "a bounded step must build a multi-bucket index"
    );
    assert!(join.probe_hits > 0, "joined rows imply probe hits");
}

/// One deterministic check that a pooled scan really runs on pool workers
/// and still matches the serial scan tuple for tuple, fetch counts included.
#[test]
fn pool_scan_unit_roundtrip() {
    let raws: Vec<RawEvent> = (0..2_000)
        .map(|i| {
            RawEvent::instant(
                AgentId(i % 7),
                if i % 3 == 0 {
                    Operation::Write
                } else {
                    Operation::Read
                },
                EntitySpec::process(100 + (i % 5), &format!("exe{}.bin", i % 5), "user"),
                EntitySpec::file(&format!("/data/file{}", i % 17), "user"),
                Timestamp::from_secs(i64::from(i) * 7),
                u64::from(i),
            )
        })
        .collect();
    let store = build_store(&raws);
    let q = parse_query(
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, p2, f"#,
    )
    .unwrap();
    let Query::Multievent(m) = &q else { panic!() };
    let analyzed = analyze_multievent(m, &store).unwrap();

    let pooled_cfg = parallel_config(4, 0);
    let serial_cfg = serial_config();
    let pool = Arc::new(ScanPool::new(4));
    assert_eq!(pool.threads(), 4);
    let pooled = MultieventExec::new(&store, &analyzed, &pooled_cfg).with_pool(Some(pool));
    let serial = MultieventExec::new(&store, &analyzed, &serial_cfg);
    let (t1, trunc1, stats1) = pooled.match_tuples().unwrap();
    let (t2, trunc2, stats2) = serial.match_tuples().unwrap();
    assert!(
        stats1
            .ops
            .iter()
            .any(|o| o.kind == "PatternScan" && o.fanout > 1),
        "the pooled run must fan its scans out"
    );
    assert_eq!(trunc1, trunc2);
    assert_eq!(stats1.fetched, stats2.fetched, "per-pattern fetch counts");
    assert_eq!(t1.len(), t2.len());
    for (a, b) in t1.iter().zip(&t2) {
        assert_eq!(a.vars, b.vars);
        assert_eq!(a.events, b.events);
    }
}
