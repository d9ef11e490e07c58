//! Differential property tests for the concurrent ingest/query core (PR 9).
//!
//! A live store driven through the [`SharedStore`] write path — novelty
//! overlay absorbing small commits, threshold flushes, background-deferred
//! compaction, explicit flush/compact maintenance at random points — must
//! answer every query **byte-identically** to a stop-the-world reference
//! store that sealed each commit serially and never compacted. Queries run
//! against pinned snapshots, exactly like the service path; the program of
//! ingest/query/flush/compact operations is randomized, as are the cube
//! ⟨serial/parallel engine, one warm engine or a fresh one per query,
//! background_compaction⟩ and the overlay flush threshold. What the
//! reference store answers is in turn checked against the brute-force
//! oracle.
//!
//! Also covered: plan-cache counters stay consistent across epoch bumps —
//! re-running a query against the *same* pinned snapshot never misses
//! (epochs unchanged ⇒ the first round's resolutions are still valid),
//! while writes in between are free to invalidate.

use aiql_engine::{analyze_multievent, reference as oracle, Engine, EngineConfig};
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

/// Queries covering scans, joins, aggregation, and dictionary constraints.
fn query_catalog() -> Vec<&'static str> {
    vec![
        r#"proc p["%exe1.bin"] read file f as e return p, f"#,
        r#"proc p write file f as e return distinct p, f"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, p2, f"#,
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

/// One step of the randomized ingest/query/maintenance interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Commit a batch through both write paths.
    Ingest(Vec<RawEvent>),
    /// Run one catalog query against a pinned snapshot and diff it.
    Query(usize),
    /// Seal every live overlay (maintenance; invisible to queries).
    Flush,
    /// Explicitly compact the live store (maintenance; invisible too).
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Ingest and query dominate; flush/compact are occasional maintenance.
    (
        0u32..8,
        proptest::collection::vec(arb_raw(), 1..12),
        0usize..5,
    )
        .prop_map(|(kind, batch, query)| match kind {
            0..=2 => Op::Ingest(batch),
            3..=5 => Op::Query(query),
            6 => Op::Flush,
            _ => Op::Compact,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of ingest batches, snapshot queries, novelty
    /// flushes, and compaction agree byte for byte with the stop-the-world
    /// reference, across the engine flag cube; identical reruns on a
    /// pinned snapshot never miss the plan cache.
    #[test]
    fn interleaved_ingest_matches_stop_the_world_reference(
        ops in proptest::collection::vec(arb_op(), 1..24),
        flags in 0u32..8,
        flush_rows in 4usize..24,
    ) {
        let parallel = flags & 1 != 0;
        let warm = flags & 2 != 0;
        let background_compaction = flags & 4 != 0;
        let bucket = aiql_model::Duration::from_mins(10);
        // Live: overlay on, auto-compaction (deferred when the flag says
        // so — no executor is wired, so deferred merges drain inline right
        // after each publish, off the commit's critical section).
        let live = SharedStore::new(EventStore::new(StoreConfig {
            time_bucket: bucket,
            batch_size: 16,
            compaction_min_segments: 2,
            novelty_flush_rows: flush_rows,
            background_compaction,
            ..StoreConfig::default()
        }));
        // Reference: seal-per-commit, never compacted — the layout the
        // seed produced. Logical results must not depend on layout.
        let mut reference = EventStore::new(StoreConfig {
            time_bucket: bucket,
            batch_size: 16,
            compaction: false,
            ..StoreConfig::default()
        });
        let config = EngineConfig {
            parallelism: if parallel { 2 } else { 1 },
            join_partitions: 3,
            ..EngineConfig::default()
        };
        // Warm: every query shares one engine's plan cache. Cold: each
        // query plans from scratch on a fresh engine.
        let shared = Engine::new(config.clone());
        let engine = || if warm { shared.clone() } else { Engine::new(config.clone()) };
        let catalog = query_catalog();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Ingest(batch) => {
                    live.write(|s| s.ingest_all(batch));
                    reference.ingest_all(batch);
                }
                Op::Flush => live.write(|s| {
                    s.flush_novelty();
                }),
                Op::Compact => live.write(|s| {
                    s.compact();
                }),
                Op::Query(i) => {
                    let q = parse_query(catalog[*i]).unwrap();
                    let want = engine().execute(&reference, &q).unwrap();
                    // `limit` without `order by` keeps whichever tuples
                    // come first: only the engine's order defines it.
                    if !catalog[*i].contains("limit") {
                        let Query::Multievent(m) = &q else { panic!("multievent catalog") };
                        let a = analyze_multievent(m, &reference).unwrap();
                        let brute = oracle::run_reference(&reference, &a).unwrap();
                        prop_assert_eq!(
                            &brute.normalized().rows, &want.clone().normalized().rows,
                            "step {} query {:?} flags {:03b}: differs from the oracle",
                            step, catalog[*i], flags
                        );
                    }
                    let snap = live.snapshot();
                    let engine = engine();
                    let first = engine.execute(&snap, &q).unwrap();
                    prop_assert_eq!(
                        &want.rows, &first.rows,
                        "step {} query {:?} flags {:03b}: overlay path diverged",
                        step, catalog[*i], flags
                    );
                    prop_assert_eq!(&want.columns, &first.columns);
                    prop_assert_eq!(want.truncated, first.truncated);
                    // Same pinned snapshot, same epochs: the rerun must
                    // not add plan-cache misses.
                    let (_, misses_before) = engine.plan_cache_counters();
                    let second = engine.execute(&snap, &q).unwrap();
                    let (_, misses_after) = engine.plan_cache_counters();
                    prop_assert_eq!(&first.rows, &second.rows);
                    prop_assert_eq!(
                        misses_after, misses_before,
                        "identical rerun on a pinned snapshot missed the cache"
                    );
                }
            }
        }
        // Final maintenance barrier: flush + compact everything, then every
        // catalog query must still agree.
        live.write(|s| {
            s.flush_novelty();
            s.compact();
        });
        for src in catalog {
            let q = parse_query(src).unwrap();
            let want = engine().execute(&reference, &q).unwrap();
            let got = live.read(|s| engine().execute(s, &q)).unwrap();
            prop_assert_eq!(
                &want.rows, &got.rows,
                "post-maintenance {:?} flags {:03b}",
                src, flags
            );
        }
    }
}
