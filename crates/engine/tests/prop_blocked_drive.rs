//! Differential property tests for the blocked demand-driven join drive
//! (PR 10).
//!
//! The blocked drive replaces the breadth-first step loop with depth-first
//! frontier runs (see `op/join.rs` module docs). Its contract, asserted
//! here against randomized stores:
//!
//! * **uncapped byte-identity** — with no cap tripping, the blocked drive
//!   returns tables byte-identical (rows AND order, truncation flag
//!   included) to the breadth-first drive, across the whole
//!   ⟨late-materialization, parallel-join, time-bucket, partitioned-probe,
//!   sideways-filter⟩ cube and block sizes 1 / 7 / 4096;
//! * **emission-order prefix under truncation** — with `max_intermediate`
//!   truncating, the blocked output is a prefix (in nested-loop emission
//!   order) of the *untruncated* result — stronger than breadth-first's
//!   per-step truncation, which is only compared against itself — and the
//!   serial and parallel blocked drives agree byte-for-byte;
//! * **governed modes** — under a memory budget, error mode either
//!   reproduces the ungoverned result or fails with the structured
//!   `MemoryBudget` error; partial mode always returns an emission-order
//!   prefix of the ungoverned result.
//!
//! The drive's final step pushes its tuples into the projection sink
//! (`op/project.rs`), so the same contracts are asserted per *return shape*
//! — plain rows, event columns, `distinct`, single-group aggregates,
//! `group by` + `having`, `order by` + `limit` — against two implementations
//! the sink shares no tuple loop with: the brute-force matcher with the
//! dynamic projection (`reference::run_reference`), and the dynamic
//! projection of the emission-order tuple prefix (`match_tuples` +
//! `exec::project`).

use aiql_engine::exec::{self, MultieventExec};
use aiql_engine::{
    analyze_multievent, reference, Engine, EngineConfig, EngineError, ExecBudget, ResultTable,
};
use aiql_lang::{parse_query, MultieventQuery, Query};
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
        ],
        0u32..4,
        0u32..4,
        0i64..5_000,
        0u64..2_000,
    )
        .prop_map(|(agent, op, subj, obj, secs, amount)| {
            let subject = EntitySpec::process(100 + subj, &format!("exe{subj}.bin"), "user");
            let object = match op {
                Operation::Start => {
                    EntitySpec::process(200 + obj, &format!("child{obj}.bin"), "user")
                }
                // A small file universe makes the joins fan out.
                _ => EntitySpec::file(&format!("/data/file{obj}"), "user"),
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

fn build_store(raws: &[RawEvent]) -> EventStore {
    let mut store = EventStore::new(StoreConfig {
        time_bucket: aiql_model::Duration::from_mins(10),
        dedup: false,
        ..StoreConfig::default()
    });
    store.ingest_all(raws);
    store
}

/// Multievent queries spanning seed shapes the drive cares about:
/// unbounded and bounded chains, a branching 3-pattern, and an aggregate.
/// All but the last are non-aggregated so row order observes tuple
/// emission order directly.
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
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           with e1 before[10 min] e2, e2 before[30 min] e3
           return p1, p2, f, f2"#,
        r#"proc p1 start proc p2 as e1
           proc p2 write file f as e2
           proc p2 write file f2 as e3
           with e1 before e2, e2 before e3
           return p1, p2, f, f2"#,
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           with e1 before e2
           return p1, count(e2.amount) as n
           group by p1"#,
    ]
}

/// The non-aggregated subset: prefix assertions need rows that map 1:1 to
/// emitted join tuples.
fn prefix_catalog() -> Vec<&'static str> {
    query_catalog()
        .into_iter()
        .filter(|q| !q.contains("count("))
        .collect()
}

/// Join bodies the return shapes attach to; each binds p1, p2, f, e1, e2.
const BODIES: [&str; 3] = [
    "proc p1 write file f as e1
     proc p2 read file f as e2
     with e1 before e2\n",
    "proc p1 write file f as e1
     proc p2 read file f as e2
     proc p2 write file f2 as e3
     with e1 before[10 min] e2, e2 before[30 min] e3\n",
    "proc p1 write file f as e1
     proc p2 read file f as e2
     proc p2 write file f2 as e3
     proc p3 read file f2 as e4
     with e1 before e2, e2 before e3, e3 before e4\n",
];

/// Return shapes covering every state of the projection sink. Grouped
/// shapes return only keys and aggregates, and the `limit` shape orders by
/// every column, so the answer does not depend on tuple order and the
/// brute-force oracle (which matches in source order) can check it — but
/// for the last shape, whose float sums depend on addition order in their
/// last bits: parallel partials of it never merge, they are re-driven.
const SHAPES: [&str; 11] = [
    "return p1, p2, f",
    "return e1.id, e2.starttime, e1.endtime, e2.optype, e1.agentid, e2.amount",
    "return distinct p1, f",
    "return count(e2.amount) as n",
    "return sum(e2.amount) as s, min(e2.amount) as lo, max(e1.amount) as hi, avg(e2.amount) as m",
    "return p1, count(e2.amount) as n, sum(e1.amount) as s group by p1 having n > 1",
    "return p1, f, max(e2.endtime) as last group by p1, f",
    "return p2, f group by p2, f",
    "return p1, f order by f desc, p1 limit 7",
    "return distinct p2, e1.amount + e2.amount as both having e1.amount + e2.amount > 1000",
    "return p1, sum(e2.amount / 3) as thirds, avg(e1.amount / 7) as m group by p1",
];

/// The shapes whose answer does not depend on tuple order.
const ORDER_FREE_SHAPES: usize = SHAPES.len() - 1;

fn shaped_query(body: usize, shape: &str) -> MultieventQuery {
    let src = format!("{}{shape}", BODIES[body]);
    match parse_query(&src) {
        Ok(Query::Multievent(m)) => m,
        other => panic!("{src:?} must parse as a multievent query, got {other:?}"),
    }
}

/// The blocked drive at a given executor width, block size and cap; one
/// thread is the serial drive.
fn drive_config(threads: usize, block: usize, max_intermediate: usize) -> EngineConfig {
    EngineConfig {
        max_intermediate,
        join_block_tuples: block,
        parallel_join: threads > 1,
        join_partitions: 3,
        parallelism: threads,
        shared_scan_pool: false,
        parallel_threshold: 0,
        parallel_join_min_work: 0,
        ..EngineConfig::default()
    }
}

const UNCAPPED: usize = usize::MAX >> 1;

/// Tuples the join pushed into the sink, from the executed operator stats.
fn delivered(stats: &exec::ExecStats) -> usize {
    stats
        .ops
        .iter()
        .find(|o| o.kind == "TemporalJoin")
        .map_or(0, |o| o.rows_out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uncapped, every return shape agrees with the brute-force oracle:
    /// exhaustive backtracking plus the dynamic `RowCtx` projection.
    #[test]
    fn every_return_shape_matches_the_brute_force_oracle(
        raws in proptest::collection::vec(arb_raw(), 1..70),
        body in 0usize..3,
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let store = build_store(&raws);
        let engine = Engine::new(drive_config(threads, block, UNCAPPED));
        for shape in &SHAPES[..ORDER_FREE_SHAPES] {
            let m = shaped_query(body, shape);
            let a = analyze_multievent(&m, &store).unwrap();
            let want = reference::run_reference(&store, &a).unwrap();
            let (got, stats) = engine.execute_multievent_with_stats(&store, &m).unwrap();
            prop_assert!(!got.truncated);
            prop_assert_eq!(&want.columns, &got.columns);
            // `order by` fixes the row order; elsewhere the oracle's
            // source-order matching permutes rows, not their multiset.
            let (want, got) = if m.order_by.is_empty() {
                (want.normalized(), got.normalized())
            } else {
                (want, got)
            };
            prop_assert_eq!(
                &want.rows, &got.rows,
                "body {} shape {:?} block {} threads {}", body, shape, block, threads
            );
            // The fusion is observable: a join that ran names what the sink
            // kept (an empty candidate list short-circuits before it).
            let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
            prop_assert!(join
                .sink_kept
                .map_or(join.rows_out == 0, |kept| kept <= join.rows_out));
        }
    }

    /// Under a `max_intermediate` sweep, every return shape equals the
    /// dynamic projection of the emission-order tuple prefix of the
    /// delivered length, `truncated` matches the unfused drive's, and the
    /// serial and parallel drives agree byte for byte at every width.
    #[test]
    fn capped_return_shapes_project_the_emission_order_prefix(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        body in 0usize..3,
        cap in prop_oneof![Just(1usize), Just(2), Just(7), Just(100), Just(UNCAPPED)],
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        for shape in SHAPES {
            let m = shaped_query(body, shape);
            let a = analyze_multievent(&m, &store).unwrap();
            // The unfused drive (no projection above it) keeps its tuples:
            // the emission order, and the prefix a cap leaves of it.
            let tuples_at = |cap: usize| {
                let config = drive_config(1, block, cap);
                let (tuples, truncated, _) =
                    MultieventExec::new(&store, &a, &config).match_tuples().unwrap();
                (tuples, truncated)
            };
            let (full, _) = tuples_at(UNCAPPED);
            let (kept, truncated) = tuples_at(cap);
            prop_assert!(kept.len() <= cap && kept.len() <= full.len());
            let want = exec::project(&store, &a, &full[..kept.len()]).unwrap();
            for threads in [1usize, 2, 8] {
                let engine = Engine::new(drive_config(threads, block, cap));
                let (got, stats) = engine.execute_multievent_with_stats(&store, &m).unwrap();
                prop_assert_eq!(
                    (&want.rows, truncated, kept.len()),
                    (&got.rows, got.truncated, delivered(&stats)),
                    "body {} shape {:?} cap {} block {} threads {}",
                    body, shape, cap, block, threads
                );
            }
        }
    }

    /// Memory governance per return shape: strict mode reproduces the
    /// ungoverned table or fails with the typed budget error; partial mode
    /// returns the projection of the emission-order prefix the join
    /// delivered before the trip, flagged and warned.
    #[test]
    fn governed_return_shapes_project_a_prefix_or_fail_typed(
        raws in proptest::collection::vec(arb_raw(), 20..150),
        body in 0usize..3,
        budget_bytes in 1u64..40_000,
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        let ungoverned = drive_config(1, block, UNCAPPED);
        for shape in SHAPES {
            let m = shaped_query(body, shape);
            let a = analyze_multievent(&m, &store).unwrap();
            let (full, _, _) = MultieventExec::new(&store, &a, &ungoverned)
                .match_tuples()
                .unwrap();
            let want_full: ResultTable = exec::project(&store, &a, &full).unwrap();

            let strict = Engine::new(EngineConfig {
                memory_budget_bytes: budget_bytes,
                ..ungoverned.clone()
            });
            match strict.execute_multievent_with_stats(&store, &m) {
                Ok((t, _)) => prop_assert_eq!(&t.rows, &want_full.rows),
                Err(e) => prop_assert_eq!(e, EngineError::MemoryBudget { budget_bytes }),
            }

            let partial = Engine::new(EngineConfig {
                memory_budget_bytes: budget_bytes,
                partial_results: true,
                ..ungoverned.clone()
            });
            let (p, stats) = partial
                .execute_multievent_with_stats(&store, &m)
                .expect("partial mode never errors on a memory trip");
            let k = delivered(&stats);
            prop_assert!(k <= full.len());
            let want = exec::project(&store, &a, &full[..k]).unwrap();
            prop_assert_eq!(
                &want.rows, &p.rows,
                "body {} shape {:?} budget {} block {}: not the projection of the {}-tuple prefix",
                body, shape, budget_bytes, block, k
            );
            prop_assert_eq!(p.truncated, !p.warnings.is_empty());
            if k < full.len() {
                prop_assert!(p.truncated, "a shortened result must be flagged");
            }
        }
    }

    /// With no cap tripping, the blocked drive is byte-identical to the
    /// breadth-first drive at every point of the configuration cube and
    /// every block size.
    #[test]
    fn blocked_drive_matches_breadth_first_exactly(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        flags in 0u32..32,
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let late_materialization = flags & 1 != 0;
        let parallel_join = flags & 2 != 0;
        let time_bucket_join = flags & 4 != 0;
        let partitioned_probe = flags & 8 != 0;
        let sideways_filters = flags & 16 != 0;
        let store = build_store(&raws);
        let shared = EngineConfig {
            late_materialization,
            parallel_join,
            time_bucket_join,
            partitioned_probe,
            sideways_filters,
            join_partitions: 3,
            parallelism: 4,
            shared_scan_pool: false,
            parallel_threshold: 0,
            parallel_join_min_work: 0,
            ..EngineConfig::default()
        };
        let breadth = Engine::new(EngineConfig {
            blocked_join_drive: false,
            ..shared.clone()
        });
        let blocked = Engine::new(EngineConfig {
            blocked_join_drive: true,
            join_block_tuples: block,
            ..shared
        });
        for src in query_catalog() {
            let q = parse_query(src).unwrap();
            let want = breadth.execute(&store, &q).unwrap();
            let got = blocked.execute(&store, &q).unwrap();
            prop_assert_eq!(
                &want.rows, &got.rows,
                "query {:?} flags {:05b} block {}: rows/order differ ({} vs {})",
                src, flags, block, want.rows.len(), got.rows.len()
            );
            prop_assert_eq!(
                want.truncated, got.truncated,
                "query {:?} flags {:05b} block {}: truncation flag differs",
                src, flags, block
            );
        }
    }

    /// Under a truncating `max_intermediate`, the blocked drive emits a
    /// prefix — in nested-loop emission order — of the untruncated result,
    /// and the serial and parallel blocked drives agree byte-for-byte.
    #[test]
    fn capped_blocked_drive_emits_an_emission_order_prefix(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        cap in prop_oneof![Just(1usize), Just(2), Just(7), Just(100)],
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        let blocked = |max_intermediate: usize, parallel: bool| {
            Engine::new(EngineConfig {
                max_intermediate,
                join_block_tuples: block,
                parallel_join: parallel,
                join_partitions: 3,
                parallelism: if parallel { 4 } else { 1 },
                shared_scan_pool: false,
                parallel_threshold: 0,
                parallel_join_min_work: 0,
                ..EngineConfig::default()
            })
        };
        for src in prefix_catalog() {
            let q = parse_query(src).unwrap();
            let full = blocked(usize::MAX >> 1, false).execute(&store, &q).unwrap();
            prop_assert!(!full.truncated, "reference run must be uncapped");
            let got = blocked(cap, false).execute(&store, &q).unwrap();
            prop_assert!(
                got.rows.len() <= full.rows.len()
                    && got.rows[..] == full.rows[..got.rows.len()],
                "query {:?} cap {} block {}: not an emission-order prefix ({} of {})",
                src, cap, block, got.rows.len(), full.rows.len()
            );
            prop_assert!(
                got.truncated || got.rows.len() == full.rows.len(),
                "query {:?} cap {} block {}: shortened result without the truncated flag",
                src, cap, block
            );
            let par = blocked(cap, true).execute(&store, &q).unwrap();
            prop_assert_eq!(
                (&got.rows, got.truncated),
                (&par.rows, par.truncated),
                "query {:?} cap {} block {}: serial and parallel capped drives diverged",
                src, cap, block
            );
        }
    }

    /// Memory governance: error mode reproduces the ungoverned result or
    /// fails with the structured budget error; partial mode always returns
    /// an emission-order prefix (with the trip surfaced as a warning).
    #[test]
    fn governed_blocked_drive_honours_budget_modes(
        raws in proptest::collection::vec(arb_raw(), 20..150),
        budget_bytes in 1u64..40_000,
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        let engine = Engine::new(EngineConfig {
            join_block_tuples: block,
            ..EngineConfig::default()
        });
        for src in prefix_catalog() {
            let q = parse_query(src).unwrap();
            let full = engine.execute(&store, &q).unwrap();

            let strict = ExecBudget::unlimited().with_memory_bytes(budget_bytes);
            match engine.execute_with_budget(&store, &q, &strict) {
                Ok(t) => prop_assert_eq!(
                    &t.rows, &full.rows,
                    "query {:?} budget {}: untripped strict run diverged",
                    src, budget_bytes
                ),
                Err(e) => prop_assert_eq!(e, EngineError::MemoryBudget { budget_bytes }),
            }

            let partial = ExecBudget::unlimited()
                .with_memory_bytes(budget_bytes)
                .with_partial_results(true);
            let p = engine
                .execute_with_budget(&store, &q, &partial)
                .expect("partial mode never errors on a memory trip");
            prop_assert!(
                p.rows.len() <= full.rows.len()
                    && p.rows[..] == full.rows[..p.rows.len()],
                "query {:?} budget {} block {}: partial rows not an emission-order prefix",
                src, budget_bytes, block
            );
            if !p.warnings.is_empty() {
                prop_assert!(p.truncated, "a warned partial result must be flagged");
            }
        }
    }
}

/// A fan-out store big enough that the parallel drive's first runs start
/// before any of them has published its output count.
fn fanout_store() -> EventStore {
    let raws: Vec<RawEvent> = (0..600)
        .map(|i| {
            RawEvent::instant(
                AgentId(i % 4),
                // Pairwise-coprime moduli (3, 4, 5, 7) keep op, agent, proc,
                // and file decorrelated so the chain fans out.
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
    build_store(&raws)
}

/// The run that straddles the output cap: concurrently started runs each
/// see the whole cap, so the later one overshoots the room the earlier one
/// left, cannot be trimmed once projected, and is re-driven on the merge
/// thread with the exact remaining room. Every shape must come out as the
/// serial drive's.
#[test]
fn parallel_run_straddling_the_cap_is_redriven_to_the_serial_result() {
    let store = fanout_store();
    for shape in SHAPES {
        let m = shaped_query(1, shape);
        for cap in [3usize, 10, 50, 200, 1000] {
            let serial = Engine::new(drive_config(1, 1, cap));
            let (want, want_stats) = serial.execute_multievent_with_stats(&store, &m).unwrap();
            assert!(want.truncated, "cap {cap} must truncate the fan-out chain");
            for threads in [2usize, 8] {
                let parallel = Engine::new(drive_config(threads, 1, cap));
                for _ in 0..4 {
                    let (got, stats) = parallel.execute_multievent_with_stats(&store, &m).unwrap();
                    assert_eq!(
                        (&want.rows, want.truncated, delivered(&want_stats)),
                        (&got.rows, got.truncated, delivered(&stats)),
                        "shape {:?} cap {cap} threads {threads}",
                        shape
                    );
                }
            }
        }
    }
}

/// Deterministic spot check: an emission-bound chain reports the new
/// demand counters through EXPLAIN ANALYZE stats, and the blocked drive
/// emits no more than the breadth-first bound.
#[test]
fn emission_counters_surface_in_stats() {
    let store = fanout_store();
    let q = parse_query(
        r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           with e1 before e2, e2 before e3
           return p1, p2, f2"#,
    )
    .unwrap();
    let aiql_lang::Query::Multievent(m) = q else {
        panic!()
    };
    let (full, _) = Engine::new(EngineConfig::default())
        .execute_multievent_with_stats(&store, &m)
        .unwrap();
    assert!(
        full.rows.len() > 16,
        "chain must fan out for this check, got {}",
        full.rows.len()
    );
    let engine = Engine::new(EngineConfig {
        // A cap below the full cardinality makes the chain emission-bound:
        // the output arena fills, the drive exits early, and the breadth
        // bound exceeds the demand-driven emission count.
        max_intermediate: full.rows.len() / 2,
        ..EngineConfig::default()
    });
    let (table, stats) = engine.execute_multievent_with_stats(&store, &m).unwrap();
    assert!(table.truncated, "the tight cap must truncate");
    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
    assert!(join.runs_driven > 0, "blocked drive must report its runs");
    assert!(join.emitted_tuples > 0);
    assert!(
        join.emitted_tuples < join.breadth_bound_tuples,
        "an early-exiting drive must beat the breadth-first emission bound \
         ({} vs {})",
        join.emitted_tuples,
        join.breadth_bound_tuples
    );
    assert!(
        join.early_exit_depth.is_some(),
        "a truncated drive reports where it stopped"
    );
    let rendered = stats.render();
    assert!(
        rendered.contains("runs ") && rendered.contains("breadth bound"),
        "EXPLAIN ANALYZE must surface the emission counters:\n{rendered}"
    );
    // The join pushed into the projection sink: it names what was kept of
    // what it emitted (plain rows keep every tuple).
    assert_eq!(join.sink_kept, Some(join.rows_out));
    assert_eq!(join.rows_out, table.rows.len());
    assert!(
        rendered.contains(&format!(
            "sink: emitted {} → kept {}",
            join.rows_out, join.rows_out
        )),
        "EXPLAIN ANALYZE must surface the fusion:\n{rendered}"
    );
}
