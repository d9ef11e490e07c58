//! Property tests for the join drive (`op/join.rs`): depth-first seed runs
//! delivering into the projection sink, for every pattern count.
//!
//! Its contract, asserted here against randomized stores:
//!
//! * **production ≡ oracle** — uncapped, every return shape over every join
//!   body (and over a single pattern, which has no join at all) equals the
//!   brute-force matcher with the dynamic projection
//!   (`reference::run_reference`), at threads 1 / 2 / 8 × block sizes
//!   1 / 7 / 4096 × forced `join_partitions`;
//! * **emission-order prefix under truncation** — with `max_intermediate`
//!   truncating, the output is the projection of a prefix, in nested-loop
//!   emission order (candidate order for a single pattern), of the
//!   *untruncated* tuples, and the serial and parallel drives agree byte
//!   for byte (rows, order, `truncated`, delivered count);
//! * **governed modes** — under a memory budget, error mode either
//!   reproduces the ungoverned result or fails with the structured
//!   `MemoryBudget` error; partial mode always returns the projection of an
//!   emission-order prefix, flagged and warned.
//!
//! The two reference implementations share no tuple loop with the sink: the
//! brute-force matcher with the dynamic projection, and the dynamic
//! projection of the emission-order tuple prefix (`match_tuples` +
//! `exec::project`).

use aiql_engine::exec::{self, MultieventExec};
use aiql_engine::{
    analyze_multievent, reference, Engine, EngineConfig, EngineError, ExecBudget, ResultTable,
    Warning,
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

/// Join bodies the return shapes attach to; each binds p1, p2, f, e1, e2:
/// an unbounded 2-chain, a bounded 3-chain, an unbounded 4-chain, and a
/// branching 3-pattern seeded by a process start.
const BODIES: [&str; 4] = [
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
    "proc p1 start proc p2 as e1
     proc p2 write file f as e2
     proc p2 write file f2 as e3
     with e1 before e2, e2 before e3\n",
];

/// The single-pattern body (index `BODIES.len()`): no join — the drive
/// delivers the scan's candidates, in candidate order, straight to the
/// sink. Binds p1, f, e1.
const SINGLE_BODY: &str = "proc p1 write file f as e1\n";

/// Bodies a test draws from: every join body, then the single pattern.
const NBODIES: usize = BODIES.len() + 1;

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

/// The single pattern's shapes — plain, `distinct`, `count`, `group by`,
/// `order by` + `limit` (ordered by every column) — then one whose float
/// sums depend on addition order.
const SINGLE_SHAPES: [&str; 6] = [
    "return p1, f, e1.amount, e1.starttime",
    "return distinct p1, f",
    "return count(e1.amount) as n",
    "return p1, count(e1.amount) as n, sum(e1.amount) as s, max(e1.endtime) as last group by p1",
    "return p1, f order by f desc, p1 limit 7",
    "return f, sum(e1.amount / 3) as thirds group by f",
];

/// The return shapes of a body; `order_free` drops the trailing shape whose
/// answer depends on tuple order.
fn shapes(body: usize, order_free: bool) -> &'static [&'static str] {
    let all: &[&str] = if body < BODIES.len() {
        &SHAPES
    } else {
        &SINGLE_SHAPES
    };
    &all[..all.len() - usize::from(order_free)]
}

fn shaped_query(body: usize, shape: &str) -> MultieventQuery {
    let src = format!("{}{shape}", BODIES.get(body).unwrap_or(&SINGLE_BODY));
    match parse_query(&src) {
        Ok(Query::Multievent(m)) => m,
        other => panic!("{src:?} must parse as a multievent query, got {other:?}"),
    }
}

/// The drive at a given fan-out, block size and cap. One thread attaches
/// no executor: the serial drive. More force the parallel drive, sharded
/// index builds and pooled scans onto proptest-sized inputs.
fn drive_config(threads: usize, block: usize, max_intermediate: usize) -> EngineConfig {
    EngineConfig {
        max_intermediate,
        join_block_tuples: block,
        join_partitions: 3,
        parallelism: threads,
        parallel_threshold: 0,
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
        body in 0usize..NBODIES,
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let store = build_store(&raws);
        let engine = Engine::new(drive_config(threads, block, UNCAPPED));
        for shape in shapes(body, true) {
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
    /// delivered length (for the single pattern: the candidate-order
    /// prefix), `truncated` matches the unfused drive's, and the serial and
    /// parallel drives agree byte for byte at every width.
    #[test]
    fn capped_return_shapes_project_the_emission_order_prefix(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        body in 0usize..NBODIES,
        cap in prop_oneof![Just(1usize), Just(2), Just(7), Just(100), Just(UNCAPPED)],
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        for shape in shapes(body, false) {
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
        body in 0usize..NBODIES,
        budget_bytes in 1u64..40_000,
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        let ungoverned = drive_config(1, block, UNCAPPED);
        for shape in shapes(body, false) {
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

    /// Under a truncating `max_intermediate`, the capped result is a prefix
    /// — in nested-loop emission order — of the uncapped one, and the
    /// serial and parallel drives agree byte-for-byte.
    #[test]
    fn capped_drive_emits_an_emission_order_prefix_of_the_uncapped_result(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        cap in prop_oneof![Just(1usize), Just(2), Just(7), Just(100)],
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        let blocked = |max_intermediate: usize, parallel: bool| {
            Engine::new(drive_config(if parallel { 4 } else { 1 }, block, max_intermediate))
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
    fn governed_drive_honours_budget_modes(
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

/// A fan-out chain under a cap sweep: the capped rows are an emission-order
/// prefix of the uncapped ones, `truncated` is set exactly when rows are
/// missing or the cap was reached, and the serial and parallel drives agree
/// at every cap and block size.
#[test]
fn capped_chain_sets_truncated_exactly() {
    let store = fanout_store();
    let m = shaped_query(1, "return p1, p2, f, f2");
    let (full, _) = Engine::new(drive_config(1, 4096, UNCAPPED))
        .execute_multievent_with_stats(&store, &m)
        .unwrap();
    assert!(!full.truncated && full.rows.len() > 1000);
    for cap in [1usize, 7, 100, 1000, full.rows.len(), full.rows.len() + 1] {
        for block in [7usize, 4096] {
            let (serial, _) = Engine::new(drive_config(1, block, cap))
                .execute_multievent_with_stats(&store, &m)
                .unwrap();
            assert_eq!(
                &serial.rows[..],
                &full.rows[..serial.rows.len()],
                "cap {cap} block {block}: not an emission-order prefix"
            );
            assert_eq!(
                serial.truncated,
                serial.rows.len() < full.rows.len() || serial.rows.len() >= cap,
                "cap {cap} block {block}: truncated flag wrong ({} of {} rows)",
                serial.rows.len(),
                full.rows.len()
            );
            let (parallel, _) = Engine::new(drive_config(4, block, cap))
                .execute_multievent_with_stats(&store, &m)
                .unwrap();
            assert_eq!(
                (&serial.rows, serial.truncated),
                (&parallel.rows, parallel.truncated),
                "cap {cap} block {block}: serial and parallel capped drives diverged"
            );
        }
    }
}

/// Deterministic spot check: an emission-bound chain reports the drive's
/// demand counters through EXPLAIN ANALYZE stats.
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
    let (full, full_stats) = Engine::new(EngineConfig::default())
        .execute_multievent_with_stats(&store, &m)
        .unwrap();
    assert!(
        full.rows.len() > 16,
        "chain must fan out for this check, got {}",
        full.rows.len()
    );
    let emitted = |stats: &exec::ExecStats| {
        let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
        join.emitted_tuples
    };
    let engine = Engine::new(EngineConfig {
        // A cap below the full cardinality makes the chain emission-bound:
        // the output fills and the drive exits early, leaving the seed runs
        // and windows nobody will consume undriven.
        max_intermediate: full.rows.len() / 2,
        ..EngineConfig::default()
    });
    let (table, stats) = engine.execute_multievent_with_stats(&store, &m).unwrap();
    assert!(table.truncated, "the tight cap must truncate");
    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
    assert!(join.runs_driven > 0, "the drive must report its runs");
    assert!(join.emitted_tuples > 0);
    assert!(
        join.emitted_tuples < emitted(&full_stats),
        "an early-exiting drive must emit less than the drive that ran to completion \
         ({} vs {})",
        join.emitted_tuples,
        emitted(&full_stats)
    );
    assert!(
        join.early_exit_depth.is_some(),
        "a truncated drive reports where it stopped"
    );
    let rendered = stats.render();
    assert!(
        rendered.contains("runs ")
            && rendered.contains("emitted ")
            && !rendered.contains("breadth"),
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

/// The single pattern under caps, pinned at the parent commit (whose
/// breadth-first loop served it) before that loop was deleted: the result is
/// the projection of the candidate-order prefix of `cap` tuples, and
/// `truncated` is set exactly when the candidate count reaches the cap —
/// also when it only just does. `fanout_store` holds 200 writes.
#[test]
fn single_pattern_caps_truncate_exactly_as_the_parent_commit_did() {
    let store = fanout_store();
    let rows = shaped_query(BODIES.len(), "return p1, f, e1.amount");
    let count = shaped_query(BODIES.len(), "return count(e1.amount) as n");
    let (full, _) = Engine::new(drive_config(1, 4096, UNCAPPED))
        .execute_multievent_with_stats(&store, &rows)
        .unwrap();
    assert_eq!((full.rows.len(), full.truncated), (200, false));
    // (cap, rows kept, truncated) as the parent commit answered.
    for (cap, kept, truncated) in [
        (0usize, 0usize, true),
        (1, 1, true),
        (7, 7, true),
        (199, 199, true),
        (200, 200, true),
        (201, 200, false),
        (UNCAPPED, 200, false),
    ] {
        for (threads, block) in [(1usize, 4096usize), (1, 7), (2, 7), (8, 1)] {
            let engine = Engine::new(drive_config(threads, block, cap));
            let (got, stats) = engine.execute_multievent_with_stats(&store, &rows).unwrap();
            assert_eq!(
                (&got.rows[..], got.truncated, delivered(&stats)),
                (&full.rows[..kept], truncated, kept),
                "cap {cap} threads {threads} block {block}"
            );
            // No tuple, no group: a count over nothing returns no row.
            let want: Vec<_> = (kept > 0)
                .then(|| vec![aiql_model::Value::Int(kept as i64)])
                .into_iter()
                .collect();
            let (n, _) = engine
                .execute_multievent_with_stats(&store, &count)
                .unwrap();
            assert_eq!(
                (n.rows, n.truncated),
                (want, truncated),
                "count under cap {cap} threads {threads} block {block}"
            );
        }
    }
}

/// The single pattern under a memory budget: the drive live-charges what
/// the output retains, run by run. Strict mode fails typed; partial mode
/// keeps the projection of the candidate-order prefix delivered before the
/// trip, flagged and warned; a count retains next to nothing, so the same
/// budget lets it finish.
#[test]
fn single_pattern_memory_budget_yields_a_prefix_or_the_typed_error() {
    let store = fanout_store();
    let rows = shaped_query(BODIES.len(), "return p1, f, e1.amount");
    let count = shaped_query(BODIES.len(), "return count(e1.amount) as n");
    let config = drive_config(1, 16, UNCAPPED);
    let (full, _) = Engine::new(config.clone())
        .execute_multievent_with_stats(&store, &rows)
        .unwrap();
    // The scan charges its 200 candidate refs (1 600 bytes); the budget
    // leaves room for a few 16-tuple runs of retained rows, not for all.
    let budget_bytes = 4_000;
    let strict = Engine::new(EngineConfig {
        memory_budget_bytes: budget_bytes,
        ..config.clone()
    });
    assert_eq!(
        strict
            .execute_multievent_with_stats(&store, &rows)
            .unwrap_err(),
        EngineError::MemoryBudget { budget_bytes }
    );
    let (n, _) = strict
        .execute_multievent_with_stats(&store, &count)
        .unwrap();
    assert_eq!(
        (n.rows, n.truncated),
        (vec![vec![aiql_model::Value::Int(200)]], false)
    );

    for threads in [1usize, 2, 8] {
        let partial = Engine::new(EngineConfig {
            memory_budget_bytes: budget_bytes,
            partial_results: true,
            parallelism: threads,
            ..config.clone()
        });
        let (got, stats) = partial
            .execute_multievent_with_stats(&store, &rows)
            .unwrap();
        let k = delivered(&stats);
        assert!(
            0 < k && k < full.rows.len() && k.is_multiple_of(16),
            "tripped at a run boundary: {k}"
        );
        assert_eq!(&got.rows[..], &full.rows[..k], "threads {threads}");
        assert!(got.truncated);
        assert_eq!(got.warnings, vec![Warning::MemoryBudget { budget_bytes }]);
    }
}
