//! Property tests for the join drive (`op/join.rs`): depth-first seed runs
//! delivering into the projection sink, for every pattern count.
//!
//! Its contract, asserted here against randomized stores:
//!
//! * **production ≡ oracle** — uncapped, every return shape over every join
//!   body (and over a single pattern, which has no join at all) equals the
//!   brute-force matcher with the dynamic projection
//!   (`reference::run_reference`), at threads 1 / 2 / 8 × block sizes
//!   1 / 7 / 4096 (blocks of 1 and 7 fan proptest-sized seeds out);
//! * **emission-order prefix under truncation** — with the budget's tuple
//!   cap truncating, the output is the projection of a prefix, in
//!   nested-loop emission order (candidate order for a single pattern), of
//!   the *untruncated* tuples, and the serial and parallel drives agree
//!   byte for byte (rows, order, `truncated`, delivered count, and the
//!   cap's warning: the cap, the level that cut, the runs driven);
//! * **every truncation names its cause** — for every query here a table
//!   is `truncated` exactly when it carries a warning;
//! * **governed modes** — under a memory budget, error mode either
//!   reproduces the ungoverned result or fails with the structured
//!   `MemoryBudget` error; partial mode always returns the projection of an
//!   emission-order prefix, flagged and warned;
//! * **unread final levels count** — over bodies whose join order places a
//!   pattern last that the shape reads at most as `count(e3.…)`, the drive
//!   delivers counts instead of matches, and every contract above holds
//!   with the same delivered counts (the stats show the pattern placed
//!   last);
//! * **memoised suffixes** — over bodies whose shapes see the last levels
//!   only in aggregate (a 4-chain counted by `count(e4.…)`, an id-keyed
//!   `distinct` reading the final pattern, and a chain whose last pattern
//!   is also related to the first), every contract above holds; on fixed
//!   fan-out stores the memo is shown to hit, at every width and block
//!   size, so a drive that silently fell back could not pass;
//! * **`order by … limit k`** — over every body, the limited answer is the
//!   first `k` rows of a stable sort of the serial drive's unordered answer
//!   (ties in emission order), and so is the unlimited ordered one, cut.
//!
//! The two reference implementations share no tuple loop with the sink: the
//! brute-force matcher with the dynamic projection, and the dynamic
//! projection of the emission-order tuple prefix (`match_tuples` +
//! `naive::project`).

use aiql_baseline::naive::{self, reference};
use aiql_engine::exec::{self, MultieventExec};
use aiql_engine::{
    analyze_multievent, Engine, EngineConfig, EngineError, ExecBudget, ResultTable, Rows, Warning,
};
use aiql_lang::{parse_query, MultieventQuery, Query};
use aiql_model::{AgentId, Operation, Timestamp, Value};
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
/// an unbounded 2-chain, a bounded 3-chain, an unbounded 4-chain, a
/// branching 3-pattern seeded by a process start, and (from
/// [`UNREAD_FROM`]) two bodies whose `e3` shares no variable — related to
/// `e2` in time (a timed step) or not at all (a plain one). `e3` has at
/// least as many candidates as `e1` (every write, where `e1`'s are narrowed
/// by `f`) and a later index, and it connects to nothing by a variable, so
/// the join places it last.
const BODIES: [&str; 6] = [
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
    "proc p1 write file f as e1
     proc p2 read file f as e2
     proc p3 write file f3 as e3
     with e1 before e2, e2 before e3\n",
    "proc p1 write file f as e1
     proc p2 read file f as e2
     proc p3 write file f3 as e3
     with e1 before e2\n",
];

/// The first body whose last-placed pattern, `e3`, no shape reads but
/// through `count(e3.…)`.
const UNREAD_FROM: usize = 4;

/// The single-pattern body (index `BODIES.len()`): no join — the drive
/// delivers the scan's candidates, in candidate order, straight to the
/// sink. Binds p1, f, e1.
const SINGLE_BODY: &str = "proc p1 write file f as e1\n";

/// Join bodies whose shapes ([`MEMO_SHAPES`]) reach the join's memo (see
/// `op/join.rs`, "The memo is a property of a level"): the 4-chain counted by
/// `count(e4.…)`, whose counted suffix spans two levels or more (its
/// `distinct p1, p3` reads the timed final pattern); a 3-chain whose
/// id-keyed `distinct` reads `f2`, which its relation-free final pattern
/// binds, so the final interface is `p2` alone; and a chain whose last
/// pattern is related in time only to its first (`e1 before e4`), so the
/// last level's interface is `p2` and the event placed two levels above
/// it. That chain reads before it writes, so where writes are fewer than
/// reads (`fanout_store`) the join seeds on `e2`, and `e1` is no seed
/// event. In each, tuples under one seed share final interfaces, so the
/// memo hits even in one-tuple runs.
const MEMO_BODIES: [&str; 3] = [
    "proc p1 write file f as e1
     proc p2 read file f as e2
     proc p2 write file f2 as e3
     proc p3 read file f2 as e4
     with e1 before e2, e2 before e3, e3 before e4\n",
    "proc p1 write file f as e1
     proc p2 read file f as e2
     proc p2 write file f2 as e3
     with e1 before[10 min] e2\n",
    "proc p1 read file f as e1
     proc p1 write file f2 as e2
     proc p2 read file f2 as e3
     proc p2 write file f3 as e4
     with e1 before e2, e2 before e3, e1 before[40 min] e4\n",
];

/// The shapes of each of [`MEMO_BODIES`]: counted suffixes (`count` over
/// the last pattern, alone or grouped by a variable bound above it) and
/// id-keyed `distinct`s. None depends on tuple order.
const MEMO_SHAPES: [&[&str]; 3] = [
    &[
        "return count(e4.amount) as n",
        "return p1, count(e4.amount) as n, sum(e1.amount) as s group by p1",
        "return distinct p1, p3",
    ],
    &[
        "return distinct p1, f2",
        "return distinct f2",
        "return distinct p2, f2, f, p1",
    ],
    &[
        "return count(e4.amount) as n",
        "return p1, count(e4) as n group by p1",
        "return distinct p1, p2",
        "return distinct p1, f3",
    ],
];

/// The first memo body's index (after every join body and the single
/// pattern).
const MEMO_FROM: usize = BODIES.len() + 1;

/// Bodies a test draws from: every join body, the single pattern, then the
/// memo bodies.
const NBODIES: usize = MEMO_FROM + MEMO_BODIES.len();

/// Return shapes covering every state of the projection sink. Grouped
/// shapes return only keys and aggregates, and the `limit` shape orders by
/// every column, so the answer does not depend on tuple order and the
/// brute-force oracle (which matches in source order) can check it — but
/// for the last two: float sums that depend on addition order in their
/// last bits (parallel partials of it never merge, they are re-driven),
/// and a group's representative, its first tuple, read through a non-key
/// event column and a non-key entity attribute.
const SHAPES: [&str; 12] = [
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
    "return p1, e1.amount as first, f.path as fp, count(e2.amount) as n group by p1",
];

/// Shapes reading the unread bodies' `e3` only through `count`, or not at
/// all; every shape of [`SHAPES`] runs on those bodies too. The last reads
/// a group's representative, which a counted delivery leaves with `e3`
/// unplaced, so its answer depends on which tuple is first.
const UNREAD_SHAPES: [&str; 5] = [
    "return count(e3.amount) as n",
    "return count(e3) as n, sum(e1.amount) as s",
    "return p1, count(e3.amount) as n, max(e2.amount) as hi group by p1",
    "return distinct p2",
    "return p1, e1.amount as first, f.path as fp, count(e3.amount) as n group by p1",
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

/// The columns an `order by` sorts by, `true` for descending.
type SortKeys = &'static [(usize, bool)];

/// Ordered shapes every body can take (each binds `p1`, `f` and `e1`):
/// the return clause, the `order by` clause, and the columns it sorts by.
/// Each sort key ties often, so the tie order — emission order — is what
/// the limited answer keeps.
const ORDERED_SHAPES: [(&str, &str, SortKeys); 4] = [
    (
        "return p1, f, e1.amount as amt",
        "order by amt desc",
        &[(2, true)],
    ),
    (
        "return p1, f, e1.amount as amt",
        "order by f, amt",
        &[(1, false), (2, false)],
    ),
    ("return distinct p1, f", "order by p1", &[(0, false)]),
    (
        "return p1, count(e1.amount) as n group by p1",
        "order by n desc",
        &[(1, true)],
    ),
];

/// The return shapes of a body; `order_free` drops the trailing shapes
/// whose answer depends on tuple order (two of [`SHAPES`], one of each
/// other list but the memo shapes).
fn shapes(body: usize, order_free: bool) -> Vec<&'static str> {
    let cut =
        |list: &[&'static str], n: usize| list[..list.len() - n * usize::from(order_free)].to_vec();
    match body {
        b if b < UNREAD_FROM => cut(&SHAPES, 2),
        b if b < BODIES.len() => [cut(&UNREAD_SHAPES, 1), cut(&SHAPES, 2)].concat(),
        b if b < MEMO_FROM => cut(&SINGLE_SHAPES, 1),
        b => MEMO_SHAPES[b - MEMO_FROM].to_vec(),
    }
}

/// Whether the join placed the unread bodies' `e3` last (vacuous for the
/// other bodies, and when a pattern found nothing and the join never ran).
fn unread_last(body: usize, stats: &exec::ExecStats) -> bool {
    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin");
    let last = join.and_then(|j| j.join_steps.last()).map(|s| s.pattern);
    body < UNREAD_FROM || body >= BODIES.len() || last.is_none_or(|p| p == 2)
}

fn shaped_query(body: usize, shape: &str) -> MultieventQuery {
    let text = match body {
        b if b < BODIES.len() => BODIES[b],
        b if b < MEMO_FROM => SINGLE_BODY,
        b => MEMO_BODIES[b - MEMO_FROM],
    };
    let src = format!("{text}{shape}");
    match parse_query(&src) {
        Ok(Query::Multievent(m)) => m,
        other => panic!("{src:?} must parse as a multievent query, got {other:?}"),
    }
}

/// The drive at a given fan-out and block size. One thread is the serial
/// drive; more fan the runs out whenever the seed fills more than one
/// block.
fn drive_config(threads: usize, block: usize) -> EngineConfig {
    EngineConfig {
        join_block_tuples: block,
        parallelism: threads,
        ..EngineConfig::default()
    }
}

const UNCAPPED: usize = usize::MAX >> 1;

/// A budget whose only limit is the tuple cap `cap`.
fn capped(cap: usize) -> ExecBudget {
    ExecBudget::unlimited().with_max_tuples(cap)
}

/// The truncation rule: a table is `truncated` exactly when it carries a
/// warning naming why.
fn names_its_cause(t: &ResultTable) -> bool {
    t.truncated != t.warnings.is_empty()
}

/// The first `k` of `rows`.
fn prefix(rows: &Rows, k: usize) -> Rows {
    let mut p = rows.clone();
    p.truncate(k);
    p
}

/// Tuples the join pushed into the sink, from the executed operator stats.
fn delivered(stats: &exec::ExecStats) -> usize {
    stats
        .ops
        .iter()
        .find(|o| o.kind == "TemporalJoin")
        .map_or(0, |o| o.rows_out)
}

/// `Engine::execute_multievent_with_stats` under a budget: the engine's
/// executor under `budget`, so a cap or partial mode can be held to the
/// tuples the join delivered before it stopped.
fn governed_with_stats(
    store: &EventStore,
    m: &MultieventQuery,
    config: &EngineConfig,
    budget: &ExecBudget,
) -> Result<(ResultTable, exec::ExecStats), EngineError> {
    let a = analyze_multievent(m, store)?;
    MultieventExec::new(store, &a, config)
        .with_budget(budget)
        .run_with_stats()
}

/// The table and stats of `m` under tuple cap `cap`.
fn run_capped(
    store: &EventStore,
    m: &MultieventQuery,
    config: &EngineConfig,
    cap: usize,
) -> (ResultTable, exec::ExecStats) {
    governed_with_stats(store, m, config, &capped(cap)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `order by … limit k` keeps the first `k` rows of the unlimited
    /// answer in a stable sort by the order keys, at every fan-out and
    /// block size: the serial drive's unordered rows, sorted with ties in
    /// emission order, then cut.
    #[test]
    fn order_by_limit_keeps_the_stably_sorted_prefix(
        raws in proptest::collection::vec(arb_raw(), 1..70),
        body in 0usize..NBODIES,
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
        k in 0usize..12,
    ) {
        let store = build_store(&raws);
        let serial = Engine::new(drive_config(1, 4096));
        let engine = Engine::new(drive_config(threads, block));
        let run = |engine: &Engine, src: &str| {
            let (t, _) = engine
                .execute_multievent_with_stats(&store, &shaped_query(body, src))
                .unwrap();
            assert!(!t.truncated);
            t.rows
        };
        for (ret, order, keys) in ORDERED_SHAPES {
            let emitted = run(&serial, ret);
            let mut sorted: Vec<&[Value]> = emitted.iter().collect();
            sorted.sort_by(|x, y| {
                let by = |&(i, desc): &(usize, bool)| {
                    let ord = aiql_engine::eval::cmp_values(&x[i], &y[i]);
                    if desc { ord.reverse() } else { ord }
                };
                keys.iter().map(by).fold(std::cmp::Ordering::Equal, |a, b| a.then(b))
            });
            let full: Rows = sorted.into_iter().collect();
            let ordered = run(&engine, &format!("{ret} {order}"));
            prop_assert_eq!(
                &ordered, &full,
                "body {} {:?} {:?} block {} threads {}", body, ret, order, block, threads
            );
            let limited = run(&engine, &format!("{ret} {order} limit {k}"));
            prop_assert_eq!(
                &limited, &prefix(&full, k),
                "body {} {:?} {:?} limit {} block {} threads {}",
                body, ret, order, k, block, threads
            );
        }
    }

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
        let engine = Engine::new(drive_config(threads, block));
        for shape in shapes(body, true) {
            let m = shaped_query(body, shape);
            let a = analyze_multievent(&m, &store).unwrap();
            let want = reference::run_reference(&store, &a).unwrap();
            let (got, stats) = engine.execute_multievent_with_stats(&store, &m).unwrap();
            prop_assert!(!got.truncated && got.warnings.is_empty());
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
            prop_assert!(unread_last(body, &stats), "body {} placed e3 early", body);
            // The fusion is observable: a join that ran names what the sink
            // kept (an empty candidate list short-circuits before it).
            let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
            prop_assert!(join
                .sink_kept
                .map_or(join.rows_out == 0, |kept| kept <= join.rows_out));
        }
    }

    /// Under a tuple-cap sweep, every return shape equals the dynamic
    /// projection of the emission-order tuple prefix of the delivered
    /// length (for the single pattern: the candidate-order prefix),
    /// `truncated` matches the unfused drive's and is set exactly when the
    /// cap's warning is, and the serial and parallel drives agree byte for
    /// byte — warning included — at every width.
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
                let (tuples, truncated, _) = MultieventExec::new(&store, &a, &drive_config(1, block))
                    .with_budget(&capped(cap))
                    .match_tuples()
                    .unwrap();
                (tuples, truncated)
            };
            let (full, _) = tuples_at(UNCAPPED);
            let (kept, truncated) = tuples_at(cap);
            prop_assert!(kept.len() <= cap && kept.len() <= full.len());
            let want = naive::project(&store, &a, &full[..kept.len()]).unwrap();
            let (serial, _) = run_capped(&store, &m, &drive_config(1, block), cap);
            for threads in [1usize, 2, 8] {
                let (got, stats) = run_capped(&store, &m, &drive_config(threads, block), cap);
                prop_assert!(unread_last(body, &stats), "body {} placed e3 early", body);
                prop_assert!(names_its_cause(&got), "{:?}", got.warnings);
                prop_assert_eq!(
                    (&want.rows, truncated, kept.len(), &serial.warnings),
                    (&got.rows, got.truncated, delivered(&stats), &got.warnings),
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
        let ungoverned = drive_config(1, block);
        for shape in shapes(body, false) {
            let m = shaped_query(body, shape);
            let a = analyze_multievent(&m, &store).unwrap();
            let (full, _, _) = MultieventExec::new(&store, &a, &ungoverned)
                .match_tuples()
                .unwrap();
            let want_full: ResultTable = naive::project(&store, &a, &full).unwrap();

            let strict = ExecBudget::unlimited().with_memory_bytes(budget_bytes);
            let q = Query::Multievent(m.clone());
            match Engine::new(ungoverned.clone()).execute_with_budget(&store, &q, &strict) {
                Ok(t) => {
                    prop_assert_eq!(&t.rows, &want_full.rows);
                    prop_assert!(!t.truncated && t.warnings.is_empty());
                }
                Err(e) => prop_assert_eq!(e, EngineError::MemoryBudget { budget_bytes }),
            }

            let partial = strict.with_partial_results(true);
            let (p, stats) = governed_with_stats(&store, &m, &ungoverned, &partial)
                .expect("partial mode never errors on a memory trip");
            let k = delivered(&stats);
            prop_assert!(unread_last(body, &stats), "body {} placed e3 early", body);
            prop_assert!(k <= full.len());
            let want = naive::project(&store, &a, &full[..k]).unwrap();
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

    /// Under a truncating tuple cap, the capped result is a prefix — in
    /// nested-loop emission order — of the uncapped one, and the serial and
    /// parallel drives agree byte-for-byte.
    #[test]
    fn capped_drive_emits_an_emission_order_prefix_of_the_uncapped_result(
        raws in proptest::collection::vec(arb_raw(), 1..150),
        cap in prop_oneof![Just(1usize), Just(2), Just(7), Just(100)],
        block in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let store = build_store(&raws);
        let blocked = |cap: usize, parallel: bool, q: &Query| {
            Engine::new(drive_config(if parallel { 4 } else { 1 }, block))
                .execute_with_budget(&store, q, &capped(cap))
                .unwrap()
        };
        for src in prefix_catalog() {
            let q = parse_query(src).unwrap();
            let full = blocked(UNCAPPED, false, &q);
            prop_assert!(!full.truncated, "reference run must be uncapped");
            let got = blocked(cap, false, &q);
            prop_assert!(names_its_cause(&got), "{:?}", got.warnings);
            prop_assert!(
                got.rows.len() <= full.rows.len()
                    && got.rows == prefix(&full.rows, got.rows.len()),
                "query {:?} cap {} block {}: not an emission-order prefix ({} of {})",
                src, cap, block, got.rows.len(), full.rows.len()
            );
            prop_assert!(
                got.truncated || got.rows.len() == full.rows.len(),
                "query {:?} cap {} block {}: shortened result without the truncated flag",
                src, cap, block
            );
            let par = blocked(cap, true, &q);
            prop_assert_eq!(
                (&got.rows, got.truncated, &got.warnings),
                (&par.rows, par.truncated, &par.warnings),
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
                    && p.rows == prefix(&full.rows, p.rows.len()),
                "query {:?} budget {} block {}: partial rows not an emission-order prefix",
                src, budget_bytes, block
            );
            prop_assert!(names_its_cause(&p), "{:?}", p.warnings);
        }
    }
}

/// A fan-out store big enough that the parallel drive's first runs start
/// before any of them has published its output count.
fn fanout_store() -> EventStore {
    fanout_store_of(600)
}

/// The first `n` events of the fan-out store: a third of them writes.
fn fanout_store_of(n: u32) -> EventStore {
    let raws: Vec<RawEvent> = (0..n)
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
            let (want, want_stats) = run_capped(&store, &m, &drive_config(1, 1), cap);
            assert!(want.truncated, "cap {cap} must truncate the fan-out chain");
            for threads in [2usize, 8] {
                for _ in 0..4 {
                    let (got, stats) = run_capped(&store, &m, &drive_config(threads, 1), cap);
                    assert_eq!(
                        (&want.rows, &want.warnings, delivered(&want_stats)),
                        (&got.rows, &got.warnings, delivered(&stats)),
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
    let (full, _) = run_capped(&store, &m, &drive_config(1, 4096), UNCAPPED);
    assert!(!full.truncated && full.rows.len() > 1000);
    for cap in [1usize, 7, 100, 1000, full.rows.len(), full.rows.len() + 1] {
        for block in [7usize, 4096] {
            let (serial, _) = run_capped(&store, &m, &drive_config(1, block), cap);
            assert_eq!(
                serial.rows,
                prefix(&full.rows, serial.rows.len()),
                "cap {cap} block {block}: not an emission-order prefix"
            );
            assert_eq!(
                serial.truncated,
                serial.rows.len() < full.rows.len() || serial.rows.len() >= cap,
                "cap {cap} block {block}: truncated flag wrong ({} of {} rows)",
                serial.rows.len(),
                full.rows.len()
            );
            assert!(names_its_cause(&serial), "{:?}", serial.warnings);
            let (parallel, _) = run_capped(&store, &m, &drive_config(4, block), cap);
            assert_eq!(
                (&serial.rows, serial.truncated, &serial.warnings),
                (&parallel.rows, parallel.truncated, &parallel.warnings),
                "cap {cap} block {block}: serial and parallel capped drives diverged"
            );
        }
    }
}

/// Three processes write a file at minute 0 that fifty processes read, one
/// a minute; every reader writes another file at minute 45. Over the
/// bounded 3-chain (`e1 before[10 min] e2, e2 before[30 min] e3`) a seed
/// write expands into the first eleven reads, and none of those readers
/// writes within 30 minutes of its read.
fn fan_in_store() -> EventStore {
    let event = |op, proc: u32, file: &str, mins: i64| {
        let exe = format!("exe{proc}.bin");
        let (subject, object) = (
            EntitySpec::process(proc, &exe, "user"),
            EntitySpec::file(file, "user"),
        );
        RawEvent::instant(
            AgentId(0),
            op,
            subject,
            object,
            Timestamp::from_secs(mins * 60),
            0,
        )
    };
    let mut raws: Vec<RawEvent> = (0..3)
        .map(|w| event(Operation::Write, w, "/data/shared", 0))
        .collect();
    for r in 0..50 {
        raws.push(event(Operation::Read, 10 + r, "/data/shared", i64::from(r)));
        raws.push(event(Operation::Write, 10 + r, "/data/out", 45));
    }
    build_store(&raws)
}

/// A cap trip names itself: the table carries one `Warning::TupleCap` with
/// the cap, the join level that cut and the runs driven out of the run
/// count — the level and the runs the drive's stats report — and the
/// serial and fanned-out drives report the same one. Where the output
/// fills, the final level cuts; where an intermediate expansion fills and
/// the capped prefix's subtree delivers less than the cap, that level does.
/// A count of the same chain goes through the memo (its levels below the
/// seed are a counted suffix) and cuts exactly where the rows do: on the
/// fan-in store its deliveries never come near the cap, but the window
/// holding the cut must fall back to the per-tuple drive.
#[test]
fn a_cap_trip_names_the_cap_the_cut_level_and_the_runs_driven() {
    let rows = shaped_query(1, "return p1, p2, f, f2");
    let count = shaped_query(1, "return count(e3.amount) as n");
    // (store, cap, the level that cuts), all in one-tuple runs.
    for (store, cap, level) in [(fanout_store(), 50usize, 2usize), (fan_in_store(), 10, 1)] {
        let (serial, stats) = run_capped(&store, &rows, &drive_config(1, 1), cap);
        let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
        let runs = join.join_steps[0].candidates as u64;
        assert!(
            0 < join.runs_driven && join.runs_driven < runs,
            "cap {cap}: the cap must leave runs undriven ({} of {runs})",
            join.runs_driven
        );
        assert_eq!(join.early_exit_depth, Some(level), "cap {cap}");
        let want = vec![Warning::TupleCap {
            cap,
            cut_level: level,
            runs_driven: join.runs_driven,
            runs,
        }];
        assert_eq!((serial.truncated, &serial.warnings), (true, &want));
        let (counted, count_stats) = run_capped(&store, &count, &drive_config(1, 1), cap);
        let memo: u64 = (count_stats.ops.iter())
            .filter(|o| o.kind == "TemporalJoin")
            .flat_map(|o| o.join_steps.iter().map(|s| s.memo_hits + s.memo_misses))
            .sum();
        assert!(memo > 0, "cap {cap}: the count must reach the memo");
        assert_eq!(
            (
                counted.truncated,
                &counted.warnings,
                delivered(&count_stats)
            ),
            (true, &want, delivered(&stats)),
            "cap {cap}: the count must cut where the rows do"
        );
        for threads in [2usize, 8] {
            let (fanned, stats) = run_capped(&store, &rows, &drive_config(threads, 1), cap);
            let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
            assert_eq!(join.fanout, threads.min(runs as usize), "cap {cap}");
            assert_eq!(
                (&fanned.rows, fanned.truncated, &fanned.warnings),
                (&serial.rows, true, &want),
                "cap {cap} threads {threads}"
            );
            let (fanned, _) = run_capped(&store, &count, &drive_config(threads, 1), cap);
            assert_eq!(
                (&fanned.rows, &fanned.warnings),
                (&counted.rows, &want),
                "count: cap {cap} threads {threads}"
            );
        }
    }
}

/// Deterministic spot check: an emission-bound chain reports the drive's
/// demand counters through EXPLAIN ANALYZE stats, under a header naming
/// the scan and the join order, and an id-keyed `distinct` of the same
/// chain reports its final step's memo hits and misses.
#[test]
fn emission_counters_surface_in_stats() {
    let store = fanout_store();
    let src = r#"proc p1 write file f as e1
           proc p2 read file f as e2
           proc p2 write file f2 as e3
           with e1 before e2, e2 before e3
           return p1, p2, f2"#;
    let q = parse_query(src).unwrap();
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
    // A cap below the full cardinality makes the chain emission-bound: the
    // output fills and the drive exits early, leaving the seed runs and
    // windows nobody will consume undriven.
    let (table, stats) = run_capped(&store, &m, &EngineConfig::default(), full.rows.len() / 2);
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
    // The header names both orders: the schedule's scan order and the
    // order the drive joins in, seed first.
    let join_order: Vec<usize> = join.join_steps.iter().map(|s| s.pattern).collect();
    assert!(
        rendered.contains(&format!(
            "scan order {:?}, join order {join_order:?}",
            stats.order
        )),
        "EXPLAIN ANALYZE must name the scan and the join order:\n{rendered}"
    );
    // Plain rows never memoise; an id-keyed `distinct` of the same body
    // reads its final level through the memo, and the step says so.
    assert!(join
        .join_steps
        .iter()
        .all(|s| s.memo_hits + s.memo_misses == 0));
    let aiql_lang::Query::Multievent(m) =
        parse_query(&src.replace("p1, p2, f2", "distinct p1, f2")).unwrap()
    else {
        panic!()
    };
    let (distinct, stats) = Engine::new(EngineConfig::default())
        .execute_multievent_with_stats(&store, &m)
        .unwrap();
    assert!(!distinct.rows.is_empty());
    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
    let last = join.join_steps.last().unwrap();
    assert!(last.memo_hits > 0 && last.memo_misses > 0, "{last:?}");
    let rendered = stats.render();
    assert!(
        rendered.contains(&format!(
            "memo hits {} / misses {}",
            last.memo_hits, last.memo_misses
        )),
        "EXPLAIN ANALYZE must surface the memo:\n{rendered}"
    );
}

/// Memo hits summed over the join's steps.
fn memo_hits(stats: &exec::ExecStats) -> u64 {
    let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin");
    join.map_or(0, |j| j.join_steps.iter().map(|s| s.memo_hits).sum())
}

/// The memo bodies on a fan-out store, where each joins in the order its
/// doc names: at every width and block size the memo hits — a drive that
/// silently fell back to the per-tuple path would not — the answer is the
/// brute-force oracle's, and under a cap that cuts mid-drive the rows
/// project the emission-order prefix the unfused drive keeps, with its
/// delivered count and `truncated`, and the serial drive's warning.
#[test]
fn memoised_bodies_hit_their_memo_and_keep_every_contract() {
    let store = fanout_store_of(300);
    for (b, shapes) in MEMO_SHAPES.iter().enumerate() {
        let body = MEMO_FROM + b;
        for &shape in *shapes {
            let m = shaped_query(body, shape);
            let a = analyze_multievent(&m, &store).unwrap();
            let want = reference::run_reference(&store, &a).unwrap().normalized();
            let tuples_at = |cap: usize, block: usize| {
                let (tuples, truncated, _) =
                    MultieventExec::new(&store, &a, &drive_config(1, block))
                        .with_budget(&capped(cap))
                        .match_tuples()
                        .unwrap();
                (tuples, truncated)
            };
            let (full, _) = tuples_at(UNCAPPED, 4096);
            assert!(
                full.len() > 100,
                "body {b} shape {shape:?}: {} tuples",
                full.len()
            );
            let cap = full.len() / 2;
            for block in [1usize, 7, 4096] {
                let (kept, truncated) = tuples_at(cap, block);
                let want_capped = naive::project(&store, &a, &full[..kept.len()]).unwrap();
                let (serial, _) = run_capped(&store, &m, &drive_config(1, block), cap);
                for threads in [1usize, 2, 8] {
                    let config = drive_config(threads, block);
                    let (got, stats) = run_capped(&store, &m, &config, UNCAPPED);
                    let at = format!("body {b} shape {shape:?} threads {threads} block {block}");
                    assert_eq!(got.normalized().rows, want.rows, "{at}");
                    assert!(memo_hits(&stats) > 0, "{at}: the memo never hit");
                    let (got, stats) = run_capped(&store, &m, &config, cap);
                    assert!(names_its_cause(&got), "{at}: {:?}", got.warnings);
                    assert_eq!(
                        (&want_capped.rows, truncated, kept.len(), &serial.warnings),
                        (&got.rows, got.truncated, delivered(&stats), &got.warnings),
                        "{at} cap {cap}"
                    );
                }
            }
        }
    }
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
    let (full, _) = run_capped(&store, &rows, &drive_config(1, 4096), UNCAPPED);
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
            let config = drive_config(threads, block);
            let (got, stats) = run_capped(&store, &rows, &config, cap);
            assert_eq!(
                (&got.rows, got.truncated, delivered(&stats)),
                (&prefix(&full.rows, kept), truncated, kept),
                "cap {cap} threads {threads} block {block}"
            );
            assert!(names_its_cause(&got), "{:?}", got.warnings);
            // No tuple, no group: a count over nothing returns no row.
            let want: Rows = (kept > 0)
                .then(|| vec![aiql_model::Value::Int(kept as i64)])
                .into_iter()
                .collect();
            let (n, _) = run_capped(&store, &count, &config, cap);
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
    let config = drive_config(1, 16);
    let (full, _) = Engine::new(config.clone())
        .execute_multievent_with_stats(&store, &rows)
        .unwrap();
    // The scan charges its 200 candidate refs (1 600 bytes); the budget
    // leaves room for a few 16-tuple runs of retained rows, not for all.
    let budget_bytes = 4_000;
    let strict = ExecBudget::unlimited().with_memory_bytes(budget_bytes);
    let engine = Engine::new(config.clone());
    let run = |m: &MultieventQuery| {
        engine.execute_with_budget(&store, &Query::Multievent(m.clone()), &strict)
    };
    assert_eq!(
        run(&rows).unwrap_err(),
        EngineError::MemoryBudget { budget_bytes }
    );
    let n = run(&count).unwrap();
    assert_eq!(
        (n.rows, n.truncated),
        (Rows::from_iter([[aiql_model::Value::Int(200)]]), false)
    );

    let partial = strict.clone().with_partial_results(true);
    for threads in [1usize, 2, 8] {
        let config = EngineConfig {
            parallelism: threads,
            ..config.clone()
        };
        let (got, stats) = governed_with_stats(&store, &rows, &config, &partial).unwrap();
        let k = delivered(&stats);
        assert!(
            0 < k && k < full.rows.len() && k.is_multiple_of(16),
            "tripped at a run boundary: {k}"
        );
        assert_eq!(got.rows, prefix(&full.rows, k), "threads {threads}");
        assert!(got.truncated);
        assert_eq!(got.warnings, vec![Warning::MemoryBudget { budget_bytes }]);
    }
}

/// `distinct` over entity references dedups by entity id first and by
/// value second: the same process and file names on two hosts are distinct
/// entities but the same rows, and the forced parallel drive — whose runs
/// learn their own ids and merge by value — returns the serial drive's rows
/// in the serial drive's order.
#[test]
fn id_keyed_distinct_collapses_same_named_entities_across_hosts() {
    let raws: Vec<RawEvent> = (0..400u32)
        .map(|i| {
            RawEvent::instant(
                AgentId(i % 2),
                if (i / 2) % 2 == 0 {
                    Operation::Write
                } else {
                    Operation::Read
                },
                EntitySpec::process(
                    100 + (i / 4) % 3,
                    &format!("exe{}.bin", (i / 4) % 3),
                    "user",
                ),
                EntitySpec::file(&format!("/data/file{}", (i / 12) % 2), "user"),
                Timestamp::from_secs(i64::from(i) * 3),
                u64::from(i),
            )
        })
        .collect();
    let store = build_store(&raws);
    let m = shaped_query(0, "return distinct p1, f");
    let a = analyze_multievent(&m, &store).unwrap();
    let (serial, _) = Engine::new(drive_config(1, 4096))
        .execute_multievent_with_stats(&store, &m)
        .unwrap();
    let want = reference::run_reference(&store, &a).unwrap();
    assert_eq!(serial.clone().normalized().rows, want.normalized().rows);
    // Every row stands for entities on both hosts.
    let (tuples, _, _) = MultieventExec::new(&store, &a, &drive_config(1, 4096))
        .match_tuples()
        .unwrap();
    let slot = |name: &str| a.vars.iter().position(|v| v.name == name).unwrap();
    let (p1, f) = (slot("p1"), slot("f"));
    let keys: std::collections::HashSet<_> =
        tuples.iter().map(|t| (t.vars[p1], t.vars[f])).collect();
    assert_eq!(keys.len(), 2 * serial.rows.len(), "two hosts' ids per row");
    for threads in [2usize, 8] {
        for block in [1usize, 7] {
            let (par, _) = Engine::new(drive_config(threads, block))
                .execute_multievent_with_stats(&store, &m)
                .unwrap();
            assert_eq!(par.rows, serial.rows, "threads {threads} block {block}");
        }
    }
}
