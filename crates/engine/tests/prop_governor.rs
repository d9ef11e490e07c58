//! Governor semantics (PR 6): deadlines, cancellation, and memory budgets
//! tripping at arbitrary points of a 4-pattern join chain.
//!
//! The contract under test:
//!
//! * **Error mode** (default): a tripped budget unwinds cleanly with the
//!   matching structured error — `DeadlineExceeded`, `Cancelled`, or
//!   `MemoryBudget` — and the engine (store, plan cache, shared pool)
//!   remains fully usable afterwards.
//! * **Partial mode** (`partial_results`): the query returns a
//!   *prefix-preserving* truncated table — its rows are a prefix of the
//!   ungoverned result — flagged `truncated` and carrying a [`Warning`].
//! * **Determinism**: a memory budget forces the serial join drive, which
//!   live-charges what it keeps at run and window boundaries, so a serial
//!   and a parallel configuration trip at the same tuple and return
//!   byte-identical tables.
//! * **Panic containment**: a worker panic mid-scan surfaces as
//!   `WorkerPanic` for the owning query only; the process-wide pool keeps
//!   serving subsequent queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aiql_engine::{
    CancelToken, Clock, Engine, EngineConfig, EngineError, ExecBudget, ManualClock, ResultTable,
    Warning,
};
use aiql_lang::parse_query;
use aiql_model::{AgentId, Operation, Timestamp, Value};
use aiql_storage::{EntitySpec, EventStore, RawEvent, StoreConfig};
use proptest::prelude::*;

/// The 4-pattern chain from the operator-pipeline differential suite: a
/// join deep enough that budgets can trip in any of its steps.
const CHAIN_QUERY: &str = r#"proc p1 write file f as e1
   proc p2 read file f as e2
   proc p2 write file f2 as e3
   proc p3 read file f2 as e4
   with e1 before e2, e2 before e3, e3 before e4
   return p1, p3, f, f2"#;

fn arb_raw() -> impl Strategy<Value = RawEvent> {
    (
        0u32..3,
        prop_oneof![Just(Operation::Read), Just(Operation::Write)],
        0u32..4,
        0u32..3,
        0i64..5_000,
        0u64..2_000,
    )
        .prop_map(|(agent, op, subj, obj, secs, amount)| {
            RawEvent::instant(
                AgentId(agent),
                op,
                EntitySpec::process(100 + subj, &format!("exe{subj}.bin"), "user"),
                EntitySpec::file(&format!("/data/file{obj}"), "user"),
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

/// A governed config: `parallel` toggles both the run-sharded join drive
/// and the pooled parallel scans that the governor must coordinate with.
fn config(parallel: bool) -> EngineConfig {
    EngineConfig {
        parallelism: if parallel { 4 } else { 1 },
        join_partitions: if parallel { 3 } else { 0 },
        parallel_threshold: 0,
        ..EngineConfig::default()
    }
}

/// Asserts `partial` is a row-prefix of `full` (the partial-mode contract
/// for non-aggregated queries).
fn assert_prefix(partial: &aiql_engine::ResultTable, full: &aiql_engine::ResultTable) {
    assert!(
        partial.rows.len() <= full.rows.len(),
        "partial result larger than the full one: {} > {}",
        partial.rows.len(),
        full.rows.len()
    );
    assert_eq!(
        partial.rows[..],
        full.rows[..partial.rows.len()],
        "partial rows are not a prefix of the full result"
    );
}

#[test]
fn precancelled_query_errors_cleanly_and_engine_survives() {
    let raws: Vec<RawEvent> = (0..200)
        .map(|i| {
            RawEvent::instant(
                AgentId((i % 3) as u32),
                if i % 2 == 0 {
                    Operation::Write
                } else {
                    Operation::Read
                },
                EntitySpec::process(100 + (i % 4) as u32, &format!("exe{}.bin", i % 4), "user"),
                EntitySpec::file(&format!("/data/file{}", i % 3), "user"),
                Timestamp::from_secs(i),
                i as u64,
            )
        })
        .collect();
    let store = build_store(&raws);
    let engine = Engine::new(config(true));

    let token = CancelToken::new();
    token.cancel();
    let budget = ExecBudget::unlimited().with_cancel(token);
    let query = parse_query(CHAIN_QUERY).unwrap();
    let err = engine
        .execute_with_budget(&store, &query, &budget)
        .unwrap_err();
    assert_eq!(err, EngineError::Cancelled);

    // The engine (plan cache, pool) is untouched: the same query runs
    // ungoverned to completion afterwards.
    engine.execute(&store, &query).unwrap();
}

#[test]
fn precancelled_partial_mode_returns_empty_prefix_with_warning() {
    let raws: Vec<RawEvent> = (0..100)
        .map(|i| {
            RawEvent::instant(
                AgentId(1),
                Operation::Write,
                EntitySpec::process(100, "exe0.bin", "user"),
                EntitySpec::file(&format!("/data/file{}", i % 3), "user"),
                Timestamp::from_secs(i),
                i as u64,
            )
        })
        .collect();
    let store = build_store(&raws);
    let engine = Engine::new(config(false));

    let token = CancelToken::new();
    token.cancel();
    let budget = ExecBudget::unlimited()
        .with_cancel(token)
        .with_partial_results(true);
    let table = engine
        .execute_text_with_budget(&store, "proc p write file f as e return p, f", &budget)
        .unwrap();
    assert!(table.truncated);
    assert_eq!(table.warnings, vec![Warning::Cancelled]);
    assert!(table.rows.is_empty(), "pre-cancelled query produced rows");
}

#[test]
fn expired_deadline_maps_to_structured_error() {
    let store = build_store(&[RawEvent::instant(
        AgentId(1),
        Operation::Write,
        EntitySpec::process(100, "exe0.bin", "user"),
        EntitySpec::file("/data/file0", "user"),
        Timestamp::from_secs(1),
        10,
    )]);
    let engine = Engine::new(config(false));
    let budget = ExecBudget::unlimited().with_deadline(Duration::ZERO);
    let err = engine
        .execute_text_with_budget(&store, "proc p write file f as e return p", &budget)
        .unwrap_err();
    assert_eq!(err, EngineError::DeadlineExceeded { deadline_ms: 0 });
}

#[test]
fn config_level_governor_tunables_apply() {
    let store = build_store(&[RawEvent::instant(
        AgentId(1),
        Operation::Write,
        EntitySpec::process(100, "exe0.bin", "user"),
        EntitySpec::file("/data/file0", "user"),
        Timestamp::from_secs(1),
        10,
    )]);
    // memory_budget_bytes: 1 cannot hold a single scanned batch: error mode
    // surfaces MemoryBudget, partial mode a truncated (empty) prefix.
    let strict = Engine::new(EngineConfig {
        memory_budget_bytes: 1,
        ..config(false)
    });
    let err = strict
        .execute_text(&store, "proc p write file f as e return p")
        .unwrap_err();
    assert_eq!(err, EngineError::MemoryBudget { budget_bytes: 1 });

    let lenient = Engine::new(EngineConfig {
        memory_budget_bytes: 1,
        partial_results: true,
        ..config(false)
    });
    let table = lenient
        .execute_text(&store, "proc p write file f as e return p")
        .unwrap();
    assert!(table.truncated);
    assert_eq!(
        table.warnings,
        vec![Warning::MemoryBudget { budget_bytes: 1 }]
    );
}

#[test]
fn mid_query_cancel_from_another_thread_is_clean_and_sticky() {
    let raws: Vec<RawEvent> = (0..3_000)
        .map(|i| {
            RawEvent::instant(
                AgentId((i % 3) as u32),
                if i % 2 == 0 {
                    Operation::Write
                } else {
                    Operation::Read
                },
                EntitySpec::process(100 + (i % 4) as u32, &format!("exe{}.bin", i % 4), "user"),
                EntitySpec::file(&format!("/data/file{}", i % 3), "user"),
                Timestamp::from_secs(i % 4_000),
                i as u64,
            )
        })
        .collect();
    let store = build_store(&raws);
    let engine = Engine::new(config(true));
    let query = parse_query(CHAIN_QUERY).unwrap();

    let token = CancelToken::new();
    let budget = ExecBudget::unlimited().with_cancel(token.clone());
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(1));
            token.cancel();
        })
    };
    // Depending on timing the query finishes first or observes the cancel;
    // both are clean outcomes, anything else is a containment bug.
    let started = Instant::now();
    match engine.execute_with_budget(&store, &query, &budget) {
        Ok(_) => {}
        Err(e) => assert_eq!(e, EngineError::Cancelled),
    }
    // Enforcement is bounded by `GOV_CHECK_INTERVAL` tuples of work, not by
    // query size. The bound is loose on purpose: it catches a cancel that
    // is ignored until the join finishes, not a slow host.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cancel took {:?} to surface",
        started.elapsed()
    );
    canceller.join().unwrap();

    // The trip is sticky on the token, not the engine: a fresh run under
    // the now-cancelled token trips immediately, an unbudgeted run works.
    let err = engine
        .execute_with_budget(&store, &query, &budget)
        .unwrap_err();
    assert_eq!(err, EngineError::Cancelled);
    engine.execute(&store, &query).unwrap();
}

#[test]
fn worker_panic_is_contained_and_pool_stays_healthy() {
    let raws: Vec<RawEvent> = (0..400)
        .map(|i| {
            RawEvent::instant(
                AgentId((i % 3) as u32),
                Operation::Write,
                EntitySpec::process(100 + (i % 4) as u32, &format!("exe{}.bin", i % 4), "user"),
                EntitySpec::file(&format!("/data/file{}", i % 3), "user"),
                Timestamp::from_secs(i),
                i as u64,
            )
        })
        .collect();
    let store = build_store(&raws);
    let query = parse_query("proc p write file f as e return p, f").unwrap();

    // Chaos engine: every pooled scan task panics. The panic must surface
    // as a structured WorkerPanic for this query, not abort the process or
    // poison the shared executor.
    let chaos = Engine::new(EngineConfig {
        inject_scan_panic: true,
        ..config(true)
    });
    let err = chaos.execute(&store, &query).unwrap_err();
    match &err {
        EngineError::WorkerPanic { message } => {
            assert!(message.contains("injected scan panic"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    // The same process-wide pool keeps serving: a healthy engine returns
    // the exact serial-reference result after the panic...
    let healthy = Engine::new(config(true));
    let expected = Engine::new(config(false)).execute(&store, &query).unwrap();
    let got = healthy.execute(&store, &query).unwrap();
    assert_eq!(got, expected);

    // ...and the chaos engine keeps failing cleanly, run after run.
    let err2 = chaos.execute(&store, &query).unwrap_err();
    assert!(matches!(err2, EngineError::WorkerPanic { .. }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// A memory budget tripping at a random point of the chain either
    /// errors with `MemoryBudget` (error mode) or returns a prefix of the
    /// ungoverned result (partial mode) — byte-identical across the serial
    /// and parallel joins.
    #[test]
    fn memory_budget_prefix_is_deterministic_across_join_modes(
        raws in proptest::collection::vec(arb_raw(), 20..150),
        budget_bytes in 1u64..40_000,
    ) {
        let store = build_store(&raws);
        let query = parse_query(CHAIN_QUERY).unwrap();
        let full = Engine::new(config(false))
            .execute(&store, &query)
            .unwrap();

        // Error mode: a trip is the matching structured error; no trip
        // must reproduce the ungoverned result exactly.
        let strict = ExecBudget::unlimited().with_memory_bytes(budget_bytes);
        let serial = Engine::new(config(false))
            .execute_with_budget(&store, &query, &strict);
        match &serial {
            Ok(t) => prop_assert_eq!(&t.rows, &full.rows),
            Err(e) => prop_assert_eq!(
                e,
                &EngineError::MemoryBudget { budget_bytes }
            ),
        }

        // Partial mode: always Ok, rows a prefix of the full result, and
        // the serial/parallel joins agree byte-for-byte.
        let partial = ExecBudget::unlimited()
            .with_memory_bytes(budget_bytes)
            .with_partial_results(true);
        let p_serial = Engine::new(config(false))
            .execute_with_budget(&store, &query, &partial)
            .unwrap();
        assert_prefix(&p_serial, &full);
        if !p_serial.warnings.is_empty() {
            prop_assert!(p_serial.truncated);
        }
        let p_parallel = Engine::new(config(true))
            .execute_with_budget(&store, &query, &partial)
            .unwrap();
        prop_assert_eq!(&p_parallel.rows, &p_serial.rows);
        prop_assert_eq!(p_parallel.truncated, p_serial.truncated);
        prop_assert_eq!(&p_parallel.warnings, &p_serial.warnings);
    }

    /// Cancellation raised at a random point (simulated by a pre-tripped
    /// token vs. an untripped one) never corrupts later runs: after any
    /// governed outcome, the ungoverned result is unchanged.
    #[test]
    fn governed_runs_never_perturb_ungoverned_results(
        raws in proptest::collection::vec(arb_raw(), 20..120),
        budget_bytes in 1u64..20_000,
        parallel in any::<bool>(),
    ) {
        let store = build_store(&raws);
        let query = parse_query(CHAIN_QUERY).unwrap();
        let engine = Engine::new(config(parallel));
        let before = engine.execute(&store, &query).unwrap();

        let token = CancelToken::new();
        token.cancel();
        let _ = engine.execute_with_budget(
            &store,
            &query,
            &ExecBudget::unlimited().with_cancel(token),
        );
        let _ = engine.execute_with_budget(
            &store,
            &query,
            &ExecBudget::unlimited().with_memory_bytes(budget_bytes),
        );
        let _ = engine.execute_with_budget(
            &store,
            &query,
            &ExecBudget::unlimited()
                .with_memory_bytes(budget_bytes)
                .with_partial_results(true),
        );

        let after = engine.execute(&store, &query).unwrap();
        prop_assert_eq!(&before.rows, &after.rows);

        // Every limit armed, none reachable: the governed fast path must
        // not change a byte of the answer or warn.
        let armed = engine
            .execute_with_budget(
                &store,
                &query,
                &ExecBudget::unlimited()
                    .with_deadline(Duration::from_secs(3_600))
                    .with_memory_bytes(1 << 40)
                    .with_cancel(CancelToken::new()),
            )
            .unwrap();
        prop_assert_eq!(&before.rows, &armed.rows);
        prop_assert!(!armed.truncated && armed.warnings.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Projection / aggregation coverage (PR 7 satellite): the suites above trip
// budgets inside scans and the 4-pattern join; these flood a *single-pattern*
// query with far more than `GOV_CHECK_INTERVAL` surviving tuples, so the
// `Project`/`Aggregate` operators' own polling loop is what the governor
// interrupts — and the aggregated partial-results contract gets pinned down:
// groups are discovered in first-occurrence order over the consumed tuple
// prefix, so a truncated table's group keys are a prefix of the full run's
// and every aggregate bounds the full run's value from below.
// ---------------------------------------------------------------------------

/// One write event per tick; a fresh file every 1500 events so new groups
/// keep appearing throughout the scan (truncation mid-stream must drop the
/// late groups, not just shrink counts).
fn flood_raws(n: usize) -> Vec<RawEvent> {
    (0..n)
        .map(|i| {
            RawEvent::instant(
                AgentId((i % 3) as u32),
                Operation::Write,
                EntitySpec::process(100 + (i % 5) as u32, &format!("exe{}.bin", i % 5), "user"),
                EntitySpec::file(&format!("/data/file{}", i / 1500), "user"),
                Timestamp::from_secs(i as i64),
                (i % 97) as u64,
            )
        })
        .collect()
}

const AGG_QUERY: &str = "proc p write file f as e \
    return p, f, count(e.amount) as c, sum(e.amount) as s group by p, f";
const FLAT_QUERY: &str = "proc p write file f as e return p, f";

fn numeric(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("expected a numeric aggregate, got {other:?}"),
    }
}

/// The aggregated partial-mode contract: group keys (the first `key_cols`
/// columns) are a prefix of the full run's group keys, and every aggregate
/// column is bounded by the full run's value for that group.
fn assert_group_prefix(partial: &ResultTable, full: &ResultTable, key_cols: usize) {
    assert!(
        partial.rows.len() <= full.rows.len(),
        "partial aggregation has more groups than the full one: {} > {}",
        partial.rows.len(),
        full.rows.len()
    );
    for (gi, (p, f)) in partial.rows.iter().zip(full.rows.iter()).enumerate() {
        assert_eq!(
            p[..key_cols],
            f[..key_cols],
            "group {gi}: key diverges from the full run's group order"
        );
        for (ci, (pv, fv)) in p[key_cols..].iter().zip(f[key_cols..].iter()).enumerate() {
            assert!(
                numeric(pv) <= numeric(fv),
                "group {gi} aggregate {ci}: partial {pv:?} exceeds full {fv:?}"
            );
        }
    }
}

#[test]
fn aggregated_memory_truncation_preserves_group_prefix() {
    let store = build_store(&flood_raws(9000));
    let query = parse_query(AGG_QUERY).unwrap();
    let engine = Engine::new(config(false));
    let full = engine.execute(&store, &query).unwrap();
    // 5 processes × 6 file generations: enough groups that truncation has
    // late groups to lose.
    assert_eq!(full.rows.len(), 30);

    let mut saw_nonempty_truncation = false;
    // The scan charges its 9000 candidate refs (72 000 bytes) and the drive
    // then live-charges what the sink retains — group states, not tuples —
    // after each 4096-tuple run: 73 000 leaves room for the candidates but
    // not for the first run's groups, so the drive stops after one run.
    for budget_bytes in [1u64 << 13, 1 << 16, 73_000, 1 << 17, 1 << 18, 1 << 22] {
        let partial = ExecBudget::unlimited()
            .with_memory_bytes(budget_bytes)
            .with_partial_results(true);
        let t = engine
            .execute_with_budget(&store, &query, &partial)
            .unwrap();
        if t.truncated {
            assert_eq!(t.warnings, vec![Warning::MemoryBudget { budget_bytes }]);
            assert_group_prefix(&t, &full, 2);
            saw_nonempty_truncation |= !t.rows.is_empty();
            // A memory budget forces the serial drive, so the trip point
            // is deterministic: the parallel engine truncates at the same
            // tuple.
            let tp = Engine::new(config(true))
                .execute_with_budget(&store, &query, &partial)
                .unwrap();
            assert_eq!(t.rows, tp.rows);
            assert_eq!(t.warnings, tp.warnings);
        } else {
            assert_eq!(
                t.rows, full.rows,
                "untripped budget must not perturb results"
            );
        }

        // Error mode at the same budget: either a clean structured error
        // or the exact full result — never a silent truncation.
        let strict = ExecBudget::unlimited().with_memory_bytes(budget_bytes);
        match engine.execute_with_budget(&store, &query, &strict) {
            Ok(t) => assert_eq!(t.rows, full.rows),
            Err(e) => assert_eq!(e, EngineError::MemoryBudget { budget_bytes }),
        }
    }
    assert!(
        saw_nonempty_truncation,
        "no budget in the sweep produced a nonempty truncated aggregation"
    );
}

#[test]
fn projection_memory_truncation_is_a_row_prefix() {
    // Non-aggregated projection: one output row per tuple, so the prefix
    // property is directly visible on the 9000-row table.
    let store = build_store(&flood_raws(9000));
    let query = parse_query(FLAT_QUERY).unwrap();
    let engine = Engine::new(config(false));
    let full = engine.execute(&store, &query).unwrap();
    assert_eq!(full.rows.len(), 9000);

    let mut saw_nonempty_truncation = false;
    for budget_bytes in [1u64 << 14, 1 << 17, 1 << 18, 1 << 22] {
        let partial = ExecBudget::unlimited()
            .with_memory_bytes(budget_bytes)
            .with_partial_results(true);
        let t = engine
            .execute_with_budget(&store, &query, &partial)
            .unwrap();
        if t.truncated {
            assert_eq!(t.warnings, vec![Warning::MemoryBudget { budget_bytes }]);
            assert_prefix(&t, &full);
            saw_nonempty_truncation |= !t.rows.is_empty();
            let tp = Engine::new(config(true))
                .execute_with_budget(&store, &query, &partial)
                .unwrap();
            assert_eq!(t.rows, tp.rows);
        } else {
            assert_eq!(t.rows, full.rows);
        }
    }
    assert!(
        saw_nonempty_truncation,
        "no budget in the sweep produced a nonempty truncated projection"
    );
}

#[test]
fn deadline_enforcement_follows_the_injected_clock() {
    let store = build_store(&flood_raws(6000));
    let query = parse_query(AGG_QUERY).unwrap();
    let engine = Engine::new(config(false));
    let full = engine.execute(&store, &query).unwrap();

    // A 1 ns deadline would trip instantly on the wall clock; on a frozen
    // ManualClock `now()` never reaches `started + deadline`, so the run
    // completes in full — proof the injected clock (not wall time) drives
    // enforcement, deterministic on arbitrarily slow hosts.
    let clock = ManualClock::new();
    let frozen = ExecBudget::unlimited()
        .with_deadline(Duration::from_nanos(1))
        .with_clock(Arc::new(clock.clone()));
    let t = engine.execute_with_budget(&store, &query, &frozen).unwrap();
    assert_eq!(t.rows, full.rows);
    assert!(!t.truncated);

    // A zero deadline reaches `deadline_at` even on the frozen clock: the
    // trip fires at the governor's first poll, identically on every run.
    let expired = ExecBudget::unlimited()
        .with_deadline(Duration::ZERO)
        .with_clock(Arc::new(clock.clone()));
    let err = engine
        .execute_with_budget(&store, &query, &expired)
        .unwrap_err();
    assert_eq!(err, EngineError::DeadlineExceeded { deadline_ms: 0 });

    let expired_partial = ExecBudget::unlimited()
        .with_deadline(Duration::ZERO)
        .with_clock(Arc::new(clock.clone()))
        .with_partial_results(true);
    let p1 = engine
        .execute_with_budget(&store, &query, &expired_partial)
        .unwrap();
    assert!(p1.truncated);
    assert_eq!(
        p1.warnings,
        vec![Warning::DeadlineExceeded { deadline_ms: 0 }]
    );
    assert_group_prefix(&p1, &full, 2);
    let p2 = engine
        .execute_with_budget(&store, &query, &expired_partial)
        .unwrap();
    assert_eq!(
        p1.rows, p2.rows,
        "expired-deadline truncation must be deterministic"
    );

    // Advancing the shared clock is visible to budgets built later: a
    // deadline that already passed at governor construction trips too.
    clock.advance(Duration::from_millis(10));
    let still_frozen = engine.execute_with_budget(&store, &query, &frozen).unwrap();
    assert_eq!(
        still_frozen.rows, full.rows,
        "governors anchor at construction: advancing beforehand must not expire a fresh run"
    );
}

// ---------------------------------------------------------------------------
// Anomaly queries answer to the same budget: the fetch runs under the
// governor and the window loop polls it once per window, so a trip is the
// typed error, or in partial mode the rows of the windows already finished.
// ---------------------------------------------------------------------------

/// 60 tumbling windows over `flood_raws(6000)`, a row per (process, file)
/// group in each.
const ANOMALY_QUERY: &str = "window = 100 sec, step = 100 sec \
    proc p write file f as e \
    return p, f, count(e.amount) as c group by p, f";

/// A clock that moves one millisecond every time it is read, so a deadline
/// of `n` ms trips at the governor's `n`-th poll on any host.
#[derive(Debug)]
struct StepClock {
    anchor: Instant,
    reads: AtomicU64,
}

impl Clock for StepClock {
    fn now(&self) -> Instant {
        self.anchor + Duration::from_millis(self.reads.fetch_add(1, Ordering::Relaxed))
    }
}

#[test]
fn anomaly_queries_honour_cancel_and_deadline() {
    let store = build_store(&flood_raws(6000));
    let engine = Engine::new(config(false));
    let full = engine.execute_text(&store, ANOMALY_QUERY).unwrap();
    assert!(full.rows.len() >= 60 && !full.truncated);

    let token = CancelToken::new();
    token.cancel();
    let err = engine
        .execute_text_with_budget(
            &store,
            ANOMALY_QUERY,
            &ExecBudget::unlimited().with_cancel(token),
        )
        .unwrap_err();
    assert_eq!(err, EngineError::Cancelled);

    let expired = ExecBudget::unlimited()
        .with_deadline(Duration::ZERO)
        .with_clock(Arc::new(ManualClock::new()));
    let err = engine
        .execute_text_with_budget(&store, ANOMALY_QUERY, &expired)
        .unwrap_err();
    assert_eq!(err, EngineError::DeadlineExceeded { deadline_ms: 0 });

    // An untripped budget changes nothing.
    let roomy = ExecBudget::unlimited().with_deadline(Duration::from_secs(3_600));
    let t = engine
        .execute_text_with_budget(&store, ANOMALY_QUERY, &roomy)
        .unwrap();
    assert_eq!(t.rows, full.rows);
    assert!(!t.truncated && t.warnings.is_empty());
}

#[test]
fn anomaly_partial_mode_stops_at_a_window_boundary() {
    let store = build_store(&flood_raws(6000));
    let engine = Engine::new(config(false));
    let full = engine.execute_text(&store, ANOMALY_QUERY).unwrap();

    let mut saw_nonempty_truncation = false;
    for deadline_ms in [1u64, 10, 20, 40, 80, 100_000] {
        let budget = ExecBudget::unlimited()
            .with_deadline(Duration::from_millis(deadline_ms))
            .with_clock(Arc::new(StepClock {
                anchor: Instant::now(),
                reads: AtomicU64::new(0),
            }))
            .with_partial_results(true);
        let t = engine
            .execute_text_with_budget(&store, ANOMALY_QUERY, &budget)
            .unwrap();
        assert_prefix(&t, &full);
        if t.truncated {
            assert_eq!(t.warnings, vec![Warning::DeadlineExceeded { deadline_ms }]);
            assert!(t.rows.len() < full.rows.len());
            saw_nonempty_truncation |= !t.rows.is_empty();
        } else {
            assert_eq!(t.rows.len(), full.rows.len());
            assert!(t.warnings.is_empty());
        }
    }
    assert!(
        saw_nonempty_truncation,
        "no deadline in the sweep stopped the window loop part-way"
    );
}
