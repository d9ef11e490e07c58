//! Chaos suite for the multi-tenant query service (PR 7): 115 concurrent
//! sessions run a Zipf-skewed mix of the Figure-4 investigation catalog
//! while ~13% of the sessions misbehave — injected scan panics and
//! mid-query cancellations — and storage maintenance churns in the
//! background. The contract under test:
//!
//! * **Fault isolation**: a faulted session's failures answer only its own
//!   requests — `WorkerPanic` (or the `Internal` backstop) never reaches a
//!   healthy session, and the dispatchers keep serving.
//! * **Byte-identical results**: every healthy response equals the serial
//!   single-threaded reference run, column for column, row for row.
//! * **Explicit shedding**: a full session queue sheds with
//!   `Overloaded { retry_after_ms }`, and the client backoff helper gets
//!   the request through once capacity frees up.
//! * **Clean drain**: shutdown under load resolves every outstanding
//!   ticket — nothing hangs, nothing panics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use aiql::engine::service::retry_overloaded_with;
use aiql::engine::{
    BackoffPolicy, CancelToken, QueryService, ServiceConfig, ServiceError, SessionId,
};
use aiql::sim::{build_store, demo_queries, scenario_demo, zipf::Zipf, Scale};
use aiql::storage::SharedStore;
use aiql::{Engine, EngineConfig, EngineError, ResultTable, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario_shared() -> SharedStore {
    SharedStore::new(build_store(
        &scenario_demo(Scale::test()),
        StoreConfig::default(),
    ))
}

/// The fully serial engine: the reference every concurrent healthy
/// response must match byte for byte.
fn serial_config() -> EngineConfig {
    EngineConfig {
        parallelism: 1,
        join_partitions: 0,
        ..EngineConfig::default()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Healthy,
    Panic,
    Cancel,
}

#[test]
fn chaos_fault_isolation_and_byte_identical_results() {
    const HEALTHY: usize = 100;
    const PANIC: usize = 10;
    const CANCEL: usize = 5;
    const PER_SESSION: usize = 3;

    let shared = scenario_shared();
    let catalog = demo_queries();
    let reference: Vec<ResultTable> = {
        let engine = Engine::new(serial_config());
        catalog
            .iter()
            .map(|q| {
                shared
                    .read(|s| engine.execute_text(s, &q.aiql))
                    .unwrap_or_else(|e| panic!("reference run failed on {}: {e}", q.id))
            })
            .collect()
    };

    let service = Arc::new(QueryService::new(shared.clone(), ServiceConfig::default()));

    // Zipf-skewed query assignment (the catalog's head queries dominate,
    // like a real investigation), drawn up-front from a fixed seed so the
    // workload is reproducible run to run.
    let zipf = Zipf::new(catalog.len(), 1.2);
    let mut rng = StdRng::seed_from_u64(0xC4A0_5EED);
    let mut draw = |n: usize| -> Vec<Vec<usize>> {
        (0..n)
            .map(|_| (0..PER_SESSION).map(|_| zipf.sample(&mut rng)).collect())
            .collect()
    };
    let mut plans: Vec<(Kind, SessionId, Vec<usize>)> = Vec::new();
    for qs in draw(HEALTHY) {
        plans.push((Kind::Healthy, service.create_session().unwrap(), qs));
    }
    for qs in draw(PANIC) {
        // Every pooled scan in this session's engine panics; the panic
        // must stay inside the session's own requests.
        let sid = service
            .create_session_with(
                1,
                EngineConfig {
                    inject_scan_panic: true,
                    // The default parallelism degrades to 1 on single-core
                    // hosts, which would disable pooled scans (and with
                    // them the injection); force fan-out so every scan in
                    // this session actually panics.
                    parallelism: 4,
                    parallel_threshold: 0,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
        plans.push((Kind::Panic, sid, qs));
    }
    for qs in draw(CANCEL) {
        plans.push((Kind::Cancel, service.create_session().unwrap(), qs));
    }
    assert!(plans.len() >= 100, "chaos needs ≥100 concurrent sessions");
    assert!(
        (PANIC + CANCEL) * 10 >= plans.len(),
        "chaos needs ≥10% faulted sessions"
    );

    // Maintenance churn: cancellable compaction passes (one live, one
    // pre-cancelled) race the query load for the store locks throughout.
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let service = service.clone();
        let shared = shared.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let dead = CancelToken::new();
            dead.cancel();
            while !stop.load(Ordering::Relaxed) {
                let _ = service.compact_store();
                let _ = shared.write(|s| s.compact_with_cancel(&dead));
                thread::yield_now();
            }
        })
    };

    type SessionLog = (
        Kind,
        Vec<(usize, Result<aiql::engine::QueryResponse, ServiceError>)>,
    );
    let handles: Vec<thread::JoinHandle<SessionLog>> = plans
        .into_iter()
        .map(|(kind, sid, qs)| {
            let service = service.clone();
            let texts: Vec<String> = qs.iter().map(|&i| catalog[i].aiql.clone()).collect();
            thread::spawn(move || {
                let mut log = Vec::with_capacity(qs.len());
                for (&qi, text) in qs.iter().zip(&texts) {
                    let resp = match service.submit(sid, text) {
                        Ok(ticket) => {
                            if kind == Kind::Cancel {
                                // Mid-query (or pre-dispatch) cancellation.
                                ticket.cancel();
                            }
                            ticket.wait()
                        }
                        Err(e) => Err(e),
                    };
                    log.push((qi, resp));
                }
                (kind, log)
            })
        })
        .collect();
    let logs: Vec<SessionLog> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();

    let mut worker_panics = 0u64;
    let mut observed_cancels = 0u64;
    for (kind, log) in logs {
        for (qi, resp) in log {
            let qid = catalog[qi].id;
            match (kind, resp) {
                (Kind::Healthy, Ok(r)) => {
                    assert!(!r.degraded, "{qid}: ample pool must not degrade");
                    assert!(!r.table.truncated && r.table.warnings.is_empty());
                    assert_eq!(r.table.columns, reference[qi].columns);
                    assert_eq!(
                        r.table.rows, reference[qi].rows,
                        "{qid}: healthy session diverged from the serial reference"
                    );
                }
                (Kind::Healthy, Err(e)) => {
                    panic!("{qid}: healthy session failed under chaos: {e}")
                }
                (Kind::Panic, Err(ServiceError::Engine(EngineError::WorkerPanic { .. }))) => {
                    worker_panics += 1;
                }
                (Kind::Panic, Ok(r)) => {
                    // Query paths that dodge the pooled scan (e.g. the
                    // anomaly window pass) still answer exactly.
                    assert_eq!(r.table.rows, reference[qi].rows, "{qid}");
                }
                (Kind::Panic, Err(e)) => {
                    panic!("{qid}: panic session surfaced a non-panic error: {e}")
                }
                (Kind::Cancel, Err(ServiceError::Engine(EngineError::Cancelled))) => {
                    observed_cancels += 1;
                }
                (Kind::Cancel, Ok(r)) => {
                    // Finished before the cancel landed: must still be exact.
                    assert_eq!(r.table.rows, reference[qi].rows, "{qid}");
                }
                (Kind::Cancel, Err(e)) => {
                    panic!("{qid}: cancelled session surfaced an unexpected error: {e}")
                }
            }
        }
    }
    assert!(
        worker_panics > 0,
        "chaos produced no WorkerPanic: the panic-injection sessions never hit a pooled scan"
    );

    let stats = service.stats();
    let total = ((HEALTHY + PANIC + CANCEL) * PER_SESSION) as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!(
        stats.admitted, total,
        "clients wait between submits: no shed"
    );
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.cancelled, observed_cancels);
    assert_eq!(stats.failed, worker_panics);
    assert_eq!(stats.completed + stats.failed + stats.cancelled, total);
    service.shutdown();
}

#[test]
fn overload_sheds_explicitly_and_backoff_retry_recovers() {
    let service = QueryService::new(
        scenario_shared(),
        ServiceConfig {
            dispatchers: 0, // nothing drains: shed behavior is deterministic
            session_queue_cap: 3,
            retry_hint_ms: 7,
            ..ServiceConfig::default()
        },
    );
    let sid = service.create_session().unwrap();
    let query = &demo_queries()[0].aiql;

    let mut tickets = Vec::new();
    for _ in 0..3 {
        tickets.push(service.submit(sid, query).unwrap());
    }
    for _ in 0..2 {
        match service.submit(sid, query) {
            Err(ServiceError::Overloaded { retry_after_ms }) => {
                // The hint scales with the queue depth that caused the shed.
                assert_eq!(retry_after_ms, 7 * 3);
            }
            other => panic!("expected a shed, got {other:?}"),
        }
    }
    assert_eq!(service.stats().shed, 2);
    assert_eq!(service.queued(), 3);

    // Client-side recovery: each backoff "sleep" is a tick in which the
    // service drains one request, so a retry eventually finds room.
    let ticket = retry_overloaded_with(
        &BackoffPolicy::default(),
        |_| {
            service.dispatch_one();
        },
        || {
            let attempt = service.submit(sid, query);
            if let Err(ServiceError::Overloaded { retry_after_ms }) = &attempt {
                assert!(*retry_after_ms > 0, "shed without a retry hint");
            }
            attempt
        },
    )
    .expect("backoff retry must eventually be admitted");
    tickets.push(ticket);
    while service.dispatch_one() {}

    let mut client_degraded = 0;
    for t in tickets {
        let r = t.wait().expect("admitted query must complete");
        assert!(!r.table.rows.is_empty(), "catalog queries are non-empty");
        client_degraded += u64::from(r.degraded);
    }
    // The ledger adds up: overload is answered by shedding alone, and every
    // counter matches what the client saw.
    let stats = service.stats();
    assert_eq!(stats.shed, 3, "the first retry attempt sheds once more");
    assert_eq!(stats.submitted, 7);
    assert_eq!(stats.admitted, stats.submitted - stats.shed);
    assert_eq!(
        stats.completed, stats.admitted,
        "every admitted query answers"
    );
    assert_eq!(stats.degraded, client_degraded);
    assert_eq!(
        (stats.failed, stats.cancelled),
        (0, 0),
        "pure overload must not fail or cancel any query"
    );
}

#[test]
fn shutdown_under_load_resolves_every_ticket() {
    let service = QueryService::new(
        scenario_shared(),
        ServiceConfig {
            dispatchers: 2,
            ..ServiceConfig::default()
        },
    );
    let catalog = demo_queries();
    let sids: Vec<SessionId> = (0..8).map(|_| service.create_session().unwrap()).collect();
    let mut tickets = Vec::new();
    for i in 0..40 {
        match service.submit(sids[i % sids.len()], &catalog[i % catalog.len()].aiql) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    service.shutdown();

    // Every outstanding ticket resolves: completed before the drain,
    // cancelled in flight, or answered ShuttingDown from the queue.
    for t in tickets {
        match t.wait() {
            Ok(_)
            | Err(ServiceError::ShuttingDown)
            | Err(ServiceError::Engine(EngineError::Cancelled)) => {}
            Err(e) => panic!("unexpected drain outcome: {e}"),
        }
    }
    // The drained service refuses new work, consistently.
    assert!(matches!(
        service.submit(sids[0], &catalog[0].aiql),
        Err(ServiceError::ShuttingDown)
    ));
    assert!(matches!(
        service.create_session(),
        Err(ServiceError::ShuttingDown)
    ));
    service.shutdown(); // idempotent
}
