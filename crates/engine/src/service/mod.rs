//! The multi-tenant query service.
//!
//! Everything below the service executes *one* query well: the engine
//! plans and runs it, the governor (PR 6) stops it at its budget, and its
//! panics stay inside it. This module is the controller
//! above them that lets **many concurrent investigations** share one
//! process without sharing their failures:
//!
//! * [`SessionManager`] — one [`Engine`] per analyst session, so plan
//!   caches and `$name` variable bindings are per-tenant;
//! * [`DrrScheduler`] — deficit-round-robin over bounded per-session
//!   queues: dispatch order converges to the sessions' weight ratios, so
//!   a chatty tenant fills its own queue instead of starving the rest;
//! * [`AdmissionController`] — a global memory pool carved into per-query
//!   grants that become governor byte budgets; under pressure grants
//!   degrade to `partial_results` mode (truncated prefix + warnings)
//!   instead of failing, and when a queue is full the submit is **shed**
//!   immediately with [`ServiceError::Overloaded`] carrying a
//!   `retry_after_ms` hint for the client's jittered backoff;
//! * fault containment — a faulted query (worker panic, IO fault, cancel,
//!   deadline) answers only its own caller; dispatchers, the maintenance
//!   thread, and every other session keep running. A service query's join
//!   drive fans out like any other (its memory budget does not keep it
//!   serial): a panic on a drive thread surfaces as
//!   [`EngineError::WorkerPanic`], and one on the dispatcher thread (a
//!   serial drive, or anywhere else in the query) is turned into
//!   [`EngineError::Internal`] by the dispatcher's `catch_unwind`.
//!
//! Enforcement stays at batch boundaries inside the engine — the service
//! only *derives* budgets, it never preempts. Shutdown is a drain: queued
//! requests answer `ShuttingDown`, in-flight queries are cancelled through
//! their governor tokens, and cancellable maintenance (storage compaction)
//! aborts with its partial merges discarded. Deferred store maintenance
//! runs on one `aiql-maintenance` thread the service owns and joins at
//! shutdown.

mod admission;
mod scheduler;
mod session;

pub use admission::{AdmissionController, MemoryGrant};
pub use scheduler::{DrrScheduler, SubmitError, REQUEST_COST};
pub use session::{SessionId, SessionManager};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use aiql_storage::{CompactionReport, MaintenanceExecutor, SharedStore};

use crate::engine::{Engine, EngineConfig};
use crate::error::EngineError;
use crate::explain::QueryPlan;
use crate::governor::{CancelToken, Clock, ExecBudget};
use crate::result::ResultTable;

/// Service tunables.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Dispatcher threads — the service's concurrency slots. Each runs at
    /// most one query at a time, on its own thread plus the scoped threads
    /// its join drive fans out on. 0 is valid (tests drive dispatch
    /// manually).
    pub dispatchers: usize,
    /// Concurrent-session cap.
    pub max_sessions: usize,
    /// Bounded per-session queue depth; a submit beyond it is shed.
    pub session_queue_cap: usize,
    /// Global memory pool for intermediate query state.
    pub total_memory_bytes: u64,
    /// Full per-query grant (the governor byte budget when unpressured).
    pub per_query_memory_bytes: u64,
    /// Degraded floor grant under memory pressure (`partial_results`).
    pub min_grant_bytes: u64,
    /// Per-query wall-clock deadline in ms; 0 disables.
    pub default_deadline_ms: u64,
    /// Shed hint scale: `retry_after_ms = hint × queue depth`.
    pub retry_hint_ms: u64,
    /// Template for per-session engines.
    pub engine: EngineConfig,
    /// Deadline clock override for deterministic tests.
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            dispatchers: 4,
            max_sessions: 1024,
            session_queue_cap: 32,
            total_memory_bytes: 512 << 20,
            per_query_memory_bytes: 64 << 20,
            min_grant_bytes: 8 << 20,
            default_deadline_ms: 30_000,
            retry_hint_ms: 5,
            engine: EngineConfig::default(),
            clock: None,
        }
    }
}

/// Why the service refused or failed a request.
#[derive(Debug)]
pub enum ServiceError {
    /// Shed: the session's queue is full. Come back in `retry_after_ms`
    /// (or later: a client backs off with jitter).
    Overloaded {
        /// Backoff hint, scaled by the queue depth that caused the shed.
        retry_after_ms: u64,
    },
    /// No such session (never opened, or closed).
    UnknownSession {
        /// The offending id.
        session: u64,
    },
    /// The session registry is at its cap.
    SessionLimit {
        /// The configured cap.
        max: usize,
    },
    /// The service is draining; nothing new is accepted.
    ShuttingDown,
    /// The query itself failed — parse, analysis, budget trip, worker
    /// panic. Scoped to this request; the session stays usable.
    Engine(EngineError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: retry after {retry_after_ms} ms")
            }
            ServiceError::UnknownSession { session } => write!(f, "unknown session {session}"),
            ServiceError::SessionLimit { max } => {
                write!(f, "session limit reached ({max} concurrent sessions)")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

/// A completed query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The result. In degraded mode this is a prefix-preserving truncated
    /// table whose warnings name the tripped limit.
    pub table: ResultTable,
    /// True when admission downgraded this query to `partial_results`
    /// under memory pressure.
    pub degraded: bool,
    /// Time spent queued before a dispatcher picked the query up.
    pub queue_wait: Duration,
    /// Execution time on the dispatcher.
    pub exec: Duration,
}

/// A submitted query: cancel it, or wait for its result.
#[derive(Debug)]
pub struct QueryTicket {
    cancel: CancelToken,
    rx: mpsc::Receiver<Result<QueryResponse, ServiceError>>,
}

impl QueryTicket {
    /// Requests cancellation; the query observes it at its next batch
    /// boundary (or before dispatch, if still queued).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The cancellation handle, for cancelling from another thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Blocks for the result.
    pub fn wait(self) -> Result<QueryResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }
}

/// Monotonic service counters (atomics; read via [`QueryService::stats`]).
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submits received (admitted + shed + unknown-session refusals).
    pub submitted: u64,
    /// Requests accepted into a session queue.
    pub admitted: u64,
    /// Requests refused with [`ServiceError::Overloaded`].
    pub shed: u64,
    /// Queries that returned a result table.
    pub completed: u64,
    /// Admitted queries downgraded to `partial_results` under pressure.
    pub degraded: u64,
    /// Queries that returned an engine error other than `Cancelled`.
    pub failed: u64,
    /// Queries cancelled (before or during execution).
    pub cancelled: u64,
}

/// One queued query.
struct Request {
    text: String,
    engine: Engine,
    cancel: CancelToken,
    reply: mpsc::Sender<Result<QueryResponse, ServiceError>>,
    enqueued: Instant,
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request").field("text", &self.text).finish()
    }
}

#[derive(Debug)]
struct ServiceInner {
    store: SharedStore,
    config: ServiceConfig,
    sessions: SessionManager,
    sched: DrrScheduler<Request>,
    admission: AdmissionController,
    counters: Counters,
    /// Cancel handles of queries currently executing, for prompt drain.
    inflight: Mutex<std::collections::HashMap<u64, CancelToken>>,
    next_req: AtomicU64,
    /// Set once at shutdown; also aborts cancellable maintenance.
    drain: CancelToken,
}

impl ServiceInner {
    /// The budget a served query runs under: its admission grant as the
    /// byte budget (partial results when the grant is degraded), the
    /// service deadline and clock, and the request's cancel token.
    /// `EXPLAIN` plans under the same function with a full grant.
    fn budget_for(&self, grant: MemoryGrant, cancel: CancelToken) -> ExecBudget {
        let mut budget = ExecBudget::unlimited()
            .with_cancel(cancel)
            .with_memory_bytes(grant.bytes)
            .with_partial_results(grant.degraded);
        if self.config.default_deadline_ms > 0 {
            budget = budget.with_deadline(Duration::from_millis(self.config.default_deadline_ms));
        }
        if let Some(clock) = &self.config.clock {
            budget = budget.with_clock(clock.clone());
        }
        budget
    }

    fn retry_hint(&self, queued: usize) -> u64 {
        self.config.retry_hint_ms.max(1) * (queued.max(1) as u64)
    }

    /// Executes one dequeued request end-to-end and answers its caller.
    fn serve(&self, req: Request) {
        let queue_wait = req.enqueued.elapsed();
        if req.cancel.is_cancelled() {
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            let _ = req
                .reply
                .send(Err(ServiceError::Engine(EngineError::Cancelled)));
            return;
        }
        let grant = match self.admission.acquire() {
            Ok(g) => g,
            Err(_) => {
                let _ = req.reply.send(Err(ServiceError::ShuttingDown));
                return;
            }
        };
        if grant.degraded {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }
        let budget = self.budget_for(grant, req.cancel.clone());
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(req_id, req.cancel.clone());
        let started = Instant::now();
        // catch_unwind backstops panics on this thread (a serial join drive
        // runs here): the dispatcher must survive any single query.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.store
                .read(|s| req.engine.execute_text_with_budget(s, &req.text, &budget))
        }));
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&req_id);
        self.admission.release(grant);
        let exec = started.elapsed();
        let msg = match outcome {
            Ok(Ok(table)) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                Ok(QueryResponse {
                    table,
                    degraded: grant.degraded,
                    queue_wait,
                    exec,
                })
            }
            Ok(Err(e)) => {
                if matches!(e, EngineError::Cancelled) {
                    self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.counters.failed.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServiceError::Engine(e))
            }
            Err(panic) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Engine(EngineError::Internal {
                    message: crate::error::panic_message(panic.as_ref()),
                }))
            }
        };
        let _ = req.reply.send(msg);
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// The sending end of the service's maintenance thread, wired into the
/// store as its [`MaintenanceExecutor`]. Shutdown takes the sender, which
/// closes the channel: the thread finishes the jobs already queued (no-ops
/// on the cancelled drain token) and exits, and a job spawned afterwards is
/// dropped unrun.
#[derive(Debug)]
struct MaintenanceQueue {
    jobs: Mutex<Option<mpsc::Sender<Job>>>,
}

impl MaintenanceExecutor for MaintenanceQueue {
    fn spawn(&self, job: Job) {
        if let Some(jobs) = &*self.jobs.lock().unwrap_or_else(|e| e.into_inner()) {
            let _ = jobs.send(job);
        }
    }
}

/// The multi-tenant query service. See the module docs for the design.
#[derive(Debug)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    maintenance: Arc<MaintenanceQueue>,
    maintenance_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl QueryService {
    /// Starts a service over a shared store, spawning the configured
    /// dispatcher threads.
    pub fn new(store: SharedStore, config: ServiceConfig) -> Self {
        let dispatchers = config.dispatchers;
        let inner = Arc::new(ServiceInner {
            sessions: SessionManager::new(config.max_sessions),
            sched: DrrScheduler::new(config.session_queue_cap),
            admission: AdmissionController::new(
                config.total_memory_bytes,
                config.per_query_memory_bytes,
                config.min_grant_bytes,
            ),
            counters: Counters::default(),
            inflight: Mutex::new(std::collections::HashMap::new()),
            next_req: AtomicU64::new(0),
            drain: CancelToken::new(),
            store,
            config,
        });
        // Deferred store maintenance (background compaction behind
        // `background_compaction`) runs on the service's one maintenance
        // thread and aborts on the service drain token, so shutdown never
        // waits behind a merge. A panicking job is contained: the thread
        // keeps serving the next one.
        let (jobs, queued) = mpsc::channel::<Job>();
        let maintenance = Arc::new(MaintenanceQueue {
            jobs: Mutex::new(Some(jobs)),
        });
        let maintenance_thread = std::thread::Builder::new()
            .name("aiql-maintenance".into())
            .spawn(move || {
                for job in queued {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                }
            })
            .expect("spawn maintenance thread");
        inner
            .store
            .set_maintenance(maintenance.clone(), inner.drain.clone());
        let workers = (0..dispatchers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("aiql-dispatch-{i}"))
                    .spawn(move || {
                        while let Some((_sid, req)) = inner.sched.next() {
                            inner.serve(req);
                        }
                    })
                    .expect("spawn dispatcher thread")
            })
            .collect();
        QueryService {
            inner,
            workers: Mutex::new(workers),
            maintenance,
            maintenance_thread: Mutex::new(Some(maintenance_thread)),
        }
    }

    /// Opens a session with the default engine template and weight 1.
    pub fn create_session(&self) -> Result<SessionId, ServiceError> {
        self.create_session_with(1, self.inner.config.engine.clone())
    }

    /// Opens a session with a fairness weight and a per-session engine
    /// configuration (chaos tests inject faulty configs this way without
    /// touching anyone else's session).
    pub fn create_session_with(
        &self,
        weight: u32,
        engine: EngineConfig,
    ) -> Result<SessionId, ServiceError> {
        if self.inner.drain.is_cancelled() {
            return Err(ServiceError::ShuttingDown);
        }
        let id = self
            .inner
            .sessions
            .create(engine, weight)
            .map_err(|e| ServiceError::SessionLimit { max: e.max })?;
        self.inner.sched.register(id.0, weight);
        Ok(id)
    }

    /// Closes a session: still-queued requests answer `UnknownSession`,
    /// in-flight queries finish on their engine clone.
    pub fn close_session(&self, id: SessionId) -> bool {
        let existed = self.inner.sessions.close(id);
        for req in self.inner.sched.deregister(id.0) {
            let _ = req
                .reply
                .send(Err(ServiceError::UnknownSession { session: id.0 }));
        }
        existed
    }

    /// Binds `$name` to `value` in the session (textual expansion at
    /// submit time). False for an unknown session or a non-identifier
    /// name.
    pub fn bind(&self, id: SessionId, name: &str, value: &str) -> bool {
        self.inner.sessions.bind(id, name, value)
    }

    /// Submits a query; returns a ticket to wait on (or cancel). Sheds
    /// with [`ServiceError::Overloaded`] when the session queue is full.
    pub fn submit(&self, session: SessionId, text: &str) -> Result<QueryTicket, ServiceError> {
        let inner = &self.inner;
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let Some((engine, text)) = inner.sessions.prepare(session, text) else {
            return Err(ServiceError::UnknownSession { session: session.0 });
        };
        let (tx, rx) = mpsc::channel();
        let cancel = CancelToken::new();
        let req = Request {
            text,
            engine,
            cancel: cancel.clone(),
            reply: tx,
            enqueued: Instant::now(),
        };
        match inner.sched.submit(session.0, req) {
            Ok(_depth) => {
                inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(QueryTicket { cancel, rx })
            }
            Err(SubmitError::QueueFull { queued }) => {
                inner.counters.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded {
                    retry_after_ms: inner.retry_hint(queued),
                })
            }
            Err(SubmitError::UnknownSession) => {
                Err(ServiceError::UnknownSession { session: session.0 })
            }
            Err(SubmitError::Shutdown) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Submit + wait: the blocking client call.
    pub fn query(&self, session: SessionId, text: &str) -> Result<QueryResponse, ServiceError> {
        self.submit(session, text)?.wait()
    }

    /// Plans a query without executing it (the EXPLAIN endpoint). Runs
    /// inline — planning is microseconds and needs no admission — but
    /// plans under the budget a served query runs under: an unpressured
    /// admission grant (pressure only shrinks it), the service deadline,
    /// a cancel token.
    pub fn explain(&self, session: SessionId, text: &str) -> Result<QueryPlan, ServiceError> {
        let Some((engine, text)) = self.inner.sessions.prepare(session, text) else {
            return Err(ServiceError::UnknownSession { session: session.0 });
        };
        let query = aiql_lang::parse_query(&text).map_err(EngineError::from)?;
        let grant = MemoryGrant {
            bytes: self.inner.admission.full_grant(),
            degraded: false,
        };
        let budget = self.inner.budget_for(grant, CancelToken::new());
        self.inner
            .store
            .read(|s| engine.explain(s, &query, &budget))
            .map_err(ServiceError::from)
    }

    /// Runs a cancellable storage compaction pass as service maintenance:
    /// a shutdown drain aborts it cleanly with partial merges discarded
    /// and epochs untouched (mapped to `ShuttingDown`). Queries are never
    /// blocked behind the merge — they keep reading the last published
    /// snapshot while the pass rewrites the writer store, and only see the
    /// compacted layout once it publishes.
    pub fn compact_store(&self) -> Result<CompactionReport, ServiceError> {
        self.inner
            .store
            .write(|s| s.compact_with_cancel(&self.inner.drain))
            .map_err(|_| ServiceError::ShuttingDown)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Open sessions.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.count()
    }

    /// Queued (admitted, not yet dispatched) requests.
    pub fn queued(&self) -> usize {
        self.inner.sched.queued()
    }

    /// Dispatches one queued request on the calling thread — lets tests
    /// with `dispatchers: 0` drive the service deterministically. Returns
    /// whether anything was dispatched.
    pub fn dispatch_one(&self) -> bool {
        match self.inner.sched.try_next() {
            Some((_sid, req)) => {
                self.inner.serve(req);
                true
            }
            None => false,
        }
    }

    /// Drains the service: sheds the queue with `ShuttingDown`, cancels
    /// in-flight queries through their governor tokens, aborts cancellable
    /// maintenance, and joins the dispatchers and the maintenance thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.drain.cancel();
        for token in self
            .inner
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            token.cancel();
        }
        for (_sid, req) in self.inner.sched.shutdown() {
            let _ = req.reply.send(Err(ServiceError::ShuttingDown));
        }
        self.inner.admission.close();
        let workers: Vec<_> = {
            let mut guard = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for handle in workers {
            let _ = handle.join();
        }
        let jobs = &self.maintenance.jobs;
        drop(jobs.lock().unwrap_or_else(|e| e.into_inner()).take());
        let thread = &self.maintenance_thread;
        if let Some(handle) = thread.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{AgentId, Operation, Timestamp};
    use aiql_storage::{EntitySpec, EventStore, RawEvent, SharedStore, StoreConfig};

    /// ~60 events over 3 agents: enough rows for multievent joins without
    /// slowing the suite down.
    fn tiny_store() -> SharedStore {
        let mut store = EventStore::new(StoreConfig {
            dedup: false,
            ..StoreConfig::default()
        });
        let raws: Vec<RawEvent> = (0..60u64)
            .map(|i| {
                RawEvent::instant(
                    AgentId((i % 3) as u32),
                    if i % 2 == 0 {
                        Operation::Read
                    } else {
                        Operation::Write
                    },
                    EntitySpec::process(100 + (i % 4) as u32, &format!("exe{}.bin", i % 4), "u"),
                    EntitySpec::file(&format!("/data/f{}", i % 5), "u"),
                    Timestamp::from_secs(i as i64),
                    i,
                )
            })
            .collect();
        store.ingest_all(&raws);
        SharedStore::new(store)
    }

    const SIMPLE: &str = "proc p read file f as evt return distinct p, f";

    fn serial_engine_config() -> EngineConfig {
        EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        }
    }

    fn small_service(dispatchers: usize) -> QueryService {
        QueryService::new(
            tiny_store(),
            ServiceConfig {
                dispatchers,
                engine: serial_engine_config(),
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn query_through_the_service_matches_a_direct_run() {
        let service = small_service(2);
        let session = service.create_session().unwrap();
        let resp = service.query(session, SIMPLE).unwrap();
        assert!(!resp.degraded);
        let direct = tiny_store().read(|s| {
            Engine::new(serial_engine_config())
                .execute_text(s, SIMPLE)
                .unwrap()
        });
        assert_eq!(resp.table.columns, direct.columns);
        assert_eq!(
            resp.table.rows, direct.rows,
            "service must not alter results"
        );
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.shed, 0);
        service.shutdown();
    }

    #[test]
    fn bindings_parameterize_session_queries() {
        let service = small_service(1);
        let s = service.create_session().unwrap();
        assert!(service.bind(s, "exe", "\"exe2.bin\""));
        let resp = service
            .query(s, "proc p[$exe] read file f as evt return distinct p, f")
            .unwrap();
        assert!(!resp.table.rows.is_empty());
        // The unexpanded text is a parse error — proof expansion happened.
        let raw = service.query(s, "proc p[$nope] read file f as evt return p");
        assert!(matches!(
            raw,
            Err(ServiceError::Engine(EngineError::Parse(_)))
        ));
    }

    #[test]
    fn full_queue_sheds_with_retry_hint() {
        // No dispatchers: the queue can only fill.
        let service = QueryService::new(
            tiny_store(),
            ServiceConfig {
                dispatchers: 0,
                session_queue_cap: 2,
                retry_hint_ms: 7,
                engine: serial_engine_config(),
                ..ServiceConfig::default()
            },
        );
        let s = service.create_session().unwrap();
        let t1 = service.submit(s, SIMPLE).unwrap();
        let _t2 = service.submit(s, SIMPLE).unwrap();
        match service.submit(s, SIMPLE) {
            Err(ServiceError::Overloaded { retry_after_ms }) => {
                assert_eq!(retry_after_ms, 14, "hint scales with queue depth");
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(service.stats().shed, 1);
        // Draining one admits again — and the result is still correct.
        assert!(service.dispatch_one());
        let resp = t1.wait().unwrap();
        assert!(!resp.table.rows.is_empty());
        assert!(service.submit(s, SIMPLE).is_ok());
    }

    #[test]
    fn memory_pressure_degrades_instead_of_failing() {
        let direct = tiny_store().read(|s| {
            Engine::new(serial_engine_config())
                .execute_text(s, SIMPLE)
                .unwrap()
        });
        // Pool fits one full grant plus one floor share. A 64-byte floor
        // trips on a real query; a roomy one runs it to completion.
        for floor in [64u64, 1 << 19] {
            let service = QueryService::new(
                tiny_store(),
                ServiceConfig {
                    dispatchers: 0,
                    total_memory_bytes: (1 << 20) + floor,
                    per_query_memory_bytes: 1 << 20,
                    min_grant_bytes: floor,
                    engine: serial_engine_config(),
                    ..ServiceConfig::default()
                },
            );
            let s = service.create_session().unwrap();
            // Hold the whole pool hostage, then serve a query: admission
            // must degrade it to a floor grant rather than fail or deadlock.
            let hostage = service.inner.admission.acquire().unwrap();
            assert!(!hostage.degraded);
            let ticket = service.submit(s, SIMPLE).unwrap();
            assert!(service.dispatch_one());
            let resp = ticket.wait().unwrap();
            assert!(resp.degraded, "pressure must mark the response degraded");
            if floor == 64 {
                assert!(
                    resp.table.truncated && !resp.table.warnings.is_empty(),
                    "a tripped floor grant truncates with a warning"
                );
            } else {
                assert!(!resp.table.truncated);
                assert_eq!(
                    resp.table.rows, direct.rows,
                    "an untripped degraded run is the exact answer"
                );
            }
            assert_eq!(service.stats().degraded, 1);
            service.inner.admission.release(hostage);
            // Pool restored: the next query gets a full grant again.
            let ticket = service.submit(s, SIMPLE).unwrap();
            assert!(service.dispatch_one());
            assert!(!ticket.wait().unwrap().degraded);
        }
    }

    #[test]
    fn cancelled_ticket_answers_without_running() {
        let service = QueryService::new(
            tiny_store(),
            ServiceConfig {
                dispatchers: 0,
                engine: serial_engine_config(),
                ..ServiceConfig::default()
            },
        );
        let s = service.create_session().unwrap();
        let ticket = service.submit(s, SIMPLE).unwrap();
        ticket.cancel();
        assert!(service.dispatch_one());
        assert!(matches!(
            ticket.wait(),
            Err(ServiceError::Engine(EngineError::Cancelled))
        ));
        assert_eq!(service.stats().cancelled, 1);
        assert_eq!(service.stats().completed, 0);
    }

    #[test]
    fn session_lifecycle_errors_are_structured() {
        let service = QueryService::new(
            tiny_store(),
            ServiceConfig {
                dispatchers: 0,
                max_sessions: 1,
                engine: serial_engine_config(),
                ..ServiceConfig::default()
            },
        );
        let s = service.create_session().unwrap();
        assert!(matches!(
            service.create_session(),
            Err(ServiceError::SessionLimit { max: 1 })
        ));
        let queued = service.submit(s, SIMPLE).unwrap();
        assert!(service.close_session(s));
        // The queued request answers instead of vanishing.
        assert!(matches!(
            queued.wait(),
            Err(ServiceError::UnknownSession { .. })
        ));
        assert!(matches!(
            service.query(s, SIMPLE),
            Err(ServiceError::UnknownSession { .. })
        ));
        // Slot freed: a new session opens.
        assert!(service.create_session().is_ok());
    }

    /// A seed of one run keeps the drive serial whatever the parallelism,
    /// so the injected panic fires on the dispatcher thread: its
    /// `catch_unwind` backstop turns it into `Internal` for this session
    /// only.
    #[test]
    fn a_worker_panic_is_contained_to_its_session() {
        let service = QueryService::new(
            tiny_store(),
            ServiceConfig {
                dispatchers: 2,
                ..ServiceConfig::default()
            },
        );
        let healthy = service.create_session().unwrap();
        let faulty = service
            .create_session_with(
                1,
                EngineConfig {
                    parallelism: 2,
                    inject_drive_panic: true,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
        let boom = service.query(faulty, SIMPLE);
        match boom {
            Err(ServiceError::Engine(EngineError::Internal { message })) => {
                assert!(message.contains("injected drive panic"), "{message}");
            }
            other => panic!("expected the dispatcher's Internal backstop, got {other:?}"),
        }
        // The dispatcher and the other sessions are unharmed.
        for _ in 0..3 {
            assert!(service.query(healthy, SIMPLE).is_ok());
        }
        let stats = service.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn explain_plans_without_executing() {
        let service = QueryService::new(
            tiny_store(),
            ServiceConfig {
                dispatchers: 1,
                per_query_memory_bytes: 1 << 20,
                engine: EngineConfig {
                    parallelism: 8,
                    ..EngineConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let s = service.create_session().unwrap();
        let text = service.explain(s, SIMPLE).unwrap().render();
        assert!(text.contains("physical operator tree"));
        // Served queries run under their admission grant, and the grant's
        // memory budget leaves the drive as the session's parallelism
        // makes it: the plan names the budget and the drive the service
        // will run, with the budget's tuple cap.
        assert!(text.contains("memory 1048576 bytes"), "{text}");
        let join = text.lines().find(|l| l.contains("TemporalJoin")).unwrap();
        assert!(
            join.contains("drive, parallel ×8 worker(s) when seed ≥ 4097 | tuple cap 4000000"),
            "{join}"
        );
        assert_eq!(service.stats().completed, 0, "explain is not execution");
    }

    #[test]
    fn shutdown_drains_and_answers_everyone() {
        let service = QueryService::new(
            tiny_store(),
            ServiceConfig {
                dispatchers: 0,
                engine: serial_engine_config(),
                ..ServiceConfig::default()
            },
        );
        let s = service.create_session().unwrap();
        let queued = service.submit(s, SIMPLE).unwrap();
        service.shutdown();
        assert!(matches!(queued.wait(), Err(ServiceError::ShuttingDown)));
        assert!(matches!(
            service.submit(s, SIMPLE),
            Err(ServiceError::ShuttingDown)
        ));
        assert!(matches!(
            service.create_session(),
            Err(ServiceError::ShuttingDown)
        ));
        // Idempotent.
        service.shutdown();
    }

    /// Deferred compaction runs on the service's maintenance thread: small
    /// commits through the shared store queue their partitions, and the
    /// thread densifies them with nobody driving it. Shutdown joins the
    /// thread; commits afterwards neither panic nor compact.
    #[test]
    fn background_compaction_runs_on_the_service_thread() {
        let shared = SharedStore::new(EventStore::new(StoreConfig {
            background_compaction: true,
            dedup: false,
            ..StoreConfig::default()
        }));
        let service = QueryService::new(
            shared.clone(),
            ServiceConfig {
                dispatchers: 0,
                engine: serial_engine_config(),
                ..ServiceConfig::default()
            },
        );
        // One agent, one hour bucket: every commit lands in one partition
        // and seals one more segment there.
        let commit = |round: u64| {
            shared.write(|s| {
                let raws: Vec<RawEvent> = (round * 8..round * 8 + 8)
                    .map(|i| {
                        RawEvent::instant(
                            AgentId(1),
                            Operation::Read,
                            EntitySpec::process(100, "exe.bin", "u"),
                            EntitySpec::file(&format!("/f{}", i % 9), "u"),
                            Timestamp::from_secs(i as i64),
                            1,
                        )
                    })
                    .collect();
                s.ingest_all(&raws);
            })
        };
        let segments = || -> Vec<usize> {
            let layouts = shared.read(|s| s.segment_layouts());
            layouts.into_iter().map(|(_, segs)| segs.len()).collect()
        };
        // Twelve commits cross the four-segment trigger at least twice.
        // Where the thread's merges fall between them decides how many
        // segments the last few commits leave (1 to 3); with no merge at
        // all, twelve would stand.
        for round in 0..12 {
            commit(round);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while segments()[0] >= 4 {
            assert!(
                Instant::now() < deadline,
                "the maintenance thread never compacted: {:?}",
                segments()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let events = shared.read(|s| s.stats().events);
        assert_eq!(events, 96, "compaction keeps every row");

        service.shutdown();
        // The store still routes deferred merges to the service, whose
        // thread is gone: the job is dropped, nothing merges inline, and
        // four more commits push the partition past the trigger.
        let settled = segments()[0];
        for round in 12..16 {
            commit(round);
        }
        assert_eq!(segments(), [settled + 4]);
        assert_eq!(shared.read(|s| s.stats().events), 128);
    }

    #[test]
    fn maintenance_compaction_is_drain_cancellable() {
        let store = {
            // Deferred merges that nothing drains: one segment per commit.
            let mut s = EventStore::new(StoreConfig {
                batch_size: 8,
                background_compaction: true,
                dedup: false,
                ..StoreConfig::default()
            });
            let raws: Vec<RawEvent> = (0..100u64)
                .map(|i| {
                    RawEvent::instant(
                        AgentId(1),
                        Operation::Read,
                        EntitySpec::process(100, "exe.bin", "u"),
                        EntitySpec::file(&format!("/f{}", i % 9), "u"),
                        Timestamp::from_secs(i as i64),
                        1,
                    )
                })
                .collect();
            s.ingest_all(&raws);
            // The service's explicit pass below is the compaction under
            // test, not the queued trigger crossings.
            s.take_maintenance();
            SharedStore::new(s)
        };
        let service = QueryService::new(
            store,
            ServiceConfig {
                dispatchers: 0,
                engine: serial_engine_config(),
                ..ServiceConfig::default()
            },
        );
        let report = service.compact_store().unwrap();
        assert!(report.partitions_compacted > 0);
        service.shutdown();
        // Fragment the store again: a post-drain pass with real merge work
        // must abort cleanly (partial merges discarded, epochs untouched).
        service.inner.store.write(|s| {
            let raws: Vec<RawEvent> = (100..160u64)
                .map(|i| {
                    RawEvent::instant(
                        AgentId(1),
                        Operation::Read,
                        EntitySpec::process(100, "exe.bin", "u"),
                        EntitySpec::file(&format!("/f{}", i % 9), "u"),
                        Timestamp::from_secs(i as i64),
                        1,
                    )
                })
                .collect();
            s.ingest_all(&raws);
        });
        let epoch = service.inner.store.read(|s| s.epoch());
        assert!(matches!(
            service.compact_store(),
            Err(ServiceError::ShuttingDown)
        ));
        assert_eq!(
            service.inner.store.read(|s| s.epoch()),
            epoch,
            "aborted maintenance must not move epochs"
        );
    }
}
