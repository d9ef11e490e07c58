//! A persistent scan worker pool.
//!
//! Spawning a fresh set of scoped threads for every pattern scan pays
//! thread-spawn latency per pattern per query. The pool spawns its workers
//! once per process ([`shared`]) and feeds them scan and join tasks through
//! a shared queue; parallel scans
//! self-schedule over fine-grained partition chunks (each worker pulls the
//! next chunk index from a shared atomic cursor), which balances skewed
//! partitions the way work-stealing would.
//!
//! Panics are *contained*, not propagated: a panicking task is caught on
//! its worker (the worker survives and keeps pulling jobs), the payload
//! message is captured, and the whole batch reports a [`PoolPanic`] to the
//! submitting query — which surfaces it as
//! `EngineError::WorkerPanic` while every other query keeps using the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A panic caught on a pool worker, with the payload message when the
/// payload was a string (the overwhelmingly common case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPanic {
    /// The panic payload, or a placeholder for non-string payloads.
    pub message: String,
}

impl std::fmt::Display for PoolPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool task panicked: {}", self.message)
    }
}

impl std::error::Error for PoolPanic {}

/// Extracts a readable message from a panic payload.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The process-wide shared scan executor, spawned once on first use and
/// sized by the machine (`std::thread::available_parallelism`). Every
/// engine uses it, so concurrent engine instances spawn no worker sets of
/// their own; per-query fan-out is capped by each engine's `parallelism`
/// via [`ScanPool::run_chunks_capped`].
static SHARED: OnceLock<Arc<ScanPool>> = OnceLock::new();

/// The process-wide shared pool handle.
pub fn shared() -> Arc<ScanPool> {
    SHARED
        .get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4);
            Arc::new(ScanPool::new(threads))
        })
        .clone()
}

/// Completion barrier for one batch of pool tasks.
struct WaitGroup {
    remaining: Mutex<usize>,
    zero: Condvar,
    /// First caught panic message of the batch, if any.
    panic_msg: Mutex<Option<String>>,
}

impl WaitGroup {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(WaitGroup {
            remaining: Mutex::new(count),
            zero: Condvar::new(),
            panic_msg: Mutex::new(None),
        })
    }

    // The waitgroup's own locks recover from poisoning instead of
    // propagating it: task panics are caught *before* `done()` runs, so a
    // poisoned lock here can only mean a panic inside the accounting
    // itself — recovering keeps the barrier sound and lets the batch
    // surface its error instead of cascading a second panic.

    fn record_panic(&self, message: String) {
        let mut slot = self.panic_msg.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(message);
    }

    fn take_panic(&self) -> Option<PoolPanic> {
        self.panic_msg
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .map(|message| PoolPanic { message })
    }

    fn done(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *left = left.saturating_sub(1);
        if *left == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *left > 0 {
            left = self.zero.wait(left).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A fixed set of worker threads executing submitted scan tasks.
pub struct ScanPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ScanPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ScanPool {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("aiql-scan-{i}"))
                    .spawn(move || loop {
                        let job = {
                            // Recover a poisoned queue lock: jobs are
                            // wrapped in catch_unwind, so poisoning can
                            // only come from a panic between recv and job
                            // dispatch — the queue itself stays valid.
                            let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // pool dropped
                        }
                    })
                    .expect("spawn scan worker")
            })
            .collect();
        ScanPool {
            sender: Some(sender),
            workers,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task to completion on the pool, blocking the caller until
    /// all have finished. Tasks may borrow from the caller's stack: the
    /// blocking wait is what makes the lifetime extension below sound.
    ///
    /// A panicking task does not kill its worker or the batch: every task
    /// still runs, and the first caught panic comes back as `Err` so the
    /// owning query can surface it while the pool keeps serving others.
    pub fn scope<'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
    ) -> Result<(), PoolPanic> {
        if tasks.is_empty() {
            return Ok(());
        }
        /// Waits for every *submitted* task on drop — including when the
        /// submit loop unwinds — so queued closures can never outlive the
        /// caller's stack frame. Tasks not yet handed to the queue are
        /// discounted first (nothing will ever signal them).
        struct SubmitGuard<'a> {
            wg: &'a Arc<WaitGroup>,
            unsent: usize,
        }
        impl Drop for SubmitGuard<'_> {
            fn drop(&mut self) {
                for _ in 0..self.unsent {
                    self.wg.done();
                }
                self.wg.wait();
            }
        }

        let wg = WaitGroup::new(tasks.len());
        let mut guard = SubmitGuard {
            wg: &wg,
            unsent: tasks.len(),
        };
        let sender = self.sender.as_ref().expect("pool alive");
        let mut workers_gone = false;
        for task in tasks {
            // SAFETY: `scope` blocks until every submitted task has run —
            // on the normal path and on unwind, via `SubmitGuard::drop`
            // (the waitgroup decrement inside the job runs even when the
            // task panics) — so no borrow in `task` can outlive this call.
            // That is the guarantee `std::thread::scope` provides, minus
            // the per-call spawns.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            let wg_job = Arc::clone(&wg);
            let sent = sender
                .send(Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        wg_job.record_panic(payload_message(payload.as_ref()));
                    }
                    wg_job.done();
                }))
                .is_ok();
            if !sent {
                // Workers exited (pool shutting down): the rejected closure
                // was returned and dropped inside this frame, so its borrow
                // never escaped; remaining tasks stay discounted by the
                // guard.
                workers_gone = true;
                break;
            }
            guard.unsent -= 1;
        }
        drop(guard); // blocks until all submitted tasks finished
        if workers_gone {
            return Err(PoolPanic {
                message: "scan pool workers exited while tasks were pending".into(),
            });
        }
        match wg.take_panic() {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }

    /// Fire-and-forget submission of one owned job — the caller does NOT
    /// block (background store maintenance rides on this; scan batches use
    /// [`ScanPool::scope`]). A panicking job is contained exactly like a
    /// scoped task's, it just has no batch to report to. Returns `false`
    /// when the pool is shutting down and the job was dropped unrun.
    pub fn submit(&self, job: Box<dyn FnOnce() + Send + 'static>) -> bool {
        match self.sender.as_ref() {
            Some(sender) => sender
                .send(Box::new(move || {
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }))
                .is_ok(),
            None => false,
        }
    }

    /// Convenience: runs `f(chunk_index)` for every chunk index in
    /// `0..chunks`, using up to `threads` concurrent self-scheduling tasks.
    pub fn run_chunks(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), PoolPanic> {
        self.run_chunks_capped(chunks, self.threads, f)
    }

    /// [`ScanPool::run_chunks`] with the concurrent-task fan-out capped at
    /// `max_workers`: a query configured for `parallelism = 2` keeps that
    /// degree even on a machine-wide shared pool with more workers.
    pub fn run_chunks_capped(
        &self,
        chunks: usize,
        max_workers: usize,
        f: &(dyn Fn(usize) + Sync),
    ) -> Result<(), PoolPanic> {
        if chunks == 0 {
            return Ok(());
        }
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let cursor = &cursor;
        let workers = self.threads.min(chunks).min(max_workers.max(1));
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            tasks.push(Box::new(move || loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= chunks {
                    break;
                }
                f(i);
            }));
        }
        self.scope(tasks)
    }
}

/// The scan pool doubles as the store's background-maintenance executor:
/// deferred compaction and novelty flushes run as ordinary pool jobs, so
/// maintenance shares the machine with scans instead of spawning its own
/// threads. A job submitted while the pool is shutting down is dropped
/// unrun — safe, because maintenance jobs are re-queued by the next commit
/// and guard themselves with a drain token anyway.
impl aiql_storage::MaintenanceExecutor for ScanPool {
    fn spawn(&self, job: Box<dyn FnOnce() + Send>) {
        self.submit(job);
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        drop(self.sender.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_tasks_with_borrows() {
        let pool = ScanPool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(tasks).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn chunked_runs_visit_every_chunk_once() {
        let pool = ScanPool::new(3);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run_chunks(100, &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn reusable_across_batches() {
        let pool = ScanPool::new(2);
        for _ in 0..10 {
            let counter = AtomicUsize::new(0);
            pool.run_chunks(8, &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        }
    }

    #[test]
    fn task_panic_is_contained_with_its_message() {
        let pool = ScanPool::new(2);
        let boom: Vec<Box<dyn FnOnce() + Send + '_>> =
            vec![Box::new(|| panic!("intentional test panic"))];
        let err = pool.scope(boom).unwrap_err();
        assert!(err.message.contains("intentional test panic"));
        // Workers must still be serviceable afterwards.
        let counter = AtomicUsize::new(0);
        pool.run_chunks(4, &|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn panicking_batch_still_runs_every_other_task() {
        let pool = ScanPool::new(2);
        let counter = AtomicUsize::new(0);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for i in 0..16 {
            let c = &counter;
            if i == 3 {
                tasks.push(Box::new(|| panic!("task 3 died")));
            } else {
                tasks.push(Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }
        let err = pool.scope(tasks).unwrap_err();
        assert!(err.message.contains("task 3 died"));
        assert_eq!(counter.load(Ordering::SeqCst), 15);
    }
}
