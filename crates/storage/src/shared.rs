//! Concurrent access to one store: a single writer publishing immutable
//! snapshots that any number of readers pin without locks.

use std::sync::{Arc, RwLock};

use aiql_model::CancelToken;

use crate::segment::PartitionKey;
use crate::stats::StoreStats;
use crate::store::EventStore;

/// Executor for store maintenance jobs (background compaction and novelty
/// flushes). The storage crate defines only the contract; the engine's
/// `QueryService` wires in its one maintenance thread, keeping the
/// storage→engine dependency direction intact.
pub trait MaintenanceExecutor: Send + Sync {
    /// Runs `job` off the caller's thread, eventually exactly once (jobs
    /// guard themselves with a [`CancelToken`] for shutdown).
    fn spawn(&self, job: Box<dyn FnOnce() + Send>);
}

/// Maintenance wiring of a [`SharedStore`]: the optional executor plus the
/// cancel token every scheduled pass polls.
struct Maintenance {
    executor: Option<Arc<dyn MaintenanceExecutor>>,
    cancel: CancelToken,
}

impl std::fmt::Debug for Maintenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Maintenance")
            .field("executor", &self.executor.is_some())
            .field("cancel", &self.cancel)
            .finish()
    }
}

#[derive(Debug)]
struct SharedInner {
    /// The writer's authoritative store. Readers never touch this lock.
    writer: RwLock<EventStore>,
    /// Last published immutable snapshot. The lock is held only for the
    /// pointer swap/clone, never across query execution.
    published: RwLock<Arc<EventStore>>,
    /// Reads that found the publish lock contended and had to wait for the
    /// pointer swap (not for the writer!). A high count means publishes are
    /// too frequent, not that queries block ingest.
    reader_stalls: std::sync::atomic::AtomicU64,
    /// Background-maintenance wiring (executor + drain token).
    maintenance: std::sync::Mutex<Maintenance>,
}

/// A cloneable, thread-safe handle to a store.
///
/// Every write publishes an immutable epoch-tagged `Arc` clone of the store
/// (cheap — partitions and dictionaries are shared `Arc`s, and the next
/// write copies only the partitions it touches).
/// [`SharedStore::read`] pins the current snapshot with a pointer clone and
/// runs entirely lock-free: queries never block ingest, ingest never blocks
/// queries, and a query sees one consistent store state for its whole run.
#[derive(Debug, Clone)]
pub struct SharedStore {
    inner: Arc<SharedInner>,
}

impl SharedStore {
    /// Wraps a store and publishes its first snapshot.
    pub fn new(store: EventStore) -> Self {
        let snapshot = Arc::new(Self::publish_clone(&store));
        SharedStore {
            inner: Arc::new(SharedInner {
                writer: RwLock::new(store),
                published: RwLock::new(snapshot),
                reader_stalls: std::sync::atomic::AtomicU64::new(0),
                maintenance: std::sync::Mutex::new(Maintenance {
                    executor: None,
                    cancel: CancelToken::new(),
                }),
            }),
        }
    }

    /// The snapshot to publish after a write: shares every partition by
    /// `Arc`, and gets a dictionary of its own that shares the
    /// writer's base, delta and interner `Arc`s but not its dedup map
    /// ([`EntityStore`](crate::EntityStore) has the layer rule). Nothing is
    /// copied but `Arc`s, and the writer's own dictionary `Arc` stays
    /// unique, so its `Arc::make_mut` stays the free unique-owner path on
    /// every commit.
    fn publish_clone(store: &EventStore) -> EventStore {
        let mut snap = store.clone();
        snap.entities = Arc::new(store.entities.share_for_read());
        snap
    }

    /// Pins the current immutable snapshot: an epoch-tagged `Arc` the
    /// caller can query for as long as it likes without blocking ingest.
    /// Counts a reader stall when the publish lock is momentarily
    /// contended.
    pub fn snapshot(&self) -> Arc<EventStore> {
        let guard = match self.inner.published.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.inner
                    .reader_stalls
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.inner
                    .published
                    .read()
                    .unwrap_or_else(|e| e.into_inner())
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        };
        guard.clone()
    }

    /// Runs `f` with shared (read) access: against the pinned snapshot,
    /// with no lock held — a long query never blocks ingest or other
    /// readers.
    pub fn read<R>(&self, f: impl FnOnce(&EventStore) -> R) -> R {
        f(&self.snapshot())
    }

    /// Runs `f` with exclusive (write) access, publishes the post-write
    /// state (while the write lock is still held, so publishes are
    /// serialized in write order) and then schedules any deferred
    /// background compaction. The previous snapshot is released only after
    /// both locks are: when no reader pins it, dropping it frees the
    /// partitions this write replaced, and neither readers nor the next
    /// write wait for that.
    pub fn write<R>(&self, f: impl FnOnce(&mut EventStore) -> R) -> R {
        let mut guard = self.inner.writer.write().unwrap_or_else(|e| e.into_inner());
        let r = f(&mut guard);
        let snap = Arc::new(Self::publish_clone(&guard));
        let previous = std::mem::replace(
            &mut *self
                .inner
                .published
                .write()
                .unwrap_or_else(|e| e.into_inner()),
            snap,
        );
        let pending = guard.take_maintenance();
        drop(guard);
        drop(previous);
        if !pending.is_empty() {
            self.run_maintenance(pending);
        }
        r
    }

    /// Wires a background-maintenance executor and the cancel token its
    /// jobs poll (a service passes its drain token so shutdown aborts
    /// in-flight passes). Replaces any previous wiring.
    pub fn set_maintenance(&self, executor: Arc<dyn MaintenanceExecutor>, cancel: CancelToken) {
        let mut st = self
            .inner
            .maintenance
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        st.executor = Some(executor);
        st.cancel = cancel;
    }

    /// Compacts the deferred partitions — on the wired executor when one is
    /// present, inline (but *after* the commit's write lock released, so
    /// readers were never blocked behind the merge) otherwise.
    fn run_maintenance(&self, keys: Vec<PartitionKey>) {
        let (executor, cancel) = {
            let st = self
                .inner
                .maintenance
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            (st.executor.clone(), st.cancel.clone())
        };
        let this = self.clone();
        let pass = move || {
            for key in keys {
                if cancel.is_cancelled() {
                    return;
                }
                this.write(|s| {
                    // A cancelled pass is a no-op (layout and epochs are
                    // untouched); the next commit re-queues the partition.
                    let _ = s.compact_partition_with_cancel(key, &cancel);
                });
            }
        };
        match executor {
            Some(exec) => exec.spawn(Box::new(pass)),
            None => pass(),
        }
    }

    /// Store statistics with the handle-level reader-stall counter filled
    /// in.
    pub fn stats(&self) -> StoreStats {
        let mut stats = self.read(|s| s.stats());
        stats.reader_stalls = self
            .inner
            .reader_stalls
            .load(std::sync::atomic::Ordering::Relaxed);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{EntitySpec, RawEvent};
    use aiql_model::{AgentId, Event, Operation, Timestamp};

    /// One write into agent `agent`'s hour `hour` (a partition of its own
    /// under the default one-hour bucket).
    fn raw(agent: u32, hour: i64, i: i64) -> RawEvent {
        RawEvent::instant(
            AgentId(agent),
            Operation::Write,
            EntitySpec::process(7, "writer.exe", "alice"),
            EntitySpec::file(&format!("C:\\out\\f{i}.txt"), "alice"),
            Timestamp::from_secs(hour * 3600 + i),
            1,
        )
    }

    fn rows(store: &EventStore, key: PartitionKey) -> Vec<Event> {
        let part = store.partition(key).expect("partition exists");
        (0..part.len())
            .map(|r| part.event_at(key.agent, r))
            .collect()
    }

    #[test]
    fn a_commit_after_a_publish_copies_only_the_partitions_it_touches() {
        // 3 agents × 4 hours: twelve partitions, one sealed segment each.
        let mut store = EventStore::default();
        let seed: Vec<RawEvent> = (1..=3)
            .flat_map(|a| (0..4).flat_map(move |h| (0..5).map(move |i| raw(a, h, i))))
            .collect();
        store.ingest_all(&seed);
        store.ingest_all(&seed[..3]);
        assert_eq!(
            store.stats().partition_copies,
            0,
            "nothing shares a bare store's partitions"
        );
        let shared = SharedStore::new(store);
        let before = shared.snapshot();
        let keys = before.partition_list();
        assert_eq!(keys.len(), 12);
        let epochs = before.partition_epochs();
        let old_rows: Vec<Vec<Event>> = keys.iter().map(|&k| rows(&before, k)).collect();

        // One batch touching k = 2 partitions.
        let batch = [raw(1, 0, 100), raw(1, 0, 101), raw(3, 2, 100)];
        let touched = |k: &PartitionKey| {
            batch
                .iter()
                .any(|r| k.agent == r.agent && k.bucket == r.start_time.micros() / 3_600_000_000)
        };
        shared.write(|s| s.ingest_all(&batch));
        let after = shared.snapshot();
        assert_eq!(
            after.stats().partition_copies - before.stats().partition_copies,
            2
        );
        for &key in &keys {
            let shares = Arc::ptr_eq(
                before.partition_arc(key).unwrap(),
                after.partition_arc(key).unwrap(),
            );
            assert_eq!(shares, !touched(&key), "{key:?}");
        }
        assert_eq!(after.event_count(), before.event_count() + 3);

        // The old snapshot still reads its pre-commit rows and epochs.
        assert_eq!(before.partition_epochs(), epochs);
        for (&key, old) in keys.iter().zip(&old_rows) {
            assert_eq!(&rows(&before, key), old, "{key:?}");
        }

        // Maintenance copies only partitions that change: every overlay is
        // empty, and only the two touched partitions have a second segment.
        let copies = after.stats().partition_copies;
        assert_eq!(shared.write(|s| s.flush_novelty()), 0);
        assert_eq!(shared.stats().partition_copies, copies);
        assert_eq!(shared.write(|s| s.compact()).partitions_compacted, 2);
        assert_eq!(shared.stats().partition_copies, copies + 2);
        assert_eq!(shared.write(|s| s.compact()).partitions_compacted, 0);
        assert_eq!(shared.stats().partition_copies, copies + 2);
    }
}
