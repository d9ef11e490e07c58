//! # aiql-storage
//!
//! Domain-specific storage for system monitoring data, reproducing the
//! optimizations of §2.1 of the AIQL paper:
//!
//! * **Data deduplication** — entities are interned ([`EntityStore`]): the
//!   same process/file/connection observed many times maps to one id, and
//!   excessive event records (same ⟨subject, op, object⟩ back-to-back) are
//!   merged at commit time.
//! * **Batch commit + in-memory indexes** — events are buffered and
//!   committed in batches; each commit builds per-segment posting lists
//!   (by operation, by subject, by object) so queries avoid full scans.
//! * **Selection vectors** — predicates evaluate directly against the
//!   columns ([`Segment::select`]): access paths merge by sort-merge into
//!   sorted row-id vectors, entity id sets are dense bitmaps
//!   ([`IdSet`]), and callers read fields through cheap column accessors
//!   instead of materialized events. It is storage's one rule for which
//!   rows of a segment match a filter: [`EventStore::scan`] materializes
//!   exactly the rows it selects.
//! * **Time and space partitioning / hypertable** — events live in
//!   [`Partition`]s keyed by ⟨agent id, time bucket⟩ ([`PartitionKey`]),
//!   each an ordered run of columnar [`Segment`]s (one sealed per batch
//!   commit); the engine enumerates only the partitions a query's global
//!   constraints allow and executes them in parallel.
//! * **Segment compaction** — many small commits fragment a partition into
//!   many small segments; a size-tiered merge ([`EventStore::compact`],
//!   queued by every commit that crosses the trigger) rewrites
//!   adjacent small segments into dense runs while preserving the flat row
//!   addresses the engine's `EventRef`s carry.
//! * **Persistence** — a write-ahead log ([`wal`]) with CRC-protected
//!   framing, and full binary [`snapshot`]s of a store. A WAL commit hands
//!   its bytes to the OS and is never `fsync`ed: it survives a process
//!   crash, not a power loss.
//!
//! The paper layers these optimizations over PostgreSQL/Greenplum; here they
//! are a native embedded store (see DESIGN.md for the substitution argument).
//! Crucially the *unoptimized* access path — a full scan over one logical
//! heap, ignoring all indexes and partition pruning — is also exposed
//! ([`EventStore::scan_unoptimized`]): it is the per-row reference the
//! selection vectors are tested against, and Figure 5 evaluates baselines
//! without the storage optimizations. The access paths that model other
//! systems (the relational baseline's operation index, the graph import)
//! live in `aiql-baseline`.

#![forbid(unsafe_code)]

pub mod codec;
pub mod entities;
pub mod fault;
pub mod filter;
pub mod ingest;
pub mod partition;
pub mod recovery;
pub mod segment;
pub mod shared;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod wal;

pub use entities::{AttrCmp, EntityConstraint, EntityStore};
pub use fault::{FaultWriter, IoFault};
pub use filter::{EventFilter, IdSet, OpSet};
pub use ingest::{EntitySpec, RawEvent};
pub use partition::{CompactionCancelled, Partition};
pub use recovery::{load_or_recover, recover, RecoverySource};
pub use segment::{PartitionKey, Segment};
pub use shared::{MaintenanceExecutor, SharedStore};
pub use stats::{SegmentStats, StoreStats};
pub use store::{CompactionReport, EventStore, StoreConfig};
pub use wal::{ReplayReport, Wal, WalError};
