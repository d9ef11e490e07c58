//! The event store: hypertable of partition segments + entity dictionary +
//! batch ingestion with event-level deduplication.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use aiql_model::{AgentId, CancelToken, Duration, EntityId, Event, EventId, Operation, Timestamp};

use crate::entities::EntityStore;
use crate::filter::EventFilter;
use crate::ingest::RawEvent;
use crate::partition::{CompactionCancelled, Partition};
use crate::segment::PartitionKey;
use crate::stats::StoreStats;

/// Tunables of the storage layer: the hypertable geometry and the write
/// path's policies. The read path has no switches — scans go through
/// [`EventStore::select_partition`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Width of a hypertable time bucket.
    pub time_bucket: Duration,
    /// Whether event-level deduplication runs at commit.
    pub dedup: bool,
    /// Maximum gap between two identical observations for them to merge.
    pub dedup_window: Duration,
    /// Buffered observations that trigger an automatic batch commit.
    pub batch_size: usize,
    /// Size-tiered segment compaction runs automatically after each commit
    /// on the partitions the commit touched (explicit
    /// [`EventStore::compact`] is available either way). Disabled, every
    /// batch commit leaves its own sealed segment — the fragmented layout
    /// the compaction ablation measures.
    pub compaction: bool,
    /// Minimum segments a partition must accumulate before automatic
    /// compaction considers it (explicit compaction ignores this floor).
    pub compaction_min_segments: usize,
    /// Target tier: adjacent segments merge while their combined rows stay
    /// within this bound. Segments already larger than the tier are left
    /// standing.
    pub compaction_max_rows: usize,
    /// Novelty-overlay flush threshold in rows. When > 0, batch commits
    /// land in each partition's mutable overlay segment and seal into the
    /// immutable run only once the overlay reaches this many rows — small
    /// commits stop fragmenting the sealed layout and stop triggering merge
    /// work on the commit path. 0 (the default) seals every commit
    /// immediately (the pre-overlay behavior, kept for ablation and for the
    /// fragmentation benches).
    pub novelty_flush_rows: usize,
    /// Defer automatic compaction off the commit path: instead of merging
    /// inline at commit, partitions crossing the trigger are queued and
    /// drained by the owning [`SharedStore`]'s maintenance executor (or
    /// inline after snapshot publication when no executor is wired).
    /// Disabled, the PR 4 inline policy runs unchanged.
    pub background_compaction: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            time_bucket: Duration::from_hours(1),
            dedup: true,
            dedup_window: Duration::from_secs(1),
            batch_size: 8192,
            compaction: true,
            compaction_min_segments: 4,
            compaction_max_rows: 1 << 20,
            novelty_flush_rows: 0,
            background_compaction: false,
        }
    }
}

/// A resolved-but-uncommitted observation.
#[derive(Debug, Clone, Copy)]
struct PendingEvent {
    agent: AgentId,
    op: Operation,
    subject: EntityId,
    object: EntityId,
    start_time: Timestamp,
    end_time: Timestamp,
    amount: u64,
}

/// What one [`EventStore::compact`] pass did, for benches and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Partitions whose segment layout changed.
    pub partitions_compacted: usize,
    /// Total segments before the pass.
    pub segments_before: usize,
    /// Total segments after the pass.
    pub segments_after: usize,
}

/// Source of unique store identities (see [`EventStore::store_id`]).
static NEXT_STORE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// The embedded system-monitoring event store.
///
/// Cloning is cheap — O(partitions + segments), not O(events): sealed
/// segments and the entity dictionary are `Arc`-shared with the clone, and
/// only the (bounded) novelty overlays copy on the next write to either
/// side. [`SharedStore`] publishes read snapshots this way. A clone shares
/// the original's `store_id` and epoch vector, so plan-cache entries
/// validated against a snapshot stay keyed exactly like the live store.
#[derive(Debug, Clone)]
pub struct EventStore {
    config: StoreConfig,
    entities: Arc<EntityStore>,
    partitions: BTreeMap<PartitionKey, Partition>,
    buffer: Vec<PendingEvent>,
    next_event_id: u64,
    raw_events: u64,
    merged_events: u64,
    commits: u64,
    store_id: u64,
    epoch: u64,
    /// Dictionary epoch: bumped only when the entity dictionary (or the
    /// string interner behind it) may have changed. Variable resolutions
    /// read nothing else, so plan caches key them on this alone.
    dict_epoch: u64,
    /// Partition-set epoch: bumped only when a partition is created. A
    /// cached estimate whose dependency partitions are unchanged is still
    /// invalid if a *new* partition appeared inside its scan range; this
    /// counter lets caches detect that case without re-walking partitions
    /// on every lookup.
    partition_set_epoch: u64,
    /// Novelty overlays sealed into the immutable run so far (threshold
    /// flushes and explicit flushes alike).
    novelty_flushes: u64,
    /// Partitions whose segment count crossed the automatic-compaction
    /// trigger while `background_compaction` deferred the merge. Drained by
    /// [`EventStore::take_maintenance`].
    maintenance: Vec<PartitionKey>,
}

impl Default for EventStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl EventStore {
    /// Creates an empty store with the given configuration.
    pub fn new(config: StoreConfig) -> Self {
        EventStore {
            entities: Arc::new(EntityStore::new()),
            config,
            partitions: BTreeMap::new(),
            buffer: Vec::new(),
            next_event_id: 0,
            raw_events: 0,
            merged_events: 0,
            commits: 0,
            store_id: NEXT_STORE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            epoch: 0,
            dict_epoch: 0,
            partition_set_epoch: 0,
            novelty_flushes: 0,
            maintenance: Vec::new(),
        }
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Process-unique identity of this store. Together with [`Self::epoch`]
    /// it keys cross-query plan caches: a cached resolution is valid only
    /// for the exact ⟨store, epoch⟩ it was computed against.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// Mutation epoch: bumped on every write-side entry point (ingest,
    /// commit, snapshot insertion, mutable dictionary access). The coarse
    /// whole-store change counter; partition-scoped consumers use
    /// [`Self::partition_epoch`] / [`Self::dict_epoch`] instead.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Dictionary epoch: bumped only when the entity dictionary may have
    /// changed (an ingest that interned a new entity, or mutable dictionary
    /// access). Committing events into partitions does not bump this.
    pub fn dict_epoch(&self) -> u64 {
        self.dict_epoch
    }

    /// Partition-set epoch: bumped only when a new partition is created.
    pub fn partition_set_epoch(&self) -> u64 {
        self.partition_set_epoch
    }

    /// Mutation epoch of one partition (`None` for an unknown key).
    pub fn partition_epoch(&self, key: PartitionKey) -> Option<u64> {
        self.partitions.get(&key).map(Partition::epoch)
    }

    /// The per-partition epoch vector, in partition order. This is what
    /// snapshots persist and partition-scoped plan caches validate against.
    pub fn partition_epochs(&self) -> Vec<(PartitionKey, u64)> {
        self.partitions
            .iter()
            .map(|(&k, part)| (k, part.epoch()))
            .collect()
    }

    /// The per-partition physical layout (sealed segment row counts in
    /// commit order), in partition order — what snapshots persist so a
    /// reloaded store reproduces the exact fragmentation (or compaction)
    /// state. Novelty-overlay rows are not part of the sealed layout; see
    /// [`EventStore::novelty_lens`].
    pub fn segment_layouts(&self) -> Vec<(PartitionKey, Vec<u32>)> {
        self.partitions
            .iter()
            .map(|(&k, part)| (k, part.segments().iter().map(|s| s.len() as u32).collect()))
            .collect()
    }

    /// Per-partition novelty-overlay row counts, in partition order — the
    /// second half of the physical layout snapshots persist.
    pub fn novelty_lens(&self) -> Vec<(PartitionKey, u32)> {
        self.partitions
            .iter()
            .map(|(&k, part)| (k, part.novelty_len() as u32))
            .collect()
    }

    /// The ⟨partition, epoch⟩ dependency list of one filter: every
    /// partition a scan or estimate for `filter` would read, with its
    /// current epoch. A cached value computed from this filter stays valid
    /// while every listed epoch is unchanged and no new partition appears
    /// in the filter's range.
    pub fn partition_deps(&self, filter: &EventFilter) -> Vec<(PartitionKey, u64)> {
        self.partitions_for(filter)
            .into_iter()
            .map(|key| (key, self.partitions[&key].epoch()))
            .collect()
    }

    /// The entity dictionary.
    pub fn entities(&self) -> &EntityStore {
        &self.entities
    }

    /// Mutable entity dictionary (snapshot loading interns through this).
    /// Copy-on-write: when a published snapshot still shares the
    /// dictionary `Arc`, this clones it first.
    pub fn entities_mut(&mut self) -> &mut EntityStore {
        self.epoch += 1;
        self.dict_epoch += 1;
        Arc::make_mut(&mut self.entities)
    }

    /// Shared string dictionary.
    pub fn interner(&self) -> &aiql_model::Interner {
        self.entities.interner()
    }

    /// Buffers one raw observation; commits automatically when the batch
    /// fills (the paper's batch-commit write-throughput optimization).
    pub fn ingest(&mut self, raw: &RawEvent) {
        let (subject, object) = self.resolve_event_entities(raw);
        self.buffer.push(PendingEvent {
            agent: raw.agent,
            op: raw.op,
            subject,
            object,
            start_time: raw.start_time,
            end_time: raw.end_time,
            amount: raw.amount,
        });
        self.raw_events += 1;
        self.epoch += 1;
        if self.buffer.len() >= self.config.batch_size {
            self.commit();
        }
    }

    /// Resolves one observation's subject and object entity ids.
    ///
    /// Fast path: when every string is already interned and both entities
    /// dedup-hit, the ids come from read-only probes — the shared
    /// dictionary `Arc` is untouched, so a published snapshot keeps sharing
    /// it and repeat-heavy ingest (the monitoring steady state) never pays
    /// a dictionary clone. Only genuinely novel entities take the
    /// copy-on-write slow path.
    fn resolve_event_entities(&mut self, raw: &RawEvent) -> (EntityId, EntityId) {
        let object_agent = raw.object_agent.unwrap_or(raw.agent);
        if let (Some(subject_attrs), Some(object_attrs)) = (
            raw.subject.try_resolve(&self.entities),
            raw.object.try_resolve(&self.entities),
        ) {
            if let (Some(subject), Some(object)) = (
                self.entities.lookup(raw.agent, subject_attrs),
                self.entities.lookup(object_agent, object_attrs),
            ) {
                self.entities.note_dedup_hit();
                self.entities.note_dedup_hit();
                return (subject, object);
            }
        }
        // The dictionary epoch must only move when the dictionary does:
        // both it and the interner are append-only, so their sizes are a
        // complete change fingerprint.
        let dict_before = (self.entities.len(), self.entities.interner().len());
        let entities = Arc::make_mut(&mut self.entities);
        let subject_attrs = raw.subject.resolve(entities);
        let object_attrs = raw.object.resolve(entities);
        let subject = entities.intern(raw.agent, subject_attrs);
        let object = entities.intern(object_agent, object_attrs);
        if (self.entities.len(), self.entities.interner().len()) != dict_before {
            self.dict_epoch += 1;
        }
        (subject, object)
    }

    /// Ingests a batch and commits at the end.
    pub fn ingest_all<'a>(&mut self, raws: impl IntoIterator<Item = &'a RawEvent>) {
        for raw in raws {
            self.ingest(raw);
        }
        self.commit();
    }

    /// Flushes the ingest buffer into partition segments, applying
    /// event-level deduplication when enabled.
    pub fn commit(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.epoch += 1;
        let mut batch = std::mem::take(&mut self.buffer);
        if self.config.dedup {
            // Group identical SVO interactions that are adjacent in time and
            // merge them (summing amounts, extending the interval).
            batch.sort_by(|a, b| {
                (a.agent, a.subject, a.object, a.op as u8, a.start_time).cmp(&(
                    b.agent,
                    b.subject,
                    b.object,
                    b.op as u8,
                    b.start_time,
                ))
            });
            let window = self.config.dedup_window;
            let mut merged: Vec<PendingEvent> = Vec::with_capacity(batch.len());
            for e in batch {
                match merged.last_mut() {
                    Some(prev)
                        if prev.agent == e.agent
                            && prev.subject == e.subject
                            && prev.object == e.object
                            && prev.op == e.op
                            && e.start_time.micros() - prev.end_time.micros()
                                <= window.micros() =>
                    {
                        prev.end_time = prev.end_time.max(e.end_time);
                        prev.amount += e.amount;
                        self.merged_events += 1;
                    }
                    _ => merged.push(e),
                }
            }
            batch = merged;
            // Restore commit order by time so event ids stay roughly
            // monotone with time (useful for debugging, not required).
            batch.sort_by_key(|e| e.start_time);
        }
        let bucket = self.config.time_bucket.micros();
        // Assign ids in batch order (so ids stay roughly time-monotone as
        // before), grouping the commit's events per partition: each touched
        // partition seals the group as one new segment.
        let mut groups: BTreeMap<PartitionKey, Vec<Event>> = BTreeMap::new();
        for p in batch {
            let id = EventId(self.next_event_id);
            self.next_event_id += 1;
            let event = Event {
                id,
                agent: p.agent,
                op: p.op,
                subject: p.subject,
                object: p.object,
                start_time: p.start_time,
                end_time: p.end_time,
                amount: p.amount,
            };
            let key = PartitionKey::for_event(p.agent, p.start_time, bucket);
            groups.entry(key).or_default().push(event);
        }
        let (auto, min_segments, max_rows) = (
            self.config.compaction,
            self.config.compaction_min_segments,
            self.config.compaction_max_rows,
        );
        let (novelty_rows, background) = (
            self.config.novelty_flush_rows,
            self.config.background_compaction,
        );
        let mut flushes = 0u64;
        let mut deferred: Vec<PartitionKey> = Vec::new();
        for (key, events) in groups {
            let part = self.partition_mut(key);
            if novelty_rows == 0 {
                part.append_commit(key.agent, &events);
            } else if part.append_novelty(key.agent, &events, novelty_rows) {
                flushes += 1;
            }
            // The trigger watches sealed segments only: the overlay flushes
            // by its own threshold, so with the overlay on, small commits
            // reach this merge policy in dense flush-sized units.
            if auto && part.sealed_segment_count() >= min_segments.max(2) {
                if background {
                    deferred.push(key);
                } else {
                    part.compact(max_rows);
                }
            }
        }
        self.novelty_flushes += flushes;
        for key in deferred {
            if !self.maintenance.contains(&key) {
                self.maintenance.push(key);
            }
        }
        self.commits += 1;
    }

    /// Drains the deferred background-compaction queue (partitions whose
    /// segment count crossed the automatic trigger while
    /// `background_compaction` was on). The caller — [`SharedStore`]'s
    /// write path — schedules the actual merges.
    pub fn take_maintenance(&mut self) -> Vec<PartitionKey> {
        std::mem::take(&mut self.maintenance)
    }

    /// Seals every partition's novelty overlay into its immutable run
    /// (an `Arc` move per partition — rows are neither copied nor
    /// renumbered). Returns how many partitions flushed. Maintenance and
    /// persistence call this; queries never need it.
    pub fn flush_novelty(&mut self) -> usize {
        let mut flushed = 0usize;
        for part in self.partitions.values_mut() {
            if part.flush_novelty() {
                flushed += 1;
            }
        }
        self.novelty_flushes += flushed as u64;
        flushed
    }

    /// The (created-on-demand) partition, tracking the partition-set epoch
    /// when a new one appears.
    fn partition_mut(&mut self, key: PartitionKey) -> &mut Partition {
        match self.partitions.entry(key) {
            std::collections::btree_map::Entry::Vacant(v) => {
                self.partition_set_epoch += 1;
                v.insert(Partition::new())
            }
            std::collections::btree_map::Entry::Occupied(o) => o.into_mut(),
        }
    }

    /// Explicitly compacts every fragmented partition to the configured
    /// tier (`compaction_max_rows`), regardless of the automatic policy.
    /// Only the partitions whose layout actually changed have their epochs
    /// bumped — plan-cache entries over untouched partitions survive.
    pub fn compact(&mut self) -> CompactionReport {
        // Without a token the pass can't be cancelled.
        self.compact_impl(None).unwrap_or_default()
    }

    /// [`EventStore::compact`] honoring a [`CancelToken`]: the token is
    /// polled before each partition's run merges, so a shutdown or an
    /// admission-controller drain can abort a long pass cleanly. Partition
    /// atomicity holds throughout — a partition is either fully merged (its
    /// epoch bumped) or untouched; the cancelled partition's partial merge
    /// is discarded and its epoch never moves. Partitions completed before
    /// the abort stay compacted, and the store epoch reflects them even on
    /// the `Err` path.
    pub fn compact_with_cancel(
        &mut self,
        cancel: &CancelToken,
    ) -> Result<CompactionReport, CompactionCancelled> {
        self.compact_impl(Some(cancel))
    }

    fn compact_impl(
        &mut self,
        cancel: Option<&CancelToken>,
    ) -> Result<CompactionReport, CompactionCancelled> {
        let max_rows = self.config.compaction_max_rows;
        let mut report = CompactionReport::default();
        for part in self.partitions.values_mut() {
            report.segments_before += part.segment_count();
            match part.compact_cancellable(max_rows, cancel) {
                Ok(true) => report.partitions_compacted += 1,
                Ok(false) => {}
                Err(e) => {
                    if report.partitions_compacted > 0 {
                        self.epoch += 1;
                    }
                    return Err(e);
                }
            }
            report.segments_after += part.segment_count();
        }
        if report.partitions_compacted > 0 {
            self.epoch += 1;
        }
        Ok(report)
    }

    /// Compacts one partition to the configured tier. Returns whether its
    /// layout changed (and therefore its epoch was bumped).
    pub fn compact_partition(&mut self, key: PartitionKey) -> bool {
        self.compact_partition_impl(key, None).unwrap_or(false)
    }

    /// [`EventStore::compact_partition`] honoring a [`CancelToken`]. A
    /// cancelled pass discards its partial merges: the partition's layout,
    /// its epoch, and the store epoch are exactly as they were.
    pub fn compact_partition_with_cancel(
        &mut self,
        key: PartitionKey,
        cancel: &CancelToken,
    ) -> Result<bool, CompactionCancelled> {
        self.compact_partition_impl(key, Some(cancel))
    }

    fn compact_partition_impl(
        &mut self,
        key: PartitionKey,
        cancel: Option<&CancelToken>,
    ) -> Result<bool, CompactionCancelled> {
        let max_rows = self.config.compaction_max_rows;
        let Some(part) = self.partitions.get_mut(&key) else {
            return Ok(false);
        };
        let changed = part.compact_cancellable(max_rows, cancel)?;
        if changed {
            self.epoch += 1;
        }
        Ok(changed)
    }

    /// Total committed events.
    pub fn event_count(&self) -> u64 {
        self.partitions.values().map(|s| s.len() as u64).sum()
    }

    /// The hypertable partition keys that can contain matches for a filter
    /// (agent + time-bucket pruning). This is the engine's unit of parallel
    /// execution.
    pub fn partitions_for(&self, filter: &EventFilter) -> Vec<PartitionKey> {
        let bucket = self.config.time_bucket.micros();
        let lo = bucket_floor(filter.window.start, bucket);
        let hi = bucket_floor(filter.window.end, bucket);
        self.partitions
            .iter()
            .filter(|(key, seg)| {
                if key.bucket < lo || key.bucket > hi {
                    return false;
                }
                if let Some(agents) = &filter.agents {
                    if !agents.contains(&key.agent) {
                        return false;
                    }
                }
                seg.overlaps_window(filter)
            })
            .map(|(key, _)| *key)
            .collect()
    }

    /// Direct access to one partition (columnar readers resolve flat row
    /// references through this).
    pub fn partition(&self, key: PartitionKey) -> Option<&Partition> {
        self.partitions.get(&key)
    }

    /// All partition keys in ascending order (the engine's row-reference
    /// address space: a reference is ⟨index into this list, row⟩).
    pub fn partition_list(&self) -> Vec<PartitionKey> {
        self.partitions.keys().copied().collect()
    }

    /// Selection-vector scan of one partition: sorted matching flat row ids,
    /// every predicate evaluated directly against the columns
    /// ([`Segment::select`]) — no `Event` is materialized.
    pub fn select_partition(&self, key: PartitionKey, filter: &EventFilter) -> Vec<u32> {
        self.partitions
            .get(&key)
            .map_or_else(Vec::new, |part| part.select(key.agent, filter))
    }

    /// Matching-row count for a filter, through the selection-vector path —
    /// no events are materialized.
    pub fn count(&self, filter: &EventFilter) -> usize {
        self.partitions_for(filter)
            .into_iter()
            .map(|key| self.select_partition(key, filter).len())
            .sum()
    }

    /// Index-assisted scan of one partition.
    pub fn scan_partition(
        &self,
        key: PartitionKey,
        filter: &EventFilter,
        f: &mut dyn FnMut(&Event),
    ) {
        if let Some(part) = self.partitions.get(&key) {
            part.scan(key.agent, filter, f);
        }
    }

    /// Optimized scan: partition pruning + per-segment index access paths.
    pub fn scan(&self, filter: &EventFilter, f: &mut dyn FnMut(&Event)) {
        for key in self.partitions_for(filter) {
            self.scan_partition(key, filter, f);
        }
    }

    /// Optimized scan materializing the matches.
    pub fn scan_collect(&self, filter: &EventFilter) -> Vec<Event> {
        let mut out = Vec::new();
        self.scan(filter, &mut |e| out.push(*e));
        out
    }

    /// Unoptimized scan: one logical heap, no partition pruning, no indexes,
    /// every predicate verified per row. This models querying the raw data
    /// without the paper's storage optimizations (Figure 5 baselines).
    pub fn scan_unoptimized(&self, filter: &EventFilter, f: &mut dyn FnMut(&Event)) {
        for (key, part) in &self.partitions {
            part.scan_full(key.agent, filter, f);
        }
    }

    /// Unoptimized scan materializing the matches.
    pub fn scan_unoptimized_collect(&self, filter: &EventFilter) -> Vec<Event> {
        let mut out = Vec::new();
        self.scan_unoptimized(filter, &mut |e| out.push(*e));
        out
    }

    /// Scan with ordinary secondary indexes but *no* partition pruning:
    /// models a plain relational system that has a btree/bitmap index on
    /// the operation column yet none of the domain optimizations
    /// (time/space partitioning, zone maps). Every segment is visited; the
    /// operation postings narrow candidates inside each; all remaining
    /// predicates are verified per row.
    pub fn scan_op_indexed(&self, filter: &EventFilter, f: &mut dyn FnMut(&Event)) {
        // Disable the zone-map/partition shortcuts by widening the window
        // used for candidate selection; the real window is still verified
        // per row below.
        let mut candidate_filter = filter.clone();
        candidate_filter.window = aiql_model::TimeWindow::ALL;
        candidate_filter.subjects = None;
        candidate_filter.objects = None;
        for (key, part) in &self.partitions {
            part.scan(key.agent, &candidate_filter, &mut |e| {
                if filter.matches(e) {
                    f(e);
                }
            });
        }
    }

    /// Visits every committed event (used by the graph baseline to build its
    /// property graph, and by snapshotting).
    pub fn for_each_event(&self, f: &mut dyn FnMut(&Event)) {
        self.scan_unoptimized(&EventFilter::all(), f);
    }

    /// Estimated match count for a filter, from partition statistics.
    pub fn estimate(&self, filter: &EventFilter) -> usize {
        self.partitions_for(filter)
            .iter()
            .map(|key| self.partitions[key].estimate(filter))
            .sum()
    }

    /// Store-wide statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        let events = self.event_count();
        let mut agents: Vec<AgentId> = self.partitions.keys().map(|k| k.agent).collect();
        agents.dedup();
        agents.sort_unstable();
        agents.dedup();
        // Fragmentation: segments per partition and segment row sizes (a
        // non-empty novelty overlay counts as one segment; row-size stats
        // cover sealed segments only).
        let mut segments = 0u64;
        let mut max_partition_segments = 0u64;
        let mut min_segment_rows = u64::MAX;
        let mut novelty_events = 0u64;
        for part in self.partitions.values() {
            let n = part.segment_count() as u64;
            segments += n;
            max_partition_segments = max_partition_segments.max(n);
            novelty_events += part.novelty_len() as u64;
            for seg in part.segments() {
                min_segment_rows = min_segment_rows.min(seg.len() as u64);
            }
        }
        StoreStats {
            events,
            raw_events: self.raw_events,
            merged_events: self.merged_events,
            entities: self.entities.len() as u64,
            entity_dedup_hits: self.entities.dedup_hits(),
            partitions: self.partitions.len() as u64,
            agents: agents.len() as u64,
            commits: self.commits,
            event_bytes: events * 41, // id+op+subj+obj+2×time+amount per row
            dict_bytes: self.interner().heap_bytes() as u64,
            segments,
            max_partition_segments,
            min_segment_rows: if min_segment_rows == u64::MAX {
                0
            } else {
                min_segment_rows
            },
            avg_segment_rows: events.checked_div(segments).unwrap_or(0),
            novelty_events,
            novelty_bytes: novelty_events * 41,
            novelty_flushes: self.novelty_flushes,
            reader_stalls: 0,
        }
    }

    /// Direct committed-event insertion used by snapshot loading; bypasses
    /// the ingest buffer and dedup (the snapshot already reflects them).
    pub(crate) fn insert_committed(&mut self, event: Event) {
        self.epoch += 1;
        let key = PartitionKey::for_event(
            event.agent,
            event.start_time,
            self.config.time_bucket.micros(),
        );
        self.partition_mut(key).push_tail(event.agent, &event);
        self.next_event_id = self.next_event_id.max(event.id.raw() + 1);
        self.raw_events += 1;
    }

    /// Re-applies a persisted physical layout (per-partition sealed segment
    /// row counts plus novelty-overlay rows): snapshot replay lands every
    /// partition in one dense overlay, and this re-splits them so the
    /// loaded store reproduces the saved sealed/overlay split exactly.
    /// `novelty` entries are looked up per partition; a partition absent
    /// from it seals everything.
    pub(crate) fn restore_layout(
        &mut self,
        layouts: &[(PartitionKey, Vec<u32>)],
        novelty: &[(PartitionKey, u32)],
    ) {
        for (key, lens) in layouts {
            if let Some(part) = self.partitions.get_mut(key) {
                let novelty_rows = novelty
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(0, |&(_, n)| n);
                part.apply_layout(key.agent, lens, novelty_rows);
            }
        }
    }

    /// Re-seeds the epoch counters from a persisted snapshot so the epoch
    /// vector stays monotone across save/load cycles. Missing partitions
    /// keep the counters they accumulated during replay.
    pub(crate) fn restore_epochs(
        &mut self,
        epoch: u64,
        dict_epoch: u64,
        partition_epochs: &[(PartitionKey, u64)],
    ) {
        self.epoch = self.epoch.max(epoch);
        self.dict_epoch = self.dict_epoch.max(dict_epoch);
        for &(key, e) in partition_epochs {
            if let Some(part) = self.partitions.get_mut(&key) {
                part.set_epoch(part.epoch().max(e));
            }
        }
    }

    /// The access path the selection-vector scan takes for a filter,
    /// summarized over the filter's partitions — what `EXPLAIN` reports as
    /// the chosen path. Each label follows the per-segment choice in
    /// [`Segment::select`]: entity posting lists when some segment the scan
    /// reads resolves the filter's id sets through them (the same budget
    /// test — a set whose postings cover more than half a segment is
    /// declined there and is not named here), operation postings when they
    /// prune (the op rows cover less than half the candidate rows),
    /// otherwise the columnar mask scan.
    pub fn access_path(&self, filter: &EventFilter) -> &'static str {
        let keys = self.partitions_for(filter);
        let entity = keys
            .iter()
            .any(|k| self.partitions[k].uses_entity_postings(filter));
        let rows: usize = keys.iter().map(|k| self.partitions[k].len()).sum();
        let op_rows: usize = keys
            .iter()
            .flat_map(|k| filter.ops.iter().map(|op| self.partitions[k].op_count(op)))
            .sum();
        let op = !filter.ops.is_all() && op_rows * 2 < rows;
        match (entity, op) {
            (true, true) => "entity-postings∩op-postings",
            (true, false) => "entity-postings",
            (false, true) => "op-postings",
            (false, false) => "columnar-mask-scan",
        }
    }
}

fn bucket_floor(t: Timestamp, bucket: i64) -> i64 {
    // Avoid overflow on the unbounded window sentinels.
    if t.micros() == i64::MIN {
        i64::MIN
    } else if t.micros() == i64::MAX {
        i64::MAX
    } else {
        t.micros().div_euclid(bucket)
    }
}

/// Executor for store maintenance jobs (background compaction and novelty
/// flushes). The storage crate defines only the contract; the engine wires
/// its shared scan pool in, keeping the storage→engine dependency direction
/// intact.
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
    /// The dictionary copy the published snapshots share, keyed by the
    /// dict epoch it was taken at. Re-cloned (minus the ingest-only dedup
    /// map) only when a commit actually grew the dictionary; batches that
    /// hit the dedup fast path republish the same `Arc`. Handing snapshots
    /// their *own* dictionary keeps the writer's `Arc` permanently unique,
    /// so ingest never pays `Arc::make_mut`'s full-dictionary copy on the
    /// commit path.
    dict_cache: std::sync::Mutex<Option<(u64, Arc<EntityStore>)>>,
}

/// A cloneable, thread-safe handle to a store.
///
/// Every write publishes an immutable epoch-tagged `Arc` clone of the store
/// (cheap — sealed segments and dictionaries are shared).
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
        let dict_cache = std::sync::Mutex::new(None);
        let snapshot = Arc::new(Self::publish_clone(&store, &dict_cache));
        SharedStore {
            inner: Arc::new(SharedInner {
                writer: RwLock::new(store),
                published: RwLock::new(snapshot),
                reader_stalls: std::sync::atomic::AtomicU64::new(0),
                maintenance: std::sync::Mutex::new(Maintenance {
                    executor: None,
                    cancel: CancelToken::new(),
                }),
                dict_cache,
            }),
        }
    }

    /// The snapshot to publish after a write: shares sealed segments and
    /// overlays by `Arc`, and swaps in the cached read-only dictionary —
    /// re-copied via [`EntityStore::clone_for_read`] only when this write
    /// moved the dict epoch. The writer's own dictionary `Arc` is never
    /// handed out, so its `Arc::make_mut` stays the free unique-owner path
    /// on every subsequent commit.
    fn publish_clone(
        store: &EventStore,
        cache: &std::sync::Mutex<Option<(u64, Arc<EntityStore>)>>,
    ) -> EventStore {
        let mut snap = store.clone();
        let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
        snap.entities = match cache.as_ref() {
            Some((epoch, dict)) if *epoch == store.dict_epoch => dict.clone(),
            _ => {
                let dict = Arc::new(store.entities.clone_for_read());
                *cache = Some((store.dict_epoch, dict.clone()));
                dict
            }
        };
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
    /// background compaction.
    pub fn write<R>(&self, f: impl FnOnce(&mut EventStore) -> R) -> R {
        let mut guard = self.inner.writer.write().unwrap_or_else(|e| e.into_inner());
        let r = f(&mut guard);
        let snap = Arc::new(Self::publish_clone(&guard, &self.inner.dict_cache));
        *self
            .inner
            .published
            .write()
            .unwrap_or_else(|e| e.into_inner()) = snap;
        let pending = guard.take_maintenance();
        drop(guard);
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
    use crate::filter::OpSet;
    use crate::ingest::EntitySpec;
    use aiql_model::TimeWindow;

    fn raw(agent: u32, op: Operation, exe: &str, file: &str, t: i64, amount: u64) -> RawEvent {
        RawEvent::instant(
            AgentId(agent),
            op,
            EntitySpec::process(100, exe, "alice"),
            EntitySpec::file(file, "alice"),
            Timestamp::from_secs(t),
            amount,
        )
    }

    #[test]
    fn ingest_commit_scan_roundtrip() {
        let mut store = EventStore::default();
        store.ingest_all(&[
            raw(1, Operation::Read, "cat", "/etc/passwd", 10, 100),
            raw(1, Operation::Write, "vim", "/home/alice/x", 20, 200),
            raw(2, Operation::Read, "less", "/var/log/syslog", 30, 300),
        ]);
        assert_eq!(store.event_count(), 3);
        let reads =
            store.scan_collect(&EventFilter::all().with_ops(OpSet::single(Operation::Read)));
        assert_eq!(reads.len(), 2);
    }

    #[test]
    fn dedup_merges_adjacent_identical_events() {
        let mut store = EventStore::default();
        // Three identical reads 100ms apart (within the 1s dedup window).
        let mut raws = Vec::new();
        for i in 0..3 {
            let mut r = raw(1, Operation::Read, "cat", "/etc/passwd", 0, 100);
            r.start_time = Timestamp(i * 100_000);
            r.end_time = r.start_time;
            raws.push(r);
        }
        store.ingest_all(&raws);
        assert_eq!(store.event_count(), 1);
        let all = store.scan_collect(&EventFilter::all());
        assert_eq!(all[0].amount, 300);
        assert_eq!(all[0].end_time, Timestamp(200_000));
        assert_eq!(store.stats().merged_events, 2);
    }

    #[test]
    fn dedup_respects_window_gap() {
        let cfg = StoreConfig {
            dedup_window: Duration::from_millis(50),
            ..StoreConfig::default()
        };
        let mut store = EventStore::new(cfg);
        let mut r1 = raw(1, Operation::Read, "cat", "/etc/passwd", 0, 100);
        let mut r2 = r1.clone();
        r1.start_time = Timestamp(0);
        r1.end_time = Timestamp(0);
        r2.start_time = Timestamp(1_000_000); // 1s later, > 50ms window
        r2.end_time = r2.start_time;
        store.ingest_all(&[r1, r2]);
        assert_eq!(store.event_count(), 2);
    }

    #[test]
    fn dedup_can_be_disabled() {
        let cfg = StoreConfig {
            dedup: false,
            ..StoreConfig::default()
        };
        let mut store = EventStore::new(cfg);
        let r = raw(1, Operation::Read, "cat", "/etc/passwd", 10, 100);
        store.ingest_all(&[r.clone(), r.clone(), r]);
        assert_eq!(store.event_count(), 3);
    }

    #[test]
    fn partition_pruning_by_agent_and_time() {
        let mut store = EventStore::default();
        store.ingest_all(&[
            raw(1, Operation::Read, "a", "/f1", 10, 1),
            raw(2, Operation::Read, "b", "/f2", 10, 1),
            raw(1, Operation::Read, "c", "/f3", 7200, 1), // 2h later: new bucket
        ]);
        assert_eq!(store.stats().partitions, 3);
        let filter = EventFilter::all()
            .with_agents(vec![AgentId(1)])
            .with_window(TimeWindow::new(Timestamp(0), Timestamp::from_secs(3600)));
        let keys = store.partitions_for(&filter);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].agent, AgentId(1));
    }

    #[test]
    fn optimized_and_unoptimized_scans_agree() {
        let mut store = EventStore::default();
        let mut raws = Vec::new();
        for i in 0..200 {
            raws.push(raw(
                (i % 3) as u32,
                if i % 2 == 0 {
                    Operation::Read
                } else {
                    Operation::Connect
                },
                &format!("exe{}", i % 7),
                &format!("/f{}", i % 11),
                i,
                i as u64,
            ));
        }
        store.ingest_all(&raws);
        let filters = [
            EventFilter::all(),
            EventFilter::all().with_ops(OpSet::single(Operation::Read)),
            EventFilter::all().with_agents(vec![AgentId(2)]),
            EventFilter::all().with_window(TimeWindow::new(
                Timestamp::from_secs(50),
                Timestamp::from_secs(150),
            )),
        ];
        for f in filters {
            let mut a = store.scan_collect(&f);
            let mut b = store.scan_unoptimized_collect(&f);
            a.sort_by_key(|e| e.id);
            b.sort_by_key(|e| e.id);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn auto_commit_on_batch_size() {
        let cfg = StoreConfig {
            batch_size: 4,
            ..StoreConfig::default()
        };
        let mut store = EventStore::new(cfg);
        for i in 0..10 {
            // 10s apart — outside the dedup window, so nothing merges.
            store.ingest(&raw(1, Operation::Read, "x", "/f", i * 10, 1));
        }
        // Two automatic commits at 4 and 8 happened; 2 still buffered.
        assert!(store.event_count() >= 8);
        store.commit();
        assert!(store.stats().commits >= 3);
    }

    #[test]
    fn estimate_bounds_actual_matches() {
        let mut store = EventStore::default();
        let mut raws = Vec::new();
        for i in 0..100 {
            raws.push(raw(1, Operation::Read, "cat", &format!("/f{}", i), i, 1));
        }
        store.ingest_all(&raws);
        let f = EventFilter::all().with_ops(OpSet::single(Operation::Read));
        let actual = store.scan_collect(&f).len();
        assert!(store.estimate(&f) >= actual);
    }

    #[test]
    fn shared_store_read_write() {
        let shared = SharedStore::new(EventStore::default());
        shared.write(|s| {
            s.ingest_all(&[raw(1, Operation::Read, "cat", "/etc/passwd", 10, 100)]);
        });
        let n = shared.read(|s| s.event_count());
        assert_eq!(n, 1);
    }

    #[test]
    fn op_indexed_scan_matches_reference_semantics() {
        let mut store = EventStore::default();
        let mut raws = Vec::new();
        for i in 0..300 {
            raws.push(raw(
                (i % 3) as u32,
                if i % 5 == 0 {
                    Operation::Execute
                } else {
                    Operation::Read
                },
                &format!("exe{}", i % 4),
                &format!("/f{}", i % 6),
                i * 60, // spread over several hour buckets
                1,
            ));
        }
        store.ingest_all(&raws);
        let filters = [
            EventFilter::all().with_ops(OpSet::single(Operation::Execute)),
            EventFilter::all()
                .with_ops(OpSet::single(Operation::Read))
                .with_agents(vec![AgentId(1)])
                .with_window(TimeWindow::new(
                    Timestamp::from_secs(1000),
                    Timestamp::from_secs(9000),
                )),
        ];
        for f in filters {
            let mut indexed = Vec::new();
            store.scan_op_indexed(&f, &mut |e| indexed.push(e.id));
            let mut reference: Vec<_> = store
                .scan_unoptimized_collect(&f)
                .iter()
                .map(|e| e.id)
                .collect();
            indexed.sort_unstable();
            reference.sort_unstable();
            assert_eq!(indexed, reference);
        }
    }

    #[test]
    fn access_path_names_entity_postings_only_where_the_scan_takes_them() {
        // One partition, 100 reads: `cat` is the subject of 90, `vim` of 10.
        let mut store = EventStore::new(StoreConfig {
            dedup: false,
            ..StoreConfig::default()
        });
        let raws: Vec<RawEvent> = (0..100)
            .map(|i| {
                let exe = if i % 10 == 0 { "vim" } else { "cat" };
                raw(1, Operation::Read, exe, &format!("/f{i}"), i, 1)
            })
            .collect();
        store.ingest_all(&raws);
        assert_eq!(store.stats().partitions, 1);
        let subjects_named = |exe: &str| {
            let sym = store.interner().get(exe).expect("ingested name");
            let ids = store.entities().find(
                aiql_model::EntityKind::Process,
                None,
                &[crate::entities::EntityConstraint::on_default(
                    crate::entities::AttrCmp::Eq(aiql_model::Value::Str(sym)),
                )],
            );
            EventFilter::all().with_subjects(crate::filter::IdSet::from_iter(ids))
        };
        // `vim` postings cover a tenth of the segment: the scan resolves
        // them through the index and EXPLAIN says so.
        let sparse = subjects_named("vim");
        assert_eq!(store.count(&sparse), 10);
        assert_eq!(store.access_path(&sparse), "entity-postings");
        // `cat` postings cover most of it: `select` declines them for the
        // column pass, so the label must not name them either.
        let dense = subjects_named("cat");
        assert_eq!(store.count(&dense), 90);
        assert_eq!(store.access_path(&dense), "columnar-mask-scan");
    }

    #[test]
    fn tiny_batch_ingest_fragments_and_compaction_densifies() {
        let cfg = StoreConfig {
            batch_size: 8,
            compaction: false,
            dedup: false,
            ..StoreConfig::default()
        };
        let mut store = EventStore::new(cfg);
        let raws: Vec<RawEvent> = (0..100)
            .map(|i| raw(1, Operation::Read, "cat", &format!("/f{}", i % 9), i, 1))
            .collect();
        store.ingest_all(&raws);
        let frag = store.stats();
        assert!(
            frag.segments > frag.partitions,
            "tiny-batch commits must fragment: {} segments over {} partitions",
            frag.segments,
            frag.partitions
        );
        let before = store.scan_collect(&EventFilter::all());
        let report = store.compact();
        assert!(report.partitions_compacted > 0);
        assert!(report.segments_after < report.segments_before);
        let dense = store.stats();
        assert_eq!(dense.segments, dense.partitions, "one dense run each");
        assert_eq!(dense.max_partition_segments, 1);
        let after = store.scan_collect(&EventFilter::all());
        assert_eq!(before, after, "compaction must not change scan results");
        // A second pass is a no-op.
        assert_eq!(
            store.compact(),
            CompactionReport {
                partitions_compacted: 0,
                segments_before: dense.segments as usize,
                segments_after: dense.segments as usize,
            }
        );
    }

    #[test]
    fn cancelled_store_compaction_discards_partial_merges() {
        let cfg = StoreConfig {
            batch_size: 8,
            compaction: false,
            dedup: false,
            ..StoreConfig::default()
        };
        let mut store = EventStore::new(cfg);
        let raws: Vec<RawEvent> = (0..100)
            .map(|i| raw(1, Operation::Read, "cat", &format!("/f{}", i % 9), i, 1))
            .collect();
        store.ingest_all(&raws);
        let before_scan = store.scan_collect(&EventFilter::all());
        let before_stats = store.stats();
        let epoch_before = store.epoch();
        let cancel = CancelToken::new();
        cancel.cancel();
        // A drain that fires before the pass starts aborts it with nothing
        // moved: same layout, same epochs, same scan results.
        assert_eq!(store.compact_with_cancel(&cancel), Err(CompactionCancelled));
        assert_eq!(store.epoch(), epoch_before, "no layout change, no bump");
        assert_eq!(store.stats().segments, before_stats.segments);
        assert_eq!(store.scan_collect(&EventFilter::all()), before_scan);
        // Retrying with a live token completes the interrupted maintenance.
        let report = store.compact_with_cancel(&CancelToken::new()).unwrap();
        assert!(report.partitions_compacted > 0);
        assert!(store.epoch() > epoch_before);
        assert_eq!(store.scan_collect(&EventFilter::all()), before_scan);
    }

    #[test]
    fn cancelled_partition_compaction_leaves_epochs_untouched() {
        let cfg = StoreConfig {
            batch_size: 4,
            compaction: false,
            dedup: false,
            ..StoreConfig::default()
        };
        let mut store = EventStore::new(cfg);
        let raws: Vec<RawEvent> = (0..40)
            .map(|i| raw(1, Operation::Read, "cat", "/f0", i, 1))
            .collect();
        store.ingest_all(&raws);
        let key = *store
            .partition_list()
            .first()
            .expect("ingest created a partition");
        let epoch_before = store.epoch();
        let part_epoch_before = store.partition_epoch(key).expect("partition exists");
        let cancel = CancelToken::new();
        cancel.cancel();
        assert_eq!(
            store.compact_partition_with_cancel(key, &cancel),
            Err(CompactionCancelled)
        );
        assert_eq!(store.epoch(), epoch_before);
        assert_eq!(store.partition_epoch(key), Some(part_epoch_before));
        assert!(store
            .compact_partition_with_cancel(key, &CancelToken::new())
            .unwrap());
        assert_eq!(store.partition_epoch(key), Some(part_epoch_before + 1));
    }

    #[test]
    fn automatic_compaction_keeps_partitions_dense() {
        let cfg = StoreConfig {
            batch_size: 8,
            compaction_min_segments: 4,
            dedup: false,
            ..StoreConfig::default()
        };
        let mut store = EventStore::new(cfg);
        for i in 0..200 {
            store.ingest(&raw(
                1,
                Operation::Read,
                "cat",
                &format!("/f{}", i % 9),
                i,
                1,
            ));
        }
        store.commit();
        let stats = store.stats();
        assert!(
            stats.max_partition_segments < 4,
            "auto policy must hold segments below the trigger: {}",
            stats.max_partition_segments
        );
    }

    #[test]
    fn compaction_bumps_only_merged_partition_epochs() {
        let cfg = StoreConfig {
            compaction: false,
            dedup: false,
            ..StoreConfig::default()
        };
        let mut store = EventStore::new(cfg);
        // Day 0: one commit → one dense segment.
        store.ingest_all(&[raw(1, Operation::Read, "cat", "/dense", 10, 1)]);
        // Day 2: five commits into one partition → five segments.
        for i in 0..5 {
            store.ingest_all(&[raw(1, Operation::Read, "cat", "/frag", 2 * 86_400 + i, 1)]);
        }
        let epochs_before: std::collections::BTreeMap<_, _> =
            store.partition_epochs().into_iter().collect();
        let frag_key = *epochs_before
            .keys()
            .max_by_key(|k| k.bucket)
            .expect("two partitions");
        let dense_key = *epochs_before
            .keys()
            .min_by_key(|k| k.bucket)
            .expect("two partitions");
        assert!(store.partition(frag_key).unwrap().segment_count() > 1);
        assert_eq!(store.partition(dense_key).unwrap().segment_count(), 1);
        let report = store.compact();
        assert_eq!(report.partitions_compacted, 1);
        let epochs_after: std::collections::BTreeMap<_, _> =
            store.partition_epochs().into_iter().collect();
        assert_eq!(
            epochs_after[&dense_key], epochs_before[&dense_key],
            "untouched partition keeps its epoch"
        );
        assert!(
            epochs_after[&frag_key] > epochs_before[&frag_key],
            "merged partition's epoch must move"
        );
        // Targeted compaction of an already-dense partition is a no-op.
        assert!(!store.compact_partition(dense_key));
    }

    #[test]
    fn fragmented_and_compacted_scans_agree() {
        let mk = || {
            let mut store = EventStore::new(StoreConfig {
                batch_size: 16,
                compaction: false,
                ..StoreConfig::default()
            });
            let raws: Vec<RawEvent> = (0..300)
                .map(|i| {
                    raw(
                        (i % 3) as u32,
                        if i % 2 == 0 {
                            Operation::Read
                        } else {
                            Operation::Write
                        },
                        &format!("exe{}", i % 7),
                        &format!("/f{}", i % 11),
                        i * 30,
                        i as u64,
                    )
                })
                .collect();
            store.ingest_all(&raws);
            store
        };
        let fragmented = mk();
        let mut compacted = mk();
        compacted.compact();
        let filters = [
            EventFilter::all(),
            EventFilter::all().with_ops(OpSet::single(Operation::Read)),
            EventFilter::all().with_agents(vec![AgentId(2)]),
            EventFilter::all().with_window(TimeWindow::new(
                Timestamp::from_secs(500),
                Timestamp::from_secs(5_000),
            )),
        ];
        for f in filters {
            assert_eq!(
                fragmented.scan_collect(&f),
                compacted.scan_collect(&f),
                "filter {f:?}"
            );
            assert_eq!(fragmented.count(&f), compacted.count(&f));
            // Selection vectors carry flat rows: identical per partition.
            for key in fragmented.partitions_for(&f) {
                assert_eq!(
                    fragmented.select_partition(key, &f),
                    compacted.select_partition(key, &f),
                    "flat selection vectors invariant under compaction"
                );
            }
        }
    }

    #[test]
    fn novelty_overlay_absorbs_small_commits() {
        let overlay_cfg = StoreConfig {
            batch_size: 8,
            compaction: false,
            dedup: false,
            novelty_flush_rows: 64,
            ..StoreConfig::default()
        };
        let classic_cfg = StoreConfig {
            novelty_flush_rows: 0,
            ..overlay_cfg.clone()
        };
        let raws: Vec<RawEvent> = (0..200)
            .map(|i| {
                raw(
                    (i % 2) as u32,
                    Operation::Read,
                    &format!("exe{}", i % 5),
                    &format!("/f{}", i % 9),
                    i,
                    i as u64,
                )
            })
            .collect();
        let mut overlay = EventStore::new(overlay_cfg);
        let mut classic = EventStore::new(classic_cfg);
        overlay.ingest_all(&raws);
        classic.ingest_all(&raws);
        let (o, c) = (overlay.stats(), classic.stats());
        assert_eq!(o.events, c.events);
        assert!(
            o.segments < c.segments,
            "overlay must absorb tiny commits: {} vs {} segments",
            o.segments,
            c.segments
        );
        assert!(o.novelty_events > 0, "residual rows stay in the overlay");
        assert!(o.novelty_flushes > 0, "threshold flushes were counted");
        assert_eq!(c.novelty_events, 0, "classic mode seals every commit");
        let filters = [
            EventFilter::all(),
            EventFilter::all().with_agents(vec![AgentId(1)]),
            EventFilter::all().with_window(TimeWindow::new(
                Timestamp::from_secs(40),
                Timestamp::from_secs(160),
            )),
        ];
        for f in filters {
            assert_eq!(overlay.scan_collect(&f), classic.scan_collect(&f));
            assert_eq!(overlay.count(&f), classic.count(&f));
            for key in classic.partitions_for(&f) {
                assert_eq!(
                    overlay.select_partition(key, &f),
                    classic.select_partition(key, &f),
                    "flat rows invariant across overlay/classic write paths"
                );
            }
        }
        // An explicit flush seals the residual overlay without moving rows.
        let before = overlay.scan_collect(&EventFilter::all());
        let flushed = overlay.flush_novelty();
        assert!(flushed > 0);
        assert_eq!(overlay.stats().novelty_events, 0);
        assert_eq!(overlay.scan_collect(&EventFilter::all()), before);
    }

    #[test]
    fn background_compaction_defers_merges_to_maintenance() {
        let cfg = StoreConfig {
            batch_size: 8,
            compaction_min_segments: 4,
            background_compaction: true,
            dedup: false,
            ..StoreConfig::default()
        };
        let mut store = EventStore::new(cfg);
        for i in 0..200 {
            store.ingest(&raw(
                1,
                Operation::Read,
                "cat",
                &format!("/f{}", i % 9),
                i,
                1,
            ));
        }
        store.commit();
        // Commits queued the merge instead of running it inline.
        let stats = store.stats();
        assert!(
            stats.max_partition_segments >= 4,
            "inline policy must not have run: {} segments",
            stats.max_partition_segments
        );
        let pending = store.take_maintenance();
        assert!(!pending.is_empty(), "trigger crossings were queued");
        assert!(store.take_maintenance().is_empty(), "queue drains once");
        let before = store.scan_collect(&EventFilter::all());
        for key in pending {
            store.compact_partition(key);
        }
        assert!(store.stats().max_partition_segments < 4);
        assert_eq!(store.scan_collect(&EventFilter::all()), before);
    }

    #[test]
    fn shared_store_maintenance_drains_inline_without_executor() {
        let cfg = StoreConfig {
            batch_size: 8,
            compaction_min_segments: 4,
            background_compaction: true,
            dedup: false,
            ..StoreConfig::default()
        };
        let shared = SharedStore::new(EventStore::new(cfg));
        shared.write(|s| {
            for i in 0..200 {
                s.ingest(&raw(
                    1,
                    Operation::Read,
                    "cat",
                    &format!("/f{}", i % 9),
                    i,
                    1,
                ));
            }
            s.commit();
        });
        // The write's deferred queue drained after the lock released.
        let stats = shared.stats();
        assert!(
            stats.max_partition_segments < 4,
            "maintenance must have compacted: {} segments",
            stats.max_partition_segments
        );
    }

    #[test]
    fn snapshot_reads_are_isolated_from_writes() {
        let shared = SharedStore::new(EventStore::default());
        shared.write(|s| {
            s.ingest_all(&[raw(1, Operation::Read, "cat", "/etc/passwd", 10, 100)]);
        });
        let pinned = shared.snapshot();
        let (id_before, epoch_before) = (pinned.store_id(), pinned.epoch());
        shared.write(|s| {
            s.ingest_all(&[raw(1, Operation::Write, "vim", "/home/x", 20, 200)]);
        });
        // The pinned snapshot still sees exactly one event; the handle sees
        // both. Identity is shared so plan-cache keys line up; the epoch
        // names the pinned version.
        assert_eq!(pinned.event_count(), 1);
        assert_eq!(shared.read(|s| s.event_count()), 2);
        assert_eq!(pinned.store_id(), id_before);
        assert_eq!(pinned.epoch(), epoch_before);
        assert_eq!(shared.snapshot().store_id(), id_before);
        assert!(shared.snapshot().epoch() > epoch_before);
    }

    #[test]
    fn publishes_share_one_dictionary_copy_per_dict_epoch() {
        let shared = SharedStore::new(EventStore::default());
        shared.write(|s| {
            s.ingest_all(&[raw(1, Operation::Read, "cat", "/etc/passwd", 10, 100)]);
        });
        let s1 = shared.snapshot();
        // A batch of pure dedup hits leaves the dict epoch alone: the next
        // publish re-shares the same dictionary Arc instead of copying.
        shared.write(|s| {
            s.ingest_all(&[raw(1, Operation::Read, "cat", "/etc/passwd", 3_000, 7)]);
        });
        let s2 = shared.snapshot();
        assert!(
            Arc::ptr_eq(&s1.entities, &s2.entities),
            "dedup-only batch must republish the cached dictionary"
        );
        // A genuinely novel entity moves the epoch: the snapshot gets a
        // fresh copy, the writer's Arc stays unique (no make_mut copy), and
        // its dedup map still merges repeats.
        shared.write(|s| {
            s.ingest_all(&[raw(1, Operation::Write, "vim", "/home/x", 20, 1)]);
        });
        let s3 = shared.snapshot();
        assert!(!Arc::ptr_eq(&s2.entities, &s3.entities));
        let entities_now = s3.entities.len();
        shared.write(|s| {
            s.ingest_all(&[raw(1, Operation::Write, "vim", "/home/x", 25, 1)]);
        });
        assert_eq!(
            shared.read(|s| s.entities().len()),
            entities_now,
            "writer-side dedup must still recognize repeats after publishing"
        );
        // Snapshots resolve their own entities even though their dedup map
        // is intentionally empty.
        let sym = s3
            .interner()
            .get("vim")
            .expect("snapshot interner carries the new name");
        let ids = s3.entities().find(
            aiql_model::EntityKind::Process,
            None,
            &[crate::entities::EntityConstraint::on_default(
                crate::entities::AttrCmp::Eq(aiql_model::Value::Str(sym)),
            )],
        );
        assert!(
            !ids.is_empty(),
            "snapshot dictionary must resolve the new entity"
        );
    }

    #[test]
    fn repeat_ingest_shares_dictionary_with_snapshots() {
        let mut store = EventStore::default();
        store.ingest_all(&[raw(1, Operation::Read, "cat", "/etc/passwd", 10, 100)]);
        let snapshot = store.clone();
        let dict_epoch = store.dict_epoch();
        // Same entities again: the read-only fast path must neither clone
        // the dictionary nor move the dictionary epoch.
        store.ingest_all(&[raw(1, Operation::Read, "cat", "/etc/passwd", 20, 100)]);
        assert_eq!(store.dict_epoch(), dict_epoch);
        assert!(
            Arc::ptr_eq(&store.entities, &snapshot.entities),
            "dedup-hit ingest must not copy the shared dictionary"
        );
        assert!(store.entities().dedup_hits() >= 2);
        // A novel entity takes the copy-on-write path and bumps the epoch.
        store.ingest_all(&[raw(1, Operation::Read, "wget", "/tmp/drop", 30, 1)]);
        assert!(store.dict_epoch() > dict_epoch);
        assert!(!Arc::ptr_eq(&store.entities, &snapshot.entities));
        assert_eq!(snapshot.entities().len(), 2, "snapshot kept its version");
    }

    #[test]
    fn maintenance_executor_receives_deferred_compaction() {
        struct Recorder(std::sync::Mutex<Vec<Box<dyn FnOnce() + Send>>>);
        impl MaintenanceExecutor for Recorder {
            fn spawn(&self, job: Box<dyn FnOnce() + Send>) {
                self.0.lock().unwrap().push(job);
            }
        }
        let cfg = StoreConfig {
            batch_size: 8,
            compaction_min_segments: 4,
            background_compaction: true,
            dedup: false,
            ..StoreConfig::default()
        };
        let shared = SharedStore::new(EventStore::new(cfg));
        let exec = Arc::new(Recorder(std::sync::Mutex::new(Vec::new())));
        shared.set_maintenance(exec.clone(), CancelToken::new());
        shared.write(|s| {
            for i in 0..200 {
                s.ingest(&raw(
                    1,
                    Operation::Read,
                    "cat",
                    &format!("/f{}", i % 9),
                    i,
                    1,
                ));
            }
            s.commit();
        });
        let jobs: Vec<_> = std::mem::take(&mut *exec.0.lock().unwrap());
        assert!(!jobs.is_empty(), "deferred merges went to the executor");
        assert!(shared.stats().max_partition_segments >= 4);
        for job in jobs {
            job();
        }
        assert!(shared.stats().max_partition_segments < 4);
    }

    #[test]
    fn cancelled_maintenance_is_a_no_op() {
        let cfg = StoreConfig {
            batch_size: 8,
            compaction_min_segments: 4,
            background_compaction: true,
            dedup: false,
            ..StoreConfig::default()
        };
        let shared = SharedStore::new(EventStore::new(cfg));
        struct Inline;
        impl MaintenanceExecutor for Inline {
            fn spawn(&self, job: Box<dyn FnOnce() + Send>) {
                job();
            }
        }
        let cancel = CancelToken::new();
        cancel.cancel();
        shared.set_maintenance(Arc::new(Inline), cancel);
        shared.write(|s| {
            for i in 0..200 {
                s.ingest(&raw(
                    1,
                    Operation::Read,
                    "cat",
                    &format!("/f{}", i % 9),
                    i,
                    1,
                ));
            }
            s.commit();
        });
        // The drain token aborted the pass before anything merged.
        assert!(shared.stats().max_partition_segments >= 4);
    }

    #[test]
    fn cross_host_object_agent_interning() {
        let mut store = EventStore::default();
        let r = RawEvent::instant(
            AgentId(1),
            Operation::Connect,
            EntitySpec::process(1, "client.exe", "u"),
            EntitySpec::process(2, "server.exe", "u"),
            Timestamp::from_secs(1),
            0,
        )
        .with_object_agent(AgentId(2));
        store.ingest_all(&[r]);
        let e = store.scan_collect(&EventFilter::all())[0];
        // Event is recorded on agent 1; the object entity lives on agent 2.
        assert_eq!(e.agent, AgentId(1));
        assert_eq!(store.entities().get(e.subject).agent, AgentId(1));
        assert_eq!(store.entities().get(e.object).agent, AgentId(2));
    }
}
