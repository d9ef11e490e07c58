//! A hypertable partition: an ordered run of columnar [`Segment`]s.
//!
//! Batch-commit ingest (the paper's write-throughput optimization) seals
//! one new segment per commit, so a partition receiving many small commits
//! fragments into many small segments — every scan then pays per-segment
//! setup, posting-list unions across tiny lists, and sparse selection
//! vectors. [`Partition::compact`] merges adjacent small segments back into
//! dense runs under a size-tiered policy.
//!
//! The partition exposes a **flat row address space**: row `r` is the
//! `r`-th event of the concatenation of its segments in commit order.
//! Compaction rewrites the physical segments but concatenates them in the
//! same order, so flat row indices — the `row` half of the engine's
//! `EventRef` — are *invariant* under compaction: candidate lists, join
//! keys, and selection vectors built before a compaction stay valid after
//! it.

use std::sync::Arc;

use aiql_model::{AgentId, CancelToken, Event, EventId, Operation, Timestamp};

use crate::filter::EventFilter;
use crate::segment::Segment;
use crate::stats::SegmentStats;

/// A [`CancelToken`] aborted a compaction pass before it committed.
///
/// The guarantee callers rely on: an aborted pass changed **nothing** —
/// partial merges are discarded, never spliced in, and the affected
/// partition's layout and epoch are exactly as they were. A shutdown or an
/// admission-controller drain can therefore abort a long compaction at any
/// point and retry it later from the same state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionCancelled;

impl std::fmt::Display for CompactionCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compaction cancelled before commit; layout unchanged")
    }
}

impl std::error::Error for CompactionCancelled {}

/// One partition's segment run plus its mutation epoch.
///
/// Segments come in two flavors: **sealed** segments are immutable and
/// shared (`Arc`), so cloning a partition — the snapshot-publish path —
/// costs one pointer clone per segment; the **novelty overlay** is the
/// single open tail segment absorbing recent batch commits. Novelty rows
/// occupy the end of the flat row space, so sealing the overlay into the
/// sealed run (an `Arc` move) never renumbers a row.
#[derive(Debug, Default, Clone)]
pub struct Partition {
    /// Sealed (immutable) segments in commit order.
    segments: Vec<Arc<Segment>>,
    /// Flat-row base of each sealed segment: `bases[i]` is the
    /// partition-global row index of segment `i`'s first row. Ascending;
    /// `bases[0] == 0`.
    bases: Vec<u32>,
    /// The novelty overlay: one open tail segment holding events committed
    /// since the last flush. Mutated through `Arc::make_mut`, so a clone
    /// held by a published snapshot keeps reading the pre-mutation overlay
    /// while the writer appends — the copy cost is bounded by the flush
    /// threshold. Empty when the overlay is disabled (flush threshold 0
    /// seals every commit immediately).
    novelty: Arc<Segment>,
    /// Total rows across sealed segments *and* the novelty overlay.
    rows: usize,
    /// Mutation epoch of this partition: bumped once per batch commit and
    /// on every layout rewrite (compaction). Plan caches scope their
    /// invalidation to the partitions a cached estimate actually read, so
    /// ingest into — or compaction of — one time bucket leaves cached plans
    /// over other buckets hot.
    epoch: u64,
}

impl Partition {
    /// Creates an empty partition.
    pub fn new() -> Self {
        Partition::default()
    }

    /// Mutation epoch of this partition (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restores a persisted epoch (snapshot loading replays events through
    /// the insertion paths, so the counter must be re-seeded afterwards to
    /// keep the vector monotone across save/load cycles).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Total events across all segments.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the partition holds no events.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of segments (the fragmentation measure: 1 = fully dense). A
    /// non-empty novelty overlay counts as one segment — scans pay its
    /// per-segment setup like any other.
    pub fn segment_count(&self) -> usize {
        self.segments.len() + usize::from(!self.novelty.is_empty())
    }

    /// Number of *sealed* segments — what the automatic compaction trigger
    /// watches (the overlay is flushed by its own threshold, not merged).
    pub fn sealed_segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The sealed segments in commit order (excludes the novelty overlay;
    /// see [`Partition::novelty_len`]).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Events currently in the novelty overlay (0 = fully sealed).
    pub fn novelty_len(&self) -> usize {
        self.novelty.len()
    }

    /// Rows in sealed segments (the flat-row base of the novelty overlay).
    #[inline]
    fn sealed_rows(&self) -> usize {
        self.rows - self.novelty.len()
    }

    /// Earliest event start time (None when empty).
    pub fn min_time(&self) -> Option<Timestamp> {
        self.segments
            .iter()
            .filter_map(|s| s.min_time())
            .chain(self.novelty.min_time())
            .min()
    }

    /// Latest event start time (None when empty).
    pub fn max_time(&self) -> Option<Timestamp> {
        self.segments
            .iter()
            .filter_map(|s| s.max_time())
            .chain(self.novelty.max_time())
            .max()
    }

    /// Appends one batch commit as a freshly sealed segment (empty batches
    /// seal nothing). Bumps the epoch once per batch — the granularity plan
    /// caches invalidate at.
    pub(crate) fn append_commit(&mut self, agent: AgentId, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        debug_assert!(
            self.novelty.is_empty(),
            "sealed commits and the novelty overlay do not interleave"
        );
        let mut seg = Segment::new();
        for e in events {
            seg.push(agent, e);
        }
        self.bases.push(self.sealed_rows() as u32);
        self.rows += seg.len();
        self.epoch += 1;
        self.segments.push(Arc::new(seg));
    }

    /// Appends one batch commit into the novelty overlay, sealing the
    /// overlay into the sealed run once it reaches `flush_rows`. Returns
    /// whether a flush happened. Bumps the epoch once per batch.
    pub(crate) fn append_novelty(
        &mut self,
        agent: AgentId,
        events: &[Event],
        flush_rows: usize,
    ) -> bool {
        if events.is_empty() {
            return false;
        }
        let novelty = Arc::make_mut(&mut self.novelty);
        for e in events {
            novelty.push(agent, e);
        }
        self.rows += events.len();
        self.epoch += 1;
        if self.novelty.len() >= flush_rows {
            self.flush_novelty()
        } else {
            false
        }
    }

    /// Seals the novelty overlay into the sealed run (an `Arc` move — no
    /// rows are copied or renumbered). Returns whether anything flushed.
    pub(crate) fn flush_novelty(&mut self) -> bool {
        if self.novelty.is_empty() {
            return false;
        }
        self.bases.push(self.sealed_rows() as u32);
        let sealed = std::mem::replace(&mut self.novelty, Arc::new(Segment::new()));
        self.segments.push(sealed);
        true
    }

    /// Appends one event to the novelty overlay. Snapshot replay uses this
    /// so a loaded partition starts as one dense run;
    /// [`Partition::apply_layout`] re-splits it into the persisted sealed
    /// layout (and residual overlay) afterwards.
    pub(crate) fn push_tail(&mut self, agent: AgentId, event: &Event) {
        Arc::make_mut(&mut self.novelty).push(agent, event);
        self.rows += 1;
        self.epoch += 1;
    }

    /// Locates the segment owning flat row `row`: ⟨segment, local row⟩.
    /// Novelty rows sit past every sealed base; single-sealed-segment
    /// partitions (the compacted steady state) resolve without the search.
    #[inline]
    fn locate(&self, row: u32) -> (&Segment, u32) {
        let sealed = self.sealed_rows() as u32;
        if row >= sealed {
            return (&self.novelty, row - sealed);
        }
        if self.segments.len() == 1 {
            return (&self.segments[0], row);
        }
        let i = match self.bases.binary_search(&row) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (&self.segments[i], row - self.bases[i])
    }

    /// Materializes the event at flat row `row`.
    #[inline]
    pub fn event_at(&self, agent: AgentId, row: usize) -> Event {
        let (seg, local) = self.locate(row as u32);
        seg.event_at(agent, local as usize)
    }

    /// Event id column accessor (flat row).
    #[inline]
    pub fn id_at(&self, row: u32) -> EventId {
        let (seg, local) = self.locate(row);
        seg.id_at(local)
    }

    /// Operation column accessor (flat row).
    #[inline]
    pub fn op_at(&self, row: u32) -> Operation {
        let (seg, local) = self.locate(row);
        seg.op_at(local)
    }

    /// Subject entity column accessor (flat row).
    #[inline]
    pub fn subject_at(&self, row: u32) -> aiql_model::EntityId {
        let (seg, local) = self.locate(row);
        seg.subject_at(local)
    }

    /// Object entity column accessor (flat row).
    #[inline]
    pub fn object_at(&self, row: u32) -> aiql_model::EntityId {
        let (seg, local) = self.locate(row);
        seg.object_at(local)
    }

    /// Both entity columns, resolving the owning segment once (the join
    /// emits both bindings for every appended tuple).
    #[inline]
    pub fn subject_object_at(&self, row: u32) -> (aiql_model::EntityId, aiql_model::EntityId) {
        let (seg, local) = self.locate(row);
        (seg.subject_at(local), seg.object_at(local))
    }

    /// Start-time column accessor (flat row).
    #[inline]
    pub fn start_at(&self, row: u32) -> Timestamp {
        let (seg, local) = self.locate(row);
        seg.start_at(local)
    }

    /// End-time column accessor (flat row).
    #[inline]
    pub fn end_at(&self, row: u32) -> Timestamp {
        let (seg, local) = self.locate(row);
        seg.end_at(local)
    }

    /// Both time columns of one flat row, resolving the owning segment
    /// once. The engine's join-index build reads start and end for every
    /// candidate; on fragmented partitions this halves the per-row
    /// segment-search cost of separate `start_at`/`end_at` calls.
    #[inline]
    pub fn start_end_at(&self, row: u32) -> (Timestamp, Timestamp) {
        let (seg, local) = self.locate(row);
        seg.start_end_at(local)
    }

    /// Min/max event start time across segments (None when empty): the
    /// partition-level zone map time-bucketed join indexes seed their grid
    /// candidates from.
    pub fn time_bounds(&self) -> Option<(Timestamp, Timestamp)> {
        Some((self.min_time()?, self.max_time()?))
    }

    /// Amount column accessor (flat row).
    #[inline]
    pub fn amount_at(&self, row: u32) -> u64 {
        let (seg, local) = self.locate(row);
        seg.amount_at(local)
    }

    /// Sealed segments ⊕ novelty overlay, in flat-row order (the union every
    /// whole-partition read path walks).
    fn all_segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments
            .iter()
            .map(|s| s.as_ref())
            .chain((!self.novelty.is_empty()).then(|| self.novelty.as_ref()))
    }

    /// Events with the given operation, summed across segments.
    pub fn op_count(&self, op: Operation) -> usize {
        self.all_segments().map(|s| s.op_count(op)).sum()
    }

    /// Whether any segment can contain matches for the filter's window.
    pub fn overlaps_window(&self, filter: &EventFilter) -> bool {
        self.all_segments().any(|s| s.overlaps_window(filter))
    }

    /// Selection-vector scan over every segment (sealed ⊕ novelty):
    /// per-segment sorted row ids are offset by the segment base and
    /// concatenated, which keeps the partition-global output sorted (bases
    /// ascend in commit order; novelty rows occupy the end).
    pub fn select(&self, agent: AgentId, filter: &EventFilter) -> Vec<u32> {
        if self.novelty.is_empty() {
            if let [seg] = self.segments.as_slice() {
                return seg.select(agent, filter);
            }
        } else if self.segments.is_empty() {
            return self.novelty.select(agent, filter);
        }
        let mut out = Vec::new();
        let novelty_base = self.sealed_rows() as u32;
        for (seg, base) in self
            .segments
            .iter()
            .map(|s| s.as_ref())
            .zip(self.bases.iter().copied())
            .chain((!self.novelty.is_empty()).then(|| (self.novelty.as_ref(), novelty_base)))
        {
            let rows = seg.select(agent, filter);
            out.extend(rows.into_iter().map(|r| r + base));
        }
        out
    }

    /// Whether some segment resolves the filter's entity id sets through
    /// posting lists (see [`Segment::uses_entity_postings`]).
    pub(crate) fn uses_entity_postings(&self, filter: &EventFilter) -> bool {
        self.all_segments().any(|s| s.uses_entity_postings(filter))
    }

    /// Index-assisted scan across segments in commit order.
    pub fn scan(&self, agent: AgentId, filter: &EventFilter, f: &mut dyn FnMut(&Event)) {
        for seg in self.all_segments() {
            seg.scan(agent, filter, f);
        }
    }

    /// Unconditional per-row scan across segments in commit order (the
    /// unoptimized access path).
    pub fn scan_full(&self, agent: AgentId, filter: &EventFilter, f: &mut dyn FnMut(&Event)) {
        for seg in self.all_segments() {
            seg.scan_full(agent, filter, f);
        }
    }

    /// Estimated match count for a filter, summed across segments.
    pub fn estimate(&self, filter: &EventFilter) -> usize {
        self.all_segments().map(|s| s.estimate(filter)).sum()
    }

    /// Partition-level statistics: per-segment stats summed. Distinct
    /// subject/object counts are summed too — an upper bound when entities
    /// repeat across segments (exact again once compacted to one segment).
    pub fn stats(&self) -> SegmentStats {
        let mut agg = SegmentStats {
            events: 0,
            per_op: [0; aiql_model::OPERATION_COUNT],
            distinct_subjects: 0,
            distinct_objects: 0,
            min_time: self.min_time().unwrap_or(Timestamp(0)),
            max_time: self.max_time().unwrap_or(Timestamp(0)),
        };
        for seg in self.all_segments() {
            let s = seg.stats();
            agg.events += s.events;
            for (a, b) in agg.per_op.iter_mut().zip(s.per_op) {
                *a += b;
            }
            agg.distinct_subjects += s.distinct_subjects;
            agg.distinct_objects += s.distinct_objects;
        }
        agg
    }

    /// Size-tiered compaction: greedily merges adjacent runs of segments
    /// whose combined rows fit `max_rows` into one dense segment, left to
    /// right. Returns whether the layout changed; a change bumps the epoch
    /// once (the rewrite invalidates plan-cache entries over this partition
    /// only — the compaction guarantee the engine's partition-scoped
    /// invalidation relies on). Flat row indices are preserved (see the
    /// module docs), so no reader-visible state changes besides density.
    pub(crate) fn compact(&mut self, max_rows: usize) -> bool {
        // Without a token the pass can't be cancelled.
        self.compact_cancellable(max_rows, None).unwrap_or(false)
    }

    /// [`Partition::compact`] with cooperative cancellation: the token is
    /// polled before each run merge (the unit of real work). The pass is
    /// **plan-then-merge** — run boundaries are planned read-only, merges
    /// build into a side buffer, and the live layout is replaced only after
    /// every merge completed — so a cancelled pass discards its partial
    /// output and leaves segments, flat-row bases, and the epoch exactly as
    /// they were.
    pub(crate) fn compact_cancellable(
        &mut self,
        max_rows: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<bool, CompactionCancelled> {
        if self.segments.len() < 2 {
            return Ok(false);
        }
        // Phase 1 — plan: greedy left-to-right run boundaries over the
        // current layout (read-only; same tiering rule as the original
        // in-place algorithm, so singleton oversized segments stand alone).
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0usize;
        let mut run_rows = 0usize;
        for (i, seg) in self.segments.iter().enumerate() {
            if i > start && run_rows + seg.len() > max_rows {
                runs.push(start..i);
                start = i;
                run_rows = 0;
            }
            run_rows += seg.len();
        }
        runs.push(start..self.segments.len());
        if runs.iter().all(|r| r.len() < 2) {
            return Ok(false);
        }
        // Phase 2 — merge into a side buffer, polling the token before
        // each run merge. Nothing in the live layout has moved yet, so a
        // cancel here simply drops the partial buffer.
        let mut merged: Vec<Option<Segment>> = Vec::with_capacity(runs.len());
        for run in &runs {
            if run.len() < 2 {
                merged.push(None);
                continue;
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(CompactionCancelled);
            }
            merged.push(Some(Segment::merge(&self.segments[run.clone()])));
        }
        // Phase 3 — commit: splice merged runs over the originals they
        // replace, keeping singleton runs' segments as they are.
        let mut old = std::mem::take(&mut self.segments).into_iter();
        let mut out: Vec<Arc<Segment>> = Vec::with_capacity(runs.len());
        for (run, m) in runs.iter().zip(merged) {
            match m {
                Some(seg) => {
                    old.by_ref().take(run.len()).for_each(drop);
                    out.push(Arc::new(seg));
                }
                None => out.extend(old.by_ref().take(1)),
            }
        }
        self.segments = out;
        self.rebuild_bases();
        self.epoch += 1;
        Ok(true)
    }

    /// Re-splits the partition's flat rows into sealed segments of the
    /// given lengths plus a trailing novelty overlay of `novelty_rows`
    /// (snapshot loading restores the persisted physical layout with this —
    /// replay first lands everything in the overlay). The lengths plus
    /// `novelty_rows` must sum to the current row count; a mismatched
    /// layout is ignored (the dense replay layout stands).
    pub(crate) fn apply_layout(&mut self, agent: AgentId, lens: &[u32], novelty_rows: u32) {
        let total: u64 = lens.iter().map(|&l| u64::from(l)).sum::<u64>() + u64::from(novelty_rows);
        if total != self.rows as u64 || lens.contains(&0) {
            return;
        }
        if self.segments.is_empty() && lens.is_empty() {
            // Replay already landed everything in the overlay.
            return;
        }
        if self.segments.is_empty() && novelty_rows == 0 && lens.len() == 1 {
            // One dense sealed segment: seal the replay overlay wholesale.
            self.flush_novelty();
            return;
        }
        let mut segments = Vec::with_capacity(lens.len());
        let mut row = 0usize;
        for &len in lens {
            let mut seg = Segment::new();
            for _ in 0..len {
                seg.push(agent, &self.event_at(agent, row));
                row += 1;
            }
            segments.push(Arc::new(seg));
        }
        let mut novelty = Segment::new();
        for _ in 0..novelty_rows {
            novelty.push(agent, &self.event_at(agent, row));
            row += 1;
        }
        self.segments = segments;
        self.novelty = Arc::new(novelty);
        self.rebuild_bases();
    }

    fn rebuild_bases(&mut self) {
        self.bases.clear();
        let mut base = 0u32;
        for seg in &self.segments {
            self.bases.push(base);
            base += seg.len() as u32;
        }
        self.rows = base as usize + self.novelty.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{EventFilter, OpSet};
    use aiql_model::{EntityId, TimeWindow};

    fn mk_event(id: u64, op: Operation, subj: u32, obj: u32, t: i64) -> Event {
        Event {
            id: EventId(id),
            agent: AgentId(1),
            op,
            subject: EntityId(subj),
            object: EntityId(obj),
            start_time: Timestamp(t),
            end_time: Timestamp(t + 10),
            amount: id * 3,
        }
    }

    fn fragmented(commits: usize, per_commit: usize) -> Partition {
        let mut p = Partition::new();
        let mut id = 0u64;
        for _ in 0..commits {
            let events: Vec<Event> = (0..per_commit)
                .map(|_| {
                    let e = mk_event(
                        id,
                        match id % 3 {
                            0 => Operation::Read,
                            1 => Operation::Write,
                            _ => Operation::Connect,
                        },
                        (id % 5) as u32,
                        10 + (id % 4) as u32,
                        id as i64 * 7,
                    );
                    id += 1;
                    e
                })
                .collect();
            p.append_commit(AgentId(1), &events);
        }
        p
    }

    #[test]
    fn commits_seal_segments_and_flat_rows_concatenate() {
        let p = fragmented(5, 4);
        assert_eq!(p.segment_count(), 5);
        assert_eq!(p.len(), 20);
        for row in 0..20u32 {
            assert_eq!(p.id_at(row), EventId(u64::from(row)), "row {row}");
        }
    }

    #[test]
    fn compaction_preserves_flat_rows_and_scans() {
        let mut p = fragmented(7, 3);
        let filter = EventFilter::all().with_ops(OpSet::from_ops(&[Operation::Read]));
        let before_select = p.select(AgentId(1), &filter);
        let before: Vec<Event> = (0..p.len()).map(|r| p.event_at(AgentId(1), r)).collect();
        let epoch_before = p.epoch();
        assert!(p.compact(usize::MAX));
        assert_eq!(p.segment_count(), 1);
        assert_eq!(p.epoch(), epoch_before + 1, "layout rewrite bumps once");
        let after: Vec<Event> = (0..p.len()).map(|r| p.event_at(AgentId(1), r)).collect();
        assert_eq!(before, after, "flat rows invariant under compaction");
        assert_eq!(before_select, p.select(AgentId(1), &filter));
        assert!(!p.compact(usize::MAX), "already dense: no-op");
    }

    #[test]
    fn tiered_compaction_respects_max_rows() {
        let mut p = fragmented(6, 10); // 60 rows in 6 segments
        assert!(p.compact(25));
        // Greedy runs of ≤25 rows: 2+2+2 segments → 3 merged runs of 20.
        assert_eq!(p.segment_count(), 3);
        assert!(p.segments().iter().all(|s| s.len() <= 25));
        assert_eq!(p.len(), 60);
    }

    #[test]
    fn oversized_segment_survives_compaction_alone() {
        let mut p = Partition::new();
        let big: Vec<Event> = (0..30)
            .map(|i| mk_event(i, Operation::Read, 1, 2, i as i64))
            .collect();
        p.append_commit(AgentId(1), &big);
        let small: Vec<Event> = (30..34)
            .map(|i| mk_event(i, Operation::Write, 1, 2, i as i64))
            .collect();
        p.append_commit(AgentId(1), &small);
        p.append_commit(
            AgentId(1),
            &small
                .iter()
                .map(|e| {
                    let mut e = *e;
                    e.id = EventId(e.id.raw() + 4);
                    e
                })
                .collect::<Vec<_>>(),
        );
        assert!(p.compact(10));
        // The 30-row segment exceeds the tier but must stand; the two small
        // commits merge.
        assert_eq!(p.segment_count(), 2);
        assert_eq!(p.segments()[0].len(), 30);
        assert_eq!(p.segments()[1].len(), 8);
    }

    #[test]
    fn cancelled_compaction_changes_nothing() {
        let mut p = fragmented(7, 3);
        let before: Vec<Event> = (0..p.len()).map(|r| p.event_at(AgentId(1), r)).collect();
        let segs_before = p.segment_count();
        let epoch_before = p.epoch();
        let cancel = CancelToken::new();
        cancel.cancel();
        assert_eq!(
            p.compact_cancellable(usize::MAX, Some(&cancel)),
            Err(CompactionCancelled)
        );
        // The guarantee: an aborted pass is a no-op — layout, rows, epoch.
        assert_eq!(p.segment_count(), segs_before);
        assert_eq!(p.epoch(), epoch_before);
        let after: Vec<Event> = (0..p.len()).map(|r| p.event_at(AgentId(1), r)).collect();
        assert_eq!(before, after);
        // The same pass retried with a live token completes normally.
        assert_eq!(
            p.compact_cancellable(usize::MAX, Some(&CancelToken::new())),
            Ok(true)
        );
        assert_eq!(p.segment_count(), 1);
        assert_eq!(p.epoch(), epoch_before + 1);
        let merged: Vec<Event> = (0..p.len()).map(|r| p.event_at(AgentId(1), r)).collect();
        assert_eq!(before, merged, "flat rows invariant after retry");
    }

    #[test]
    fn uncancelled_token_matches_plain_compact() {
        let mut a = fragmented(6, 10);
        let mut b = fragmented(6, 10);
        assert_eq!(
            a.compact_cancellable(25, Some(&CancelToken::new())),
            Ok(b.compact(25))
        );
        assert_eq!(a.segment_count(), b.segment_count());
        assert_eq!(a.epoch(), b.epoch());
    }

    #[test]
    fn select_matches_scan_full_across_fragmentation() {
        let p = fragmented(9, 5);
        let filters = [
            EventFilter::all(),
            EventFilter::all().with_ops(OpSet::from_ops(&[Operation::Write])),
            EventFilter::all().with_window(TimeWindow::new(Timestamp(30), Timestamp(200))),
        ];
        for filter in filters {
            let rows = p.select(AgentId(1), &filter);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "sorted flat rows");
            let got: Vec<EventId> = rows.iter().map(|&r| p.id_at(r)).collect();
            let mut want = Vec::new();
            p.scan_full(AgentId(1), &filter, &mut |e| want.push(e.id));
            assert_eq!(got, want, "filter {filter:?}");
        }
    }

    #[test]
    fn apply_layout_resplits_tail() {
        let mut replay = Partition::new();
        let frag = fragmented(4, 3);
        for r in 0..frag.len() {
            replay.push_tail(AgentId(1), &frag.event_at(AgentId(1), r));
        }
        assert_eq!(replay.segment_count(), 1);
        replay.apply_layout(AgentId(1), &[3, 3, 3, 3], 0);
        assert_eq!(replay.segment_count(), 4);
        assert_eq!(replay.novelty_len(), 0);
        for r in 0..frag.len() as u32 {
            assert_eq!(replay.id_at(r), frag.id_at(r));
        }
        // Mismatched layouts are ignored.
        replay.apply_layout(AgentId(1), &[5, 5], 0);
        assert_eq!(replay.segment_count(), 4);
    }

    #[test]
    fn apply_layout_restores_residual_overlay() {
        let frag = fragmented(4, 3);
        let mut replay = Partition::new();
        for r in 0..frag.len() {
            replay.push_tail(AgentId(1), &frag.event_at(AgentId(1), r));
        }
        // 8 sealed rows in two segments + 4 rows left in the overlay.
        replay.apply_layout(AgentId(1), &[5, 3], 4);
        assert_eq!(replay.sealed_segment_count(), 2);
        assert_eq!(replay.novelty_len(), 4);
        assert_eq!(replay.len(), 12);
        for r in 0..frag.len() as u32 {
            assert_eq!(replay.id_at(r), frag.id_at(r));
        }
    }

    #[test]
    fn novelty_overlay_reads_match_sealed_commits() {
        let sealed = fragmented(7, 3);
        let mut overlay = Partition::new();
        let mut id = 0u64;
        let mut flushes = 0;
        for _ in 0..7 {
            let events: Vec<Event> = (0..3)
                .map(|_| {
                    let e = sealed.event_at(AgentId(1), id as usize);
                    id += 1;
                    e
                })
                .collect();
            // Threshold of 6: flushes happen mid-stream (sealing several
            // segments), leaving a residual overlay at the end.
            if overlay.append_novelty(AgentId(1), &events, 6) {
                flushes += 1;
            }
        }
        assert!(flushes >= 2, "threshold must have sealed several times");
        assert!(overlay.novelty_len() > 0, "a residual overlay remains");
        assert_eq!(overlay.len(), sealed.len());
        // Flat rows, column accessors, and every scan path agree with the
        // seal-per-commit layout.
        for r in 0..sealed.len() as u32 {
            assert_eq!(overlay.id_at(r), sealed.id_at(r), "row {r}");
            assert_eq!(overlay.start_end_at(r), sealed.start_end_at(r));
            assert_eq!(overlay.subject_object_at(r), sealed.subject_object_at(r));
        }
        let filters = [
            EventFilter::all(),
            EventFilter::all().with_ops(OpSet::from_ops(&[Operation::Write])),
            EventFilter::all().with_window(TimeWindow::new(Timestamp(30), Timestamp(100))),
        ];
        for filter in filters {
            assert_eq!(
                overlay.select(AgentId(1), &filter),
                sealed.select(AgentId(1), &filter),
                "filter {filter:?}"
            );
            let mut a = Vec::new();
            overlay.scan(AgentId(1), &filter, &mut |e| a.push(e.id));
            let mut b = Vec::new();
            sealed.scan(AgentId(1), &filter, &mut |e| b.push(e.id));
            assert_eq!(a, b);
            assert_eq!(overlay.estimate(&filter) > 0, sealed.estimate(&filter) > 0);
        }
        assert_eq!(overlay.stats().events, sealed.stats().events);
        assert_eq!(overlay.min_time(), sealed.min_time());
        assert_eq!(overlay.max_time(), sealed.max_time());
        // Compaction merges only sealed segments; the overlay is untouched
        // and flat rows stay invariant.
        let novelty_before = overlay.novelty_len();
        let before: Vec<Event> = (0..overlay.len())
            .map(|r| overlay.event_at(AgentId(1), r))
            .collect();
        assert!(overlay.compact(usize::MAX));
        assert_eq!(overlay.sealed_segment_count(), 1);
        assert_eq!(overlay.novelty_len(), novelty_before);
        let after: Vec<Event> = (0..overlay.len())
            .map(|r| overlay.event_at(AgentId(1), r))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn explicit_flush_is_an_arc_move() {
        let mut p = Partition::new();
        let events: Vec<Event> = (0..6)
            .map(|i| mk_event(i, Operation::Read, 1, 2, i as i64))
            .collect();
        assert!(!p.append_novelty(AgentId(1), &events, 100));
        assert_eq!(p.novelty_len(), 6);
        assert_eq!(p.sealed_segment_count(), 0);
        assert!(p.flush_novelty());
        assert_eq!(p.novelty_len(), 0);
        assert_eq!(p.sealed_segment_count(), 1);
        assert!(!p.flush_novelty(), "empty overlay: no-op");
        for r in 0..6u32 {
            assert_eq!(p.id_at(r), EventId(u64::from(r)));
        }
    }
}
