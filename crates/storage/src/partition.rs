//! A hypertable partition: an ordered run of columnar [`Segment`]s.
//!
//! Batch-commit ingest (the paper's write-throughput optimization) seals
//! one new segment per commit, so a partition receiving many small commits
//! fragments into many small segments — every scan then pays per-segment
//! setup, posting-list unions across tiny lists, and sparse selection
//! vectors. `Partition::compacted` plans merging adjacent small segments
//! back into dense runs under a size-tiered policy, and
//! `Partition::install_compaction` installs the result.
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
/// shared (`Arc`), so cloning a partition — what the store's copy-on-write
/// does to a partition a published snapshot shares — costs one pointer
/// clone per segment; the **novelty overlay** is the single open tail
/// segment absorbing recent batch commits. Novelty rows occupy the end of
/// the flat row space, so sealing the overlay into the sealed run (an
/// `Arc` move) never renumbers a row.
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
    /// threshold. Empty between commits at flush threshold 0, where every
    /// commit seals.
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

    /// The novelty overlay (empty when fully sealed).
    pub(crate) fn novelty(&self) -> &Segment {
        &self.novelty
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

    /// Appends one batch commit into the novelty overlay, sealing the
    /// overlay into the sealed run once it reaches `flush_rows` (at 0, every
    /// commit seals as one new segment). Returns whether a flush happened.
    /// Bumps the epoch once per batch — the granularity plan caches
    /// invalidate at.
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
        let mut out = Vec::new();
        for (_, base, rows) in self.select_by_segment(agent, filter) {
            if out.is_empty() && base == 0 {
                out = rows;
            } else {
                out.extend(rows.into_iter().map(|r| r + base));
            }
        }
        out
    }

    /// [`Partition::select`] one segment at a time, in flat-row order: each
    /// segment with its flat-row base and its sorted local row ids. A
    /// reader of the selected rows' columns reads them off the segment
    /// directly (flat row = base + local row) instead of locating the
    /// owning segment again per row.
    pub fn select_by_segment<'a>(
        &'a self,
        agent: AgentId,
        filter: &'a EventFilter,
    ) -> impl Iterator<Item = (&'a Segment, u32, Vec<u32>)> + 'a {
        let novelty_base = self.sealed_rows() as u32;
        self.segments
            .iter()
            .map(|s| s.as_ref())
            .zip(self.bases.iter().copied())
            .chain((!self.novelty.is_empty()).then(|| (self.novelty.as_ref(), novelty_base)))
            .map(move |(seg, base)| (seg, base, seg.select(agent, filter)))
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

    /// Size-tiered compaction, planned: greedily merges adjacent runs of
    /// segments whose combined rows fit `max_rows` into one dense segment,
    /// left to right, and returns the sealed run the pass would leave, or
    /// `None` when the layout is already as dense as the tiering allows.
    /// Flat row indices are preserved (see the module docs). Read-only, so the
    /// store can run it on a partition a snapshot shares and copy the
    /// partition only when there is something to install. The token is
    /// polled before each run merge (the unit of real work); the pass is
    /// **plan-then-merge** — run boundaries are planned first, merges build
    /// into a side buffer — so a cancelled pass returns nothing partial.
    pub(crate) fn compacted(
        &self,
        max_rows: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<Vec<Arc<Segment>>>, CompactionCancelled> {
        if self.segments.len() < 2 {
            return Ok(None);
        }
        // Phase 1 — plan: greedy left-to-right run boundaries over the
        // current layout (same tiering rule as the original in-place
        // algorithm, so singleton oversized segments stand alone).
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
            return Ok(None);
        }
        // Phase 2 — merge each multi-segment run, polling the token before
        // each merge; singleton runs keep their segment's `Arc`.
        let mut out: Vec<Arc<Segment>> = Vec::with_capacity(runs.len());
        for run in runs {
            if run.len() < 2 {
                out.push(Arc::clone(&self.segments[run.start]));
                continue;
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(CompactionCancelled);
            }
            out.push(Arc::new(Segment::merge(&self.segments[run])));
        }
        Ok(Some(out))
    }

    /// Replaces the sealed run with a [`Partition::compacted`] one (same
    /// rows in the same flat order) and bumps the epoch once: the rewrite
    /// invalidates plan-cache entries over this partition only — the
    /// compaction guarantee the engine's partition-scoped invalidation
    /// relies on.
    pub(crate) fn install_compaction(&mut self, segments: Vec<Arc<Segment>>) {
        self.segments = segments;
        self.rebuild_bases();
        self.epoch += 1;
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
            p.append_novelty(AgentId(1), &events, 0);
        }
        p
    }

    /// One compaction pass the way the store runs it: planned on the
    /// partition as it stands, then installed.
    fn compact(
        p: &mut Partition,
        max_rows: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<bool, CompactionCancelled> {
        let Some(segments) = p.compacted(max_rows, cancel)? else {
            return Ok(false);
        };
        p.install_compaction(segments);
        Ok(true)
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
        assert_eq!(compact(&mut p, usize::MAX, None), Ok(true));
        assert_eq!(p.segment_count(), 1);
        assert_eq!(p.epoch(), epoch_before + 1, "layout rewrite bumps once");
        let after: Vec<Event> = (0..p.len()).map(|r| p.event_at(AgentId(1), r)).collect();
        assert_eq!(before, after, "flat rows invariant under compaction");
        assert_eq!(before_select, p.select(AgentId(1), &filter));
        assert_eq!(
            compact(&mut p, usize::MAX, None),
            Ok(false),
            "already dense: no-op"
        );
    }

    #[test]
    fn tiered_compaction_respects_max_rows() {
        let mut p = fragmented(6, 10); // 60 rows in 6 segments
        assert_eq!(compact(&mut p, 25, None), Ok(true));
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
        p.append_novelty(AgentId(1), &big, 0);
        let small: Vec<Event> = (30..34)
            .map(|i| mk_event(i, Operation::Write, 1, 2, i as i64))
            .collect();
        p.append_novelty(AgentId(1), &small, 0);
        p.append_novelty(
            AgentId(1),
            &small
                .iter()
                .map(|e| {
                    let mut e = *e;
                    e.id = EventId(e.id.raw() + 4);
                    e
                })
                .collect::<Vec<_>>(),
            0,
        );
        assert_eq!(compact(&mut p, 10, None), Ok(true));
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
            compact(&mut p, usize::MAX, Some(&cancel)),
            Err(CompactionCancelled)
        );
        // The guarantee: an aborted pass is a no-op — layout, rows, epoch.
        assert_eq!(p.segment_count(), segs_before);
        assert_eq!(p.epoch(), epoch_before);
        let after: Vec<Event> = (0..p.len()).map(|r| p.event_at(AgentId(1), r)).collect();
        assert_eq!(before, after);
        // The same pass retried with a live token completes normally.
        assert_eq!(
            compact(&mut p, usize::MAX, Some(&CancelToken::new())),
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
            compact(&mut a, 25, Some(&CancelToken::new())),
            compact(&mut b, 25, None)
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
        assert_eq!(compact(&mut overlay, usize::MAX, None), Ok(true));
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
