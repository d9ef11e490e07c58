//! Partition segments — the hypertable leaves.
//!
//! A segment holds the events of one ⟨agent, time-bucket⟩ partition in
//! columnar form, plus the in-memory indexes rebuilt at each batch commit:
//! per-operation posting lists and subject/object hash indexes. Column
//! min/max statistics let the planner skip segments wholesale.

use std::collections::HashMap;

use aiql_model::{AgentId, EntityId, Event, EventId, Operation, Timestamp, OPERATION_COUNT};

use crate::filter::EventFilter;
use crate::stats::SegmentStats;

/// Key of one hypertable partition: host × time bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionKey {
    /// Host dimension (spatial).
    pub agent: AgentId,
    /// Time-bucket index: `start_time.micros() / bucket_micros`
    /// (euclidean division, so negative timestamps bucket correctly).
    pub bucket: i64,
}

impl PartitionKey {
    /// Computes the partition key for an event timestamp.
    pub fn for_event(agent: AgentId, t: Timestamp, bucket_micros: i64) -> Self {
        PartitionKey {
            agent,
            bucket: t.micros().div_euclid(bucket_micros),
        }
    }
}

/// Columnar storage for one partition.
#[derive(Debug, Clone)]
pub struct Segment {
    ids: Vec<EventId>,
    ops: Vec<u8>,
    subjects: Vec<EntityId>,
    objects: Vec<EntityId>,
    start_times: Vec<i64>,
    end_times: Vec<i64>,
    amounts: Vec<u64>,
    /// Row indexes per operation, in insertion order.
    op_postings: Vec<Vec<u32>>,
    /// Rows per subject entity.
    subj_index: HashMap<EntityId, Vec<u32>>,
    /// Rows per object entity.
    obj_index: HashMap<EntityId, Vec<u32>>,
    min_time: i64,
    max_time: i64,
}

impl Default for Segment {
    fn default() -> Self {
        Self::new()
    }
}

impl Segment {
    /// Creates an empty segment.
    pub fn new() -> Self {
        Segment {
            ids: Vec::new(),
            ops: Vec::new(),
            subjects: Vec::new(),
            objects: Vec::new(),
            start_times: Vec::new(),
            end_times: Vec::new(),
            amounts: Vec::new(),
            op_postings: vec![Vec::new(); OPERATION_COUNT],
            subj_index: HashMap::new(),
            obj_index: HashMap::new(),
            min_time: i64::MAX,
            max_time: i64::MIN,
        }
    }

    /// Number of events in the segment.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the segment holds no events.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Earliest event start time (None when empty).
    pub fn min_time(&self) -> Option<Timestamp> {
        (!self.is_empty()).then_some(Timestamp(self.min_time))
    }

    /// Latest event start time (None when empty).
    pub fn max_time(&self) -> Option<Timestamp> {
        (!self.is_empty()).then_some(Timestamp(self.max_time))
    }

    /// Appends one committed event (indexes are maintained inline; the store
    /// calls this from batch commit so amortized cost stays low).
    pub fn push(&mut self, agent: AgentId, e: &Event) {
        debug_assert_eq!(e.agent, agent);
        let row = self.ids.len() as u32;
        self.ids.push(e.id);
        self.ops.push(e.op.index() as u8);
        self.subjects.push(e.subject);
        self.objects.push(e.object);
        self.start_times.push(e.start_time.micros());
        self.end_times.push(e.end_time.micros());
        self.amounts.push(e.amount);
        self.op_postings[e.op.index()].push(row);
        self.subj_index.entry(e.subject).or_default().push(row);
        self.obj_index.entry(e.object).or_default().push(row);
        self.min_time = self.min_time.min(e.start_time.micros());
        self.max_time = self.max_time.max(e.start_time.micros());
    }

    /// Merges adjacent segments of one partition into a single dense
    /// segment. Columns are rewritten in commit order (the concatenation of
    /// the inputs), so an event's partition-global row index — its position
    /// in the concatenation — is unchanged: `EventRef` candidate lists and
    /// join keys built before the merge stay valid. Posting lists and the
    /// subject/object hash indexes are rebuilt by offsetting each input's
    /// (already sorted) row lists, which keeps every merged list sorted
    /// without a comparison pass.
    pub(crate) fn merge<S: std::borrow::Borrow<Segment>>(parts: &[S]) -> Segment {
        let parts: Vec<&Segment> = parts.iter().map(std::borrow::Borrow::borrow).collect();
        let parts = parts.as_slice();
        let total: usize = parts.iter().map(|s| s.len()).sum();
        let mut out = Segment::new();
        out.ids.reserve_exact(total);
        out.ops.reserve_exact(total);
        out.subjects.reserve_exact(total);
        out.objects.reserve_exact(total);
        out.start_times.reserve_exact(total);
        out.end_times.reserve_exact(total);
        out.amounts.reserve_exact(total);
        let mut base = 0u32;
        for p in parts {
            out.ids.extend_from_slice(&p.ids);
            out.ops.extend_from_slice(&p.ops);
            out.subjects.extend_from_slice(&p.subjects);
            out.objects.extend_from_slice(&p.objects);
            out.start_times.extend_from_slice(&p.start_times);
            out.end_times.extend_from_slice(&p.end_times);
            out.amounts.extend_from_slice(&p.amounts);
            for (op, rows) in p.op_postings.iter().enumerate() {
                out.op_postings[op].extend(rows.iter().map(|&r| r + base));
            }
            for (index, src) in [
                (&mut out.subj_index, &p.subj_index),
                (&mut out.obj_index, &p.obj_index),
            ] {
                for (&id, rows) in src {
                    index
                        .entry(id)
                        .or_default()
                        .extend(rows.iter().map(|&r| r + base));
                }
            }
            out.min_time = out.min_time.min(p.min_time);
            out.max_time = out.max_time.max(p.max_time);
            base += p.len() as u32;
        }
        out
    }

    /// Materializes the event at `row`.
    #[inline]
    pub fn event_at(&self, agent: AgentId, row: usize) -> Event {
        Event {
            id: self.ids[row],
            agent,
            op: Operation::from_index(self.ops[row] as usize).expect("valid op in column"),
            subject: self.subjects[row],
            object: self.objects[row],
            start_time: Timestamp(self.start_times[row]),
            end_time: Timestamp(self.end_times[row]),
            amount: self.amounts[row],
        }
    }

    /// Event id column accessor.
    #[inline]
    pub fn id_at(&self, row: u32) -> EventId {
        self.ids[row as usize]
    }

    /// Operation column accessor.
    #[inline]
    pub fn op_at(&self, row: u32) -> Operation {
        Operation::from_index(self.ops[row as usize] as usize).expect("valid op in column")
    }

    /// Subject entity column accessor.
    #[inline]
    pub fn subject_at(&self, row: u32) -> EntityId {
        self.subjects[row as usize]
    }

    /// Object entity column accessor.
    #[inline]
    pub fn object_at(&self, row: u32) -> EntityId {
        self.objects[row as usize]
    }

    /// Start-time column accessor.
    #[inline]
    pub fn start_at(&self, row: u32) -> Timestamp {
        Timestamp(self.start_times[row as usize])
    }

    /// End-time column accessor.
    #[inline]
    pub fn end_at(&self, row: u32) -> Timestamp {
        Timestamp(self.end_times[row as usize])
    }

    /// Both time columns of one row in a single call (one bounds check per
    /// column, no repeated row resolution at the partition layer).
    #[inline]
    pub fn start_end_at(&self, row: u32) -> (Timestamp, Timestamp) {
        (
            Timestamp(self.start_times[row as usize]),
            Timestamp(self.end_times[row as usize]),
        )
    }

    /// Amount column accessor.
    #[inline]
    pub fn amount_at(&self, row: u32) -> u64 {
        self.amounts[row as usize]
    }

    /// Number of events with the given operation (for selectivity
    /// estimation).
    pub fn op_count(&self, op: Operation) -> usize {
        self.op_postings[op.index()].len()
    }

    /// Rows matching a subject id.
    pub fn subject_rows(&self, id: EntityId) -> Option<&[u32]> {
        self.subj_index.get(&id).map(Vec::as_slice)
    }

    /// Rows matching an object id.
    pub fn object_rows(&self, id: EntityId) -> Option<&[u32]> {
        self.obj_index.get(&id).map(Vec::as_slice)
    }

    /// Segment-level statistics snapshot.
    pub fn stats(&self) -> SegmentStats {
        let mut per_op = [0usize; OPERATION_COUNT];
        for (i, p) in self.op_postings.iter().enumerate() {
            per_op[i] = p.len();
        }
        SegmentStats {
            events: self.len(),
            per_op,
            distinct_subjects: self.subj_index.len(),
            distinct_objects: self.obj_index.len(),
            min_time: self.min_time().unwrap_or(Timestamp(0)),
            max_time: self.max_time().unwrap_or(Timestamp(0)),
        }
    }

    /// Whether the segment can possibly contain matches for the filter's
    /// time window (zone-map pruning).
    pub fn overlaps_window(&self, filter: &EventFilter) -> bool {
        if self.is_empty() {
            return false;
        }
        self.min_time < filter.window.end.micros() && self.max_time >= filter.window.start.micros()
    }

    /// Index-assisted scan of this segment: picks the cheapest available
    /// access path, verifies residual predicates, and invokes `f` for every
    /// matching event. `agent` is the partition's host (segments do not
    /// duplicate it per row).
    ///
    /// This is the *materializing* access path: the relational and graph
    /// baselines and the engine's brute-force oracle read through it, which
    /// makes it the reference the selection-vector path
    /// ([`Segment::select`]) is tested against.
    pub fn scan(&self, agent: AgentId, filter: &EventFilter, f: &mut dyn FnMut(&Event)) {
        if !self.overlaps_window(filter) {
            return;
        }
        // Access path selection: smallest candidate row list wins.
        let subj_rows = filter.subjects.as_ref().and_then(|ids| {
            if ids.len() <= 64 {
                let mut rows: Vec<u32> = Vec::new();
                for id in ids.iter() {
                    if let Some(r) = self.subject_rows(id) {
                        rows.extend_from_slice(r);
                    }
                }
                Some(rows)
            } else {
                None
            }
        });
        let obj_rows = filter.objects.as_ref().and_then(|ids| {
            if ids.len() <= 64 {
                let mut rows: Vec<u32> = Vec::new();
                for id in ids.iter() {
                    if let Some(r) = self.object_rows(id) {
                        rows.extend_from_slice(r);
                    }
                }
                Some(rows)
            } else {
                None
            }
        });
        let op_rows = if filter.ops.is_all() {
            None
        } else {
            let total: usize = filter.ops.iter().map(|op| self.op_count(op)).sum();
            // Only worth using when it actually prunes.
            if total * 2 < self.len() {
                let mut rows: Vec<u32> = Vec::with_capacity(total);
                for op in filter.ops.iter() {
                    rows.extend_from_slice(&self.op_postings[op.index()]);
                }
                Some(rows)
            } else {
                None
            }
        };
        let candidates: Option<Vec<u32>> = [subj_rows, obj_rows, op_rows]
            .into_iter()
            .flatten()
            .min_by_key(Vec::len);
        match candidates {
            Some(mut rows) => {
                // Candidate lists concatenated from several posting lists
                // arrive unsorted; visiting rows out of order defeats cache
                // locality and breaks the sorted-output contract.
                rows.sort_unstable();
                rows.dedup();
                for row in rows {
                    let e = self.event_at(agent, row as usize);
                    if filter.matches(&e) {
                        f(&e);
                    }
                }
            }
            None => self.scan_full(agent, filter, f),
        }
    }

    /// Selection-vector scan: evaluates every predicate directly against
    /// the columns and returns the sorted, deduped row ids that match —
    /// no `Event` is materialized. Access paths (operation postings,
    /// subject/object posting lists, each taken only when it prunes) are
    /// combined by sort-merge intersection and the survivors verified
    /// row by row; with no access path the residual predicates run as
    /// chunked columnar mask passes ([`Segment::residual_mask_scan`]).
    pub fn select(&self, agent: AgentId, filter: &EventFilter) -> Vec<u32> {
        if !self.overlaps_window(filter) {
            return Vec::new();
        }
        if let Some(agents) = &filter.agents {
            if !agents.contains(&agent) {
                return Vec::new();
            }
        }
        // Build each applicable access path as a sorted row-id list.
        let mut paths: Vec<Vec<u32>> = self.entity_paths(filter).collect();
        if !filter.ops.is_all() {
            let total: usize = filter.ops.iter().map(|op| self.op_count(op)).sum();
            // The op path only pays for itself when it prunes; an
            // unselective op set is cheaper as a direct column pass below.
            if total * 2 < self.len() {
                let lists: Vec<&[u32]> = filter
                    .ops
                    .iter()
                    .map(|op| self.op_postings[op.index()].as_slice())
                    .collect();
                paths.push(merge_sorted(&lists));
            }
        }
        // Residual verification straight off the columns. The window/op
        // tests are unconditional (they are almost always the deciding
        // predicates); the entity and amount tests only run when the filter
        // carries them.
        let (win_lo, win_hi) = (filter.window.start.micros(), filter.window.end.micros());
        let ops_mask = filter.ops.0;
        let residual = |r: usize| -> bool {
            let t = self.start_times[r];
            if t < win_lo || t >= win_hi {
                return false;
            }
            if ops_mask & (1u16 << self.ops[r]) == 0 {
                return false;
            }
            if let Some(s) = &filter.subjects {
                if !s.contains(self.subjects[r]) {
                    return false;
                }
            }
            if let Some(o) = &filter.objects {
                if !o.contains(self.objects[r]) {
                    return false;
                }
            }
            if let Some(min) = filter.min_amount {
                if self.amounts[r] < min {
                    return false;
                }
            }
            true
        };
        match paths.into_iter().reduce(|a, b| intersect_sorted(&a, &b)) {
            Some(mut rows) => {
                // Index-pruned candidates are sparse; a gather-style mask
                // pass would touch the same scattered cache lines, so the
                // scalar verify stays the right shape here.
                rows.retain(|&row| residual(row as usize));
                rows
            }
            // No index path: the residual runs as mask passes directly
            // over the columns — no candidate vector is materialized.
            None => self.residual_mask_scan(filter),
        }
    }

    /// Chunked columnar residual pass: each predicate runs as its own loop
    /// over a contiguous column, writing 64-row bitmask blocks that are
    /// AND-combined and finally compacted into the selection vector. The
    /// per-block inner loops are branch-free compare-and-shift reductions
    /// over `i64`/`u8` columns, which the compiler auto-vectorizes.
    fn residual_mask_scan(&self, filter: &EventFilter) -> Vec<u32> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let mut masks = vec![0u64; n.div_ceil(64)];
        // Window pass over the start-time column (after zone-map pruning
        // this is almost always the deciding predicate, so it seeds the
        // masks instead of AND-ing into them).
        let (lo, hi) = (filter.window.start.micros(), filter.window.end.micros());
        for (b, chunk) in self.start_times.chunks(64).enumerate() {
            let mut m = 0u64;
            for (j, &t) in chunk.iter().enumerate() {
                m |= u64::from(t >= lo && t < hi) << j;
            }
            masks[b] = m;
        }
        // Operation pass over the u8 op column.
        if !filter.ops.is_all() {
            let ops_mask = filter.ops.0;
            for (b, chunk) in self.ops.chunks(64).enumerate() {
                let mut m = 0u64;
                for (j, &op) in chunk.iter().enumerate() {
                    m |= u64::from(ops_mask & (1u16 << op) != 0) << j;
                }
                masks[b] &= m;
            }
        }
        // Entity-bitmap membership passes, skipping fully-masked blocks.
        if let Some(ids) = &filter.subjects {
            for (b, chunk) in self.subjects.chunks(64).enumerate() {
                if masks[b] == 0 {
                    continue;
                }
                let mut m = 0u64;
                for (j, &id) in chunk.iter().enumerate() {
                    m |= u64::from(ids.contains(id)) << j;
                }
                masks[b] &= m;
            }
        }
        if let Some(ids) = &filter.objects {
            for (b, chunk) in self.objects.chunks(64).enumerate() {
                if masks[b] == 0 {
                    continue;
                }
                let mut m = 0u64;
                for (j, &id) in chunk.iter().enumerate() {
                    m |= u64::from(ids.contains(id)) << j;
                }
                masks[b] &= m;
            }
        }
        if let Some(min) = filter.min_amount {
            for (b, chunk) in self.amounts.chunks(64).enumerate() {
                if masks[b] == 0 {
                    continue;
                }
                let mut m = 0u64;
                for (j, &a) in chunk.iter().enumerate() {
                    m |= u64::from(a >= min) << j;
                }
                masks[b] &= m;
            }
        }
        // Compact the surviving bits into the sorted selection vector.
        let mut out = Vec::new();
        for (b, &mask) in masks.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let j = m.trailing_zeros();
                out.push((b * 64) as u32 + j);
                m &= m - 1;
            }
        }
        out
    }

    /// Sorted candidate rows for an entity id set via its posting index, or
    /// `None` when the postings cover more than half the segment and a
    /// column scan is cheaper.
    fn entity_rows(
        &self,
        ids: &crate::filter::IdSet,
        index: &HashMap<EntityId, Vec<u32>>,
    ) -> Option<Vec<u32>> {
        let budget = self.len() / 2;
        let mut lists: Vec<&[u32]> = Vec::new();
        let mut total = 0usize;
        if ids.len() <= index.len() {
            for id in ids.iter() {
                if let Some(r) = index.get(&id) {
                    total += r.len();
                    if total > budget {
                        return None;
                    }
                    lists.push(r);
                }
            }
        } else {
            // Fewer distinct entities in the segment than ids in the set:
            // probe the bitmap from the index side instead.
            for (id, r) in index {
                if ids.contains(*id) {
                    total += r.len();
                    if total > budget {
                        return None;
                    }
                    lists.push(r);
                }
            }
        }
        Some(merge_sorted(&lists))
    }

    /// The entity access paths of a filter: the sorted candidate rows of its
    /// subject and object id sets, each present only when
    /// [`Segment::entity_rows`] takes the posting lists.
    fn entity_paths<'a>(&'a self, filter: &'a EventFilter) -> impl Iterator<Item = Vec<u32>> + 'a {
        [
            (filter.subjects.as_ref(), &self.subj_index),
            (filter.objects.as_ref(), &self.obj_index),
        ]
        .into_iter()
        .filter_map(|(ids, index)| self.entity_rows(ids?, index))
    }

    /// Whether [`Segment::select`] resolves one of the filter's id sets
    /// through posting lists in this segment — `EXPLAIN`'s label reads the
    /// decision the scan takes, not a copy of its rule.
    pub(crate) fn uses_entity_postings(&self, filter: &EventFilter) -> bool {
        self.overlaps_window(filter) && self.entity_paths(filter).next().is_some()
    }

    /// Unconditional column scan verifying every predicate per row — the
    /// access path of the *unoptimized* storage configuration.
    pub fn scan_full(&self, agent: AgentId, filter: &EventFilter, f: &mut dyn FnMut(&Event)) {
        for row in 0..self.len() {
            let e = self.event_at(agent, row);
            if filter.matches(&e) {
                f(&e);
            }
        }
    }

    /// Estimated number of matches for a filter, from segment statistics.
    pub fn estimate(&self, filter: &EventFilter) -> usize {
        if !self.overlaps_window(filter) {
            return 0;
        }
        let by_op: usize = filter.ops.iter().map(|op| self.op_count(op)).sum();
        let by_subj = filter.subjects.as_ref().map(|ids| {
            ids.iter()
                .map(|id| self.subject_rows(id).map_or(0, <[u32]>::len))
                .sum::<usize>()
        });
        let by_obj = filter.objects.as_ref().map(|ids| {
            ids.iter()
                .map(|id| self.object_rows(id).map_or(0, <[u32]>::len))
                .sum::<usize>()
        });
        let mut est = by_op;
        if let Some(s) = by_subj {
            est = est.min(s);
        }
        if let Some(o) = by_obj {
            est = est.min(o);
        }
        est
    }
}

/// K-way sort-merge union of sorted, pairwise-disjoint row lists (posting
/// lists for distinct entities or operations never share a row, so no dedup
/// pass is needed — only ordering).
///
/// The ≥3-list case is a single-pass k-way merge over a min-heap of list
/// cursors: one output buffer sized to the total, one heap of at most `k`
/// entries. The pairwise-merge tournament this replaces allocated (and then
/// threw away) a fresh `Vec` per pairwise merge — O(k) intermediate buffers
/// re-copying every element O(log k) times.
pub(crate) fn merge_sorted(lists: &[&[u32]]) -> Vec<u32> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].to_vec(),
        2 => merge_two(lists[0], lists[1]),
        _ => {
            let total: usize = lists.iter().map(|l| l.len()).sum();
            let mut out = Vec::with_capacity(total);
            // Heap entries are ⟨head value, list index⟩; `Reverse` turns the
            // max-heap into the min-heap a merge needs. Cursors track each
            // list's next unconsumed position.
            let mut cursors = vec![0usize; lists.len()];
            let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, usize)>> = lists
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.is_empty())
                .map(|(i, l)| std::cmp::Reverse((l[0], i)))
                .collect();
            while let Some(std::cmp::Reverse((v, i))) = heap.pop() {
                out.push(v);
                cursors[i] += 1;
                if let Some(&next) = lists[i].get(cursors[i]) {
                    heap.push(std::cmp::Reverse((next, i)));
                }
            }
            out
        }
    }
}

fn merge_two(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sort-merge intersection of two sorted row lists.
pub(crate) fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{IdSet, OpSet};
    use aiql_model::TimeWindow;

    fn mk_event(id: u64, op: Operation, subj: u32, obj: u32, t: i64) -> Event {
        Event {
            id: EventId(id),
            agent: AgentId(1),
            op,
            subject: EntityId(subj),
            object: EntityId(obj),
            start_time: Timestamp(t),
            end_time: Timestamp(t + 10),
            amount: 100,
        }
    }

    fn seg_with_events() -> Segment {
        let mut s = Segment::new();
        s.push(AgentId(1), &mk_event(0, Operation::Read, 1, 10, 100));
        s.push(AgentId(1), &mk_event(1, Operation::Write, 1, 11, 200));
        s.push(AgentId(1), &mk_event(2, Operation::Read, 2, 10, 300));
        s.push(AgentId(1), &mk_event(3, Operation::Connect, 2, 12, 400));
        s
    }

    #[test]
    fn push_maintains_columns_and_indexes() {
        let s = seg_with_events();
        assert_eq!(s.len(), 4);
        assert_eq!(s.op_count(Operation::Read), 2);
        assert_eq!(s.op_count(Operation::Write), 1);
        assert_eq!(s.subject_rows(EntityId(1)).unwrap(), &[0, 1]);
        assert_eq!(s.object_rows(EntityId(10)).unwrap(), &[0, 2]);
        assert_eq!(s.min_time(), Some(Timestamp(100)));
        assert_eq!(s.max_time(), Some(Timestamp(400)));
    }

    #[test]
    fn event_roundtrips_through_columns() {
        let s = seg_with_events();
        let e = s.event_at(AgentId(1), 3);
        assert_eq!(e, mk_event(3, Operation::Connect, 2, 12, 400));
    }

    #[test]
    fn scan_by_op_postings() {
        let s = seg_with_events();
        let filter = EventFilter::all().with_ops(OpSet::single(Operation::Read));
        let mut got = Vec::new();
        s.scan(AgentId(1), &filter, &mut |e| got.push(e.id.raw()));
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn scan_by_subject_index() {
        let s = seg_with_events();
        let filter = EventFilter::all().with_subjects(IdSet::from_iter([EntityId(2)]));
        let mut got = Vec::new();
        s.scan(AgentId(1), &filter, &mut |e| got.push(e.id.raw()));
        got.sort_unstable();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn scan_agrees_with_full_scan() {
        let s = seg_with_events();
        let filters = [
            EventFilter::all(),
            EventFilter::all().with_ops(OpSet::from_ops(&[Operation::Read, Operation::Write])),
            EventFilter::all().with_window(TimeWindow::new(Timestamp(150), Timestamp(350))),
            EventFilter::all()
                .with_subjects(IdSet::from_iter([EntityId(1)]))
                .with_objects(IdSet::from_iter([EntityId(11)])),
        ];
        for filter in filters {
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            s.scan(AgentId(1), &filter, &mut |e| fast.push(e.id));
            s.scan_full(AgentId(1), &filter, &mut |e| slow.push(e.id));
            fast.sort_unstable();
            slow.sort_unstable();
            assert_eq!(fast, slow, "filter {filter:?}");
        }
    }

    #[test]
    fn zone_map_pruning() {
        let s = seg_with_events();
        let filter =
            EventFilter::all().with_window(TimeWindow::new(Timestamp(1000), Timestamp(2000)));
        assert!(!s.overlaps_window(&filter));
        assert_eq!(s.estimate(&filter), 0);
        let mut n = 0;
        s.scan(AgentId(1), &filter, &mut |_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn estimate_uses_cheapest_index() {
        let s = seg_with_events();
        let filter = EventFilter::all()
            .with_ops(OpSet::single(Operation::Read))
            .with_subjects(IdSet::from_iter([EntityId(2)]));
        // op count 2, subject postings 2 → estimate <= 2
        assert!(s.estimate(&filter) <= 2);
    }

    #[test]
    fn select_agrees_with_full_scan_and_is_sorted() {
        let s = seg_with_events();
        let filters = [
            EventFilter::all(),
            EventFilter::all().with_ops(OpSet::from_ops(&[Operation::Read, Operation::Write])),
            EventFilter::all().with_window(TimeWindow::new(Timestamp(150), Timestamp(350))),
            EventFilter::all()
                .with_subjects(IdSet::from_iter([EntityId(1)]))
                .with_objects(IdSet::from_iter([EntityId(11)])),
            EventFilter::all()
                .with_ops(OpSet::single(Operation::Read))
                .with_subjects(IdSet::from_iter([EntityId(2)])),
            EventFilter::all().with_agents(vec![AgentId(9)]), // wrong agent
        ];
        for filter in filters {
            let rows = s.select(AgentId(1), &filter);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            let mut slow = Vec::new();
            s.scan_full(AgentId(1), &filter, &mut |e| slow.push(e.id));
            let got: Vec<EventId> = rows.iter().map(|&r| s.id_at(r)).collect();
            assert_eq!(got, slow, "filter {filter:?}");
        }
    }

    /// The mask scan must agree with the per-row full scan across block
    /// boundaries (tail blocks, >64 rows) and every predicate combination.
    #[test]
    fn residual_mask_scan_agrees_across_blocks() {
        let mut s = Segment::new();
        for i in 0..200u32 {
            let op = match i % 3 {
                0 => Operation::Read,
                1 => Operation::Write,
                _ => Operation::Connect,
            };
            let mut e = mk_event(u64::from(i), op, i % 7, 10 + i % 5, i64::from(i) * 10);
            e.amount = u64::from(i % 50);
            s.push(AgentId(1), &e);
        }
        let filters = [
            EventFilter::all(),
            EventFilter::all().with_window(TimeWindow::new(Timestamp(333), Timestamp(1501))),
            EventFilter::all().with_ops(OpSet::from_ops(&[Operation::Write])),
            EventFilter::all()
                .with_subjects(IdSet::from_iter([EntityId(2), EntityId(4)]))
                .with_objects(IdSet::from_iter([EntityId(11)])),
            {
                let mut f = EventFilter::all();
                f.min_amount = Some(25);
                f
            },
        ];
        for filter in filters {
            let fast = s.residual_mask_scan(&filter);
            // Event `i` sits at row `i`, so the full scan's ids are rows.
            let mut slow = Vec::new();
            s.scan_full(AgentId(1), &filter, &mut |e| slow.push(e.id.raw() as u32));
            assert_eq!(fast, slow, "filter {filter:?}");
        }
    }

    #[test]
    fn column_accessors_match_materialized_event() {
        let s = seg_with_events();
        for row in 0..s.len() as u32 {
            let e = s.event_at(AgentId(1), row as usize);
            assert_eq!(s.id_at(row), e.id);
            assert_eq!(s.op_at(row), e.op);
            assert_eq!(s.subject_at(row), e.subject);
            assert_eq!(s.object_at(row), e.object);
            assert_eq!(s.start_at(row), e.start_time);
            assert_eq!(s.end_at(row), e.end_time);
            assert_eq!(s.amount_at(row), e.amount);
        }
    }

    #[test]
    fn legacy_scan_visits_rows_in_order() {
        // Two candidate posting lists that interleave: subject 1 hits rows
        // {0, 1} and subject 2 hits rows {2, 3}; requesting both subjects
        // must still visit rows ascending (the seed concatenated unsorted).
        let s = seg_with_events();
        let filter = EventFilter::all().with_subjects(IdSet::from_iter([EntityId(1), EntityId(2)]));
        let mut got = Vec::new();
        s.scan(AgentId(1), &filter, &mut |e| got.push(e.id.raw()));
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_and_intersect_helpers() {
        assert_eq!(merge_sorted(&[]), Vec::<u32>::new());
        assert_eq!(merge_sorted(&[&[1, 5, 9]]), vec![1, 5, 9]);
        assert_eq!(
            merge_sorted(&[&[1, 5], &[2, 6], &[0, 9]]),
            vec![0, 1, 2, 5, 6, 9]
        );
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[2, 3, 7, 8]), vec![3, 7]);
        assert_eq!(intersect_sorted(&[1, 2], &[3, 4]), Vec::<u32>::new());
    }

    #[test]
    fn partition_key_bucketing() {
        let hour = 3_600_000_000i64;
        let k = PartitionKey::for_event(AgentId(2), Timestamp(hour + 5), hour);
        assert_eq!(k.bucket, 1);
        let neg = PartitionKey::for_event(AgentId(2), Timestamp(-1), hour);
        assert_eq!(neg.bucket, -1);
    }
}
