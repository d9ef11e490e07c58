//! Storage statistics, consumed by the engine's pruning-power scheduler and
//! surfaced in the benchmark reports (dataset size headers).

use aiql_model::{Timestamp, OPERATION_COUNT};

/// Per-segment statistics snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentStats {
    /// Events stored.
    pub events: usize,
    /// Events per operation.
    pub per_op: [usize; OPERATION_COUNT],
    /// Distinct subject entities.
    pub distinct_subjects: usize,
    /// Distinct object entities.
    pub distinct_objects: usize,
    /// Earliest event start time.
    pub min_time: Timestamp,
    /// Latest event start time.
    pub max_time: Timestamp,
}

/// Whole-store statistics snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Total committed events.
    pub events: u64,
    /// Raw observations ingested (>= `events` when event dedup merged some).
    pub raw_events: u64,
    /// Events absorbed by event-level deduplication.
    pub merged_events: u64,
    /// Distinct entities after dedup.
    pub entities: u64,
    /// Entity observations absorbed by entity dedup.
    pub entity_dedup_hits: u64,
    /// Number of hypertable partitions.
    pub partitions: u64,
    /// Number of monitored hosts seen.
    pub agents: u64,
    /// Number of batch commits performed.
    pub commits: u64,
    /// Approximate resident bytes of event columns.
    pub event_bytes: u64,
    /// Approximate resident bytes of the *string interner* only
    /// ([`Interner::heap_bytes`](aiql_model::Interner::heap_bytes)): the
    /// interned strings and their lookup table. It does not count the
    /// entity table, its per-kind and per-name postings, or the trigram /
    /// prefix indexes — on a store of a few hundred distinct strings and
    /// 10⁵ entities it is a few KB, far below what the dictionary holds.
    pub dict_bytes: u64,
    /// Total segments across partitions (== `partitions` when every
    /// partition is fully compacted; higher means fragmentation).
    pub segments: u64,
    /// Largest segments-per-partition count (the worst fragmented one).
    pub max_partition_segments: u64,
    /// Smallest segment row count (0 when the store is empty).
    pub min_segment_rows: u64,
    /// Mean segment row count (`events / segments`, 0 when empty).
    pub avg_segment_rows: u64,
    /// Events currently in novelty overlays (not yet sealed).
    pub novelty_events: u64,
    /// Approximate resident bytes of the novelty overlays.
    pub novelty_bytes: u64,
    /// Overlays sealed into the immutable run so far: threshold and
    /// explicit flushes (at threshold 0 a commit's own seal counts as none).
    pub novelty_flushes: u64,
    /// Partitions a write had to copy because a published snapshot still
    /// shared them. After a publish, a commit copies exactly the partitions
    /// it touches; a bare store (nothing shares its partitions) reads 0.
    pub partition_copies: u64,
    /// Snapshot acquisitions that found the publish lock contended (filled
    /// in by [`SharedStore::stats`](crate::SharedStore::stats); always 0 on
    /// a bare store).
    pub reader_stalls: u64,
}

impl StoreStats {
    /// Human-readable one-line summary for benchmark headers.
    pub fn summary(&self) -> String {
        format!(
            "{} events ({} raw, {} merged) | {} entities ({} dedup hits) | {} partitions on {} hosts ({} copied on write) | {} segments (max {}/partition, min {} / avg {} rows) | {} novelty rows ({} flushes, {} reader stalls) | ~{:.1} MB columns",
            self.events,
            self.raw_events,
            self.merged_events,
            self.entities,
            self.entity_dedup_hits,
            self.partitions,
            self.agents,
            self.partition_copies,
            self.segments,
            self.max_partition_segments,
            self.min_segment_rows,
            self.avg_segment_rows,
            self.novelty_events,
            self.novelty_flushes,
            self.reader_stalls,
            self.event_bytes as f64 / 1_048_576.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_key_counts() {
        let s = StoreStats {
            events: 1000,
            raw_events: 1200,
            merged_events: 200,
            entities: 50,
            entity_dedup_hits: 1150,
            partitions: 8,
            agents: 4,
            commits: 2,
            event_bytes: 2 * 1_048_576,
            dict_bytes: 1024,
            segments: 16,
            max_partition_segments: 3,
            min_segment_rows: 40,
            avg_segment_rows: 62,
            novelty_events: 12,
            novelty_bytes: 492,
            novelty_flushes: 5,
            partition_copies: 6,
            reader_stalls: 1,
        };
        let text = s.summary();
        assert!(text.contains("1000 events"));
        assert!(text.contains("8 partitions"));
        assert!(text.contains("4 hosts (6 copied on write)"));
        assert!(text.contains("16 segments (max 3/partition, min 40 / avg 62 rows)"));
        assert!(text.contains("12 novelty rows (5 flushes, 1 reader stalls)"));
    }
}
