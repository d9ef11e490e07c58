//! Property-based tests for the storage layer: the optimized access paths
//! must be observationally equivalent to the naive reference semantics for
//! arbitrary data and arbitrary filters.

use aiql_model::{AgentId, EntityId, Operation, TimeWindow, Timestamp};
use aiql_storage::{
    EntitySpec, EventFilter, EventStore, IdSet, OpSet, PartitionKey, RawEvent, StoreConfig,
};
use proptest::prelude::*;

/// Strategy for a small random raw event.
fn arb_raw() -> impl Strategy<Value = RawEvent> {
    (
        0u32..4,      // agent
        0usize..11,   // op index
        0u32..6,      // exe choice
        0u32..8,      // file choice
        0i64..86_400, // seconds within one day
        0u64..10_000, // amount
    )
        .prop_map(|(agent, op, exe, file, secs, amount)| {
            RawEvent::instant(
                AgentId(agent),
                Operation::from_index(op).unwrap(),
                EntitySpec::process(100 + exe, &format!("/usr/bin/exe{exe}"), "user"),
                EntitySpec::file(&format!("/data/file{file}"), "user"),
                Timestamp::from_secs(secs),
                amount,
            )
        })
}

fn build_store(raws: &[RawEvent], dedup: bool, bucket_mins: i64) -> EventStore {
    let mut store = EventStore::new(StoreConfig {
        time_bucket: aiql_model::Duration::from_mins(bucket_mins),
        dedup,
        ..StoreConfig::default()
    });
    store.ingest_all(raws);
    store
}

/// The test-side reference for one partition: every flat row in order,
/// materialized and checked with `EventFilter::matches` — no pruning, no
/// posting list, no column pass.
fn full_scan_rows(store: &EventStore, key: PartitionKey, filter: &EventFilter) -> Vec<u32> {
    let part = store.partition(key).expect("key from partition_list");
    (0..part.len())
        .filter(|&row| filter.matches(&part.event_at(key.agent, row)))
        .map(|row| row as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without dedup, every raw observation becomes exactly one committed
    /// event regardless of the partitioning granularity.
    #[test]
    fn ingest_preserves_event_count(raws in proptest::collection::vec(arb_raw(), 0..200),
                                    bucket_mins in 1i64..240) {
        let store = build_store(&raws, false, bucket_mins);
        prop_assert_eq!(store.event_count(), raws.len() as u64);
    }

    /// The optimized scan (partition pruning + indexes) returns exactly the
    /// same multiset of events as the unoptimized full scan, and the
    /// row-selecting path the engine scans through returns, partition by
    /// partition, exactly the reference's row *sequence* — candidate order
    /// is what `limit` without `order by` and every truncation prefix
    /// depend on — for arbitrary filters.
    #[test]
    fn optimized_scan_equals_full_scan(
        raws in proptest::collection::vec(arb_raw(), 0..150),
        op_mask in 1u16..(1 << 11),
        agent in 0u32..4,
        use_agent in any::<bool>(),
        subject_mask in any::<u64>(),
        use_subjects in any::<bool>(),
        lo in 0i64..86_400,
        len in 0i64..86_400,
        bucket_mins in 1i64..120,
    ) {
        let store = build_store(&raws, true, bucket_mins);
        let mut filter = EventFilter::all()
            .with_ops(OpSet(op_mask))
            .with_window(TimeWindow::new(
                Timestamp::from_secs(lo),
                Timestamp::from_secs(lo + len),
            ));
        if use_agent {
            filter = filter.with_agents(vec![AgentId(agent)]);
        }
        if use_subjects {
            // An arbitrary subset of the (at most 56) entity ids: sparse
            // masks take the posting lists, dense ones exceed a segment's
            // budget and fall back to the column pass.
            filter = filter.with_subjects(IdSet::from_iter(
                (0..64).filter(|i| subject_mask >> i & 1 == 1).map(EntityId),
            ));
        }
        let mut fast = store.scan_collect(&filter);
        let mut slow = store.scan_unoptimized_collect(&filter);
        fast.sort_by_key(|e| e.id);
        slow.sort_by_key(|e| e.id);
        prop_assert_eq!(store.count(&filter), slow.len());
        prop_assert_eq!(fast, slow);

        let pruned = store.partitions_for(&filter);
        let mut matching = Vec::new();
        for key in store.partition_list() {
            let want = full_scan_rows(&store, key, &filter);
            prop_assert_eq!(store.select_partition(key, &filter), want.clone(), "{:?}", key);
            if !want.is_empty() {
                matching.push(key);
            }
        }
        // Pruning may keep a partition with no match, never drop one with
        // a match, and enumerates in partition order.
        prop_assert!(pruned.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(
            matching.iter().all(|key| pruned.contains(key)),
            "pruned {:?} misses a partition of {:?}", pruned, matching
        );
    }

    /// Dedup never loses data volume: the total transferred amount is
    /// invariant under event merging, and merged stores have no more events.
    #[test]
    fn dedup_preserves_total_amount(raws in proptest::collection::vec(arb_raw(), 0..150)) {
        let merged = build_store(&raws, true, 60);
        let plain = build_store(&raws, false, 60);
        let sum = |s: &EventStore| {
            let mut total: u64 = 0;
            s.for_each_event(&mut |e| total += e.amount);
            total
        };
        prop_assert_eq!(sum(&merged), sum(&plain));
        prop_assert!(merged.event_count() <= plain.event_count());
    }

    /// The statistics-based estimate never undercounts actual matches.
    #[test]
    fn estimate_is_an_upper_bound(
        raws in proptest::collection::vec(arb_raw(), 0..150),
        op_mask in 1u16..(1 << 11),
    ) {
        let store = build_store(&raws, true, 60);
        let filter = EventFilter::all().with_ops(OpSet(op_mask));
        let actual = store.scan_collect(&filter).len();
        prop_assert!(store.estimate(&filter) >= actual);
    }

    /// Entity dedup: distinct entities never exceed distinct (agent, attrs)
    /// combinations present in the input.
    #[test]
    fn entity_dedup_bound(raws in proptest::collection::vec(arb_raw(), 1..150)) {
        let store = build_store(&raws, false, 60);
        let mut distinct = std::collections::HashSet::new();
        for r in &raws {
            distinct.insert((r.agent, format!("{:?}", r.subject)));
            distinct.insert((r.agent, format!("{:?}", r.object)));
        }
        prop_assert!(store.entities().len() <= distinct.len());
    }

    /// Snapshot save/load is lossless for scans.
    #[test]
    fn snapshot_roundtrip(raws in proptest::collection::vec(arb_raw(), 0..80)) {
        let store = build_store(&raws, true, 60);
        let mut path = std::env::temp_dir();
        path.push(format!("aiql-prop-snap-{}-{}", std::process::id(), raws.len()));
        aiql_storage::snapshot::save(&store, &path).unwrap();
        let loaded = aiql_storage::snapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut a = store.scan_collect(&EventFilter::all());
        let mut b = loaded.scan_collect(&EventFilter::all());
        a.sort_by_key(|e| e.id);
        b.sort_by_key(|e| e.id);
        prop_assert_eq!(a, b);
    }
}
