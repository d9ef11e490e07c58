//! Ablations — the contribution of each design choice DESIGN.md calls out.
//!
//! Engine side: the paper's five — pruning-power scheduling, partition
//! parallelism, entity pushdown, semi-join pushdown, and temporal narrowing
//! — are toggled individually on the most join-heavy catalog query, then
//! all together (`EngineConfig::unoptimized()`, which leaves everything
//! that is not one of the five, the plan cache included, at its default).
//! Storage side: event dedup on/off (ingest cost + store size),
//! batch-commit size, and indexed vs full scans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aiql_bench::fig4_store;
use aiql_engine::{Engine, EngineConfig};
use aiql_model::{Duration, Operation};
use aiql_sim::{demo_queries, scenario_demo, Scale};
use aiql_storage::{EventFilter, EventStore, OpSet, StoreConfig};

/// The heaviest multievent query of the demo catalog (Query 1 / a5-5).
fn heavy_query() -> String {
    demo_queries()
        .into_iter()
        .find(|q| q.id == "a5-5")
        .expect("a5-5 in catalog")
        .aiql
}

fn bench_engine_ablations(c: &mut Criterion) {
    let store = fig4_store();
    let src = heavy_query();
    let mut group = c.benchmark_group("ablation/engine");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));

    let variants: Vec<(&str, EngineConfig)> = vec![
        ("full", EngineConfig::default()),
        (
            "no-pruning-priority",
            EngineConfig {
                prioritize_pruning: false,
                ..EngineConfig::default()
            },
        ),
        (
            "no-partition-parallel",
            EngineConfig {
                partition_parallel: false,
                ..EngineConfig::default()
            },
        ),
        (
            "no-entity-pushdown",
            EngineConfig {
                entity_pushdown: false,
                ..EngineConfig::default()
            },
        ),
        (
            "no-semi-join-pushdown",
            EngineConfig {
                semi_join_pushdown: false,
                ..EngineConfig::default()
            },
        ),
        (
            "no-temporal-narrowing",
            EngineConfig {
                temporal_narrowing: false,
                ..EngineConfig::default()
            },
        ),
        ("all-off", EngineConfig::unoptimized()),
    ];
    for (name, config) in variants {
        let engine = Engine::new(config);
        group.bench_function(BenchmarkId::new("a5-5", name), |b| {
            b.iter(|| engine.execute_text(&store, &src).expect("query"));
        });
    }
    group.finish();
}

fn bench_parallelism_scaling(c: &mut Criterion) {
    let store = fig4_store();
    // A deliberately broad scan-bound query (all hosts, whole day).
    let src = r#"(at "03/19/2018") proc p read || write file f as e
                 return p, count(e.amount) as n group by p having n > 100"#;
    let mut group = c.benchmark_group("ablation/parallelism");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    for threads in [1usize, 2, 4, 8] {
        let engine = Engine::new(EngineConfig {
            parallelism: threads,
            ..EngineConfig::default()
        });
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| engine.execute_text(&store, src).expect("query"));
        });
    }
    group.finish();
}

fn bench_storage_ablations(c: &mut Criterion) {
    let scenario = scenario_demo(Scale {
        hosts: 4,
        events_per_host: 5_000,
        seed: 1,
    });
    let mut group = c.benchmark_group("ablation/storage");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));

    // Ingest with/without event dedup.
    for (name, dedup) in [("dedup-on", true), ("dedup-off", false)] {
        group.bench_function(BenchmarkId::new("ingest", name), |b| {
            b.iter(|| {
                let mut store = EventStore::new(StoreConfig {
                    dedup,
                    ..StoreConfig::default()
                });
                store.ingest_all(&scenario.raws);
                store.event_count()
            });
        });
    }

    // Batch-commit size.
    for batch in [64usize, 1024, 16_384] {
        group.bench_function(BenchmarkId::new("batch-size", batch), |b| {
            b.iter(|| {
                let mut store = EventStore::new(StoreConfig {
                    batch_size: batch,
                    ..StoreConfig::default()
                });
                store.ingest_all(&scenario.raws);
                store.event_count()
            });
        });
    }

    // Hypertable bucket width (partition pruning granularity).
    for (name, bucket) in [("bucket-10min", 10), ("bucket-1h", 60), ("bucket-6h", 360)] {
        let mut store = EventStore::new(StoreConfig {
            time_bucket: Duration::from_mins(bucket),
            ..StoreConfig::default()
        });
        store.ingest_all(&scenario.raws);
        let window = aiql_model::TimeWindow::new(
            aiql_model::Timestamp::from_date(2018, 3, 19) + Duration::from_hours(9),
            aiql_model::Timestamp::from_date(2018, 3, 19) + Duration::from_hours(10),
        );
        let filter = EventFilter::all()
            .with_window(window)
            .with_ops(OpSet::single(Operation::Write));
        group.bench_function(BenchmarkId::new("window-scan", name), |b| {
            b.iter(|| store.scan_collect(&filter).len());
        });
    }

    // Indexed scan vs full scan — the paper's storage ablation — for a
    // selective predicate and an unselective one (writes are most of the
    // trace, so the operation postings do not prune).
    let mut store = EventStore::default();
    store.ingest_all(&scenario.raws);
    for (name, op) in [
        ("selective-scan", Operation::Execute),
        ("scan-path", Operation::Write),
    ] {
        let filter = EventFilter::all().with_ops(OpSet::single(op));
        group.bench_function(format!("{name}/indexed"), |b| {
            b.iter(|| store.scan_collect(&filter).len());
        });
        group.bench_function(format!("{name}/full"), |b| {
            b.iter(|| store.scan_unoptimized_collect(&filter).len());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_ablations,
    bench_parallelism_scaling,
    bench_storage_ablations
);
criterion_main!(benches);
