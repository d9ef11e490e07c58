//! Prints the design-choice ablation as a table: each of the paper's five
//! engine optimizations switched off alone, then all together, over the
//! demo catalog; on the storage side, dedup, batch size and indexed vs
//! full scans. Best-of-3 wall times, no statistics — thread scaling is the
//! repo benchmark's `engine.pool.pass_ms_t*`.
//!
//! ```sh
//! cargo run --release -p aiql-bench --bin ablation_table
//! ```

use aiql_bench::{fig4_store, time_best_of};
use aiql_engine::{Ablation, Engine, EngineConfig};
use aiql_sim::demo_queries;
use aiql_storage::{EventStore, StoreConfig};

fn main() {
    let store = fig4_store();
    println!("Engine ablations over the full demo catalog (18 multievent queries)");
    println!("dataset: {}", store.stats().summary());
    println!();

    // The anomaly query's windowing cost is identical across engine
    // configurations; exclude it so the scheduling effects are visible.
    let catalog: Vec<String> = demo_queries()
        .into_iter()
        .filter(|q| q.id != "a5-1")
        .map(|q| q.aiql)
        .collect();

    let on = Ablation::default();
    let ablated = |ablation| EngineConfig {
        ablation,
        ..EngineConfig::default()
    };
    let variants: Vec<(&str, EngineConfig)> = vec![
        ("full optimizations", EngineConfig::default()),
        (
            "- pruning priority",
            ablated(Ablation {
                prioritize_pruning: false,
                ..on
            }),
        ),
        (
            "- parallelism",
            EngineConfig {
                parallelism: 1,
                ..EngineConfig::default()
            },
        ),
        (
            "- entity pushdown",
            ablated(Ablation {
                entity_pushdown: false,
                ..on
            }),
        ),
        (
            "- semi-join pushdown",
            ablated(Ablation {
                semi_join_pushdown: false,
                ..on
            }),
        ),
        (
            "- temporal narrowing",
            ablated(Ablation {
                temporal_narrowing: false,
                ..on
            }),
        ),
        ("all off", EngineConfig::unoptimized()),
    ];

    let run_catalog = |engine: &Engine| {
        for src in &catalog {
            engine.execute_text(&store, src).expect("catalog query");
        }
    };
    // Warm caches, then measure every variant; ratios are against the
    // fully optimized configuration (the first variant).
    run_catalog(&Engine::new(EngineConfig::default()));
    let timings: Vec<(&str, f64)> = variants
        .into_iter()
        .map(|(name, config)| {
            let engine = Engine::new(config);
            run_catalog(&engine); // per-variant warm-up
            (name, time_best_of(3, || run_catalog(&engine)))
        })
        .collect();
    let full = timings[0].1;
    println!(
        "{:<24} {:>12} {:>10}",
        "configuration", "time (ms)", "vs full"
    );
    for (name, secs) in timings {
        println!(
            "{:<24} {:>12.3} {:>9.2}x",
            name,
            secs * 1e3,
            secs / full.max(1e-9)
        );
    }

    // Storage-side: dedup and batch size on ingest; index vs full scan.
    println!();
    println!("Storage ablations (ingest of the demo scenario)");
    let scenario = aiql_sim::scenario_demo(aiql_sim::Scale {
        hosts: 4,
        events_per_host: 10_000,
        seed: 1,
    });
    for (name, dedup) in [("dedup on", true), ("dedup off", false)] {
        let secs = time_best_of(3, || {
            let mut s = EventStore::new(StoreConfig {
                dedup,
                ..StoreConfig::default()
            });
            s.ingest_all(&scenario.raws);
            s.event_count()
        });
        println!("{:<24} {:>12.1} ms", name, secs * 1e3);
    }
    for batch in [64usize, 8192] {
        let secs = time_best_of(3, || {
            let mut s = EventStore::new(StoreConfig {
                batch_size: batch,
                ..StoreConfig::default()
            });
            s.ingest_all(&scenario.raws);
            s.event_count()
        });
        println!(
            "{:<24} {:>12.1} ms",
            format!("batch size {batch}"),
            secs * 1e3
        );
    }

    let mut store2 = EventStore::default();
    store2.ingest_all(&scenario.raws);
    let filter = aiql_storage::EventFilter::all()
        .with_ops(aiql_storage::OpSet::single(aiql_model::Operation::Execute));
    let indexed = time_best_of(5, || store2.scan_collect(&filter).len());
    let full_scan = time_best_of(5, || store2.scan_unoptimized_collect(&filter).len());
    println!(
        "{:<24} {:>12.3} ms\n{:<24} {:>12.3} ms ({:.0}x slower)",
        "selective scan (indexed)",
        indexed * 1e3,
        "selective scan (full)",
        full_scan * 1e3,
        full_scan / indexed.max(1e-9)
    );
}
