//! Cross-engine equivalence: the optimized AIQL engine, the relational
//! baseline (with and without optimized storage), and the graph baseline
//! must return identical result sets on every catalog query — the
//! benchmarks then compare pure execution strategy, not semantics. The same
//! catalog must also answer identically whatever the store's physical
//! layout (fragmented, compacted, auto-compacted).

use aiql::baseline::{GraphEngine, RelationalEngine};
use aiql::sim::{
    build_store, case_study_queries, demo_queries, scenario_case_study, scenario_demo, Scale,
};
use aiql::{Engine, EngineConfig, StoreConfig};

fn check_scenario(store: aiql::EventStore, queries: Vec<aiql::sim::CatalogQuery>) {
    let engine = Engine::new(EngineConfig::default());
    let rel_opt = RelationalEngine::new(true);
    let rel_unopt = RelationalEngine::new(false);
    let graph = GraphEngine::build(&store);
    for cq in queries {
        let reference = engine
            .execute_text(&store, &cq.aiql)
            .unwrap_or_else(|e| panic!("{}: {e}", cq.id))
            .normalized();
        let r1 = rel_opt
            .execute_text(&store, &cq.aiql)
            .unwrap_or_else(|e| panic!("{}: {e}", cq.id))
            .normalized();
        assert_eq!(
            reference.rows, r1.rows,
            "{}: relational (optimized storage) diverges",
            cq.id
        );
        let r2 = rel_unopt
            .execute_text(&store, &cq.aiql)
            .unwrap_or_else(|e| panic!("{}: {e}", cq.id))
            .normalized();
        assert_eq!(
            reference.rows, r2.rows,
            "{}: relational (unoptimized storage) diverges",
            cq.id
        );
        let r3 = graph
            .execute_text(&store, &cq.aiql)
            .unwrap_or_else(|e| panic!("{}: {e}", cq.id))
            .normalized();
        assert_eq!(reference.rows, r3.rows, "{}: graph engine diverges", cq.id);
    }
}

#[test]
fn demo_catalog_equivalence() {
    let store = build_store(&scenario_demo(Scale::test()), StoreConfig::default());
    check_scenario(store, demo_queries());
}

#[test]
fn case_study_catalog_equivalence() {
    let store = build_store(&scenario_case_study(Scale::test()), StoreConfig::default());
    check_scenario(store, case_study_queries());
}

#[test]
fn engine_config_ablations_preserve_results() {
    let store = build_store(&scenario_demo(Scale::test()), StoreConfig::default());
    let reference = Engine::new(EngineConfig::default());
    let variants = [
        EngineConfig {
            prioritize_pruning: false,
            ..EngineConfig::default()
        },
        EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        },
        EngineConfig {
            entity_pushdown: false,
            ..EngineConfig::default()
        },
        EngineConfig {
            semi_join_pushdown: false,
            ..EngineConfig::default()
        },
        EngineConfig {
            temporal_narrowing: false,
            ..EngineConfig::default()
        },
        EngineConfig::unoptimized(),
    ];
    for cq in demo_queries() {
        let want = reference
            .execute_text(&store, &cq.aiql)
            .unwrap()
            .normalized();
        for (vi, variant) in variants.iter().enumerate() {
            let engine = Engine::new(variant.clone());
            let got = engine.execute_text(&store, &cq.aiql).unwrap().normalized();
            assert_eq!(want.rows, got.rows, "{} variant {vi} diverges", cq.id);
        }
    }
}

#[test]
fn dedup_off_still_equivalent_for_distinct_queries() {
    // Event dedup merges identical adjacent events; `distinct` projections
    // must be insensitive to it.
    let scenario = scenario_demo(Scale::test());
    let merged = build_store(&scenario, StoreConfig::default());
    let unmerged = build_store(
        &scenario,
        StoreConfig {
            dedup: false,
            ..StoreConfig::default()
        },
    );
    let engine = Engine::new(EngineConfig::default());
    for cq in demo_queries() {
        if !cq.aiql.contains("distinct") {
            continue;
        }
        let a = engine.execute_text(&merged, &cq.aiql).unwrap().normalized();
        let b = engine
            .execute_text(&unmerged, &cq.aiql)
            .unwrap()
            .normalized();
        // Interners differ between stores, so compare rendered rows.
        let ra: Vec<String> = a
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| v.render(merged.interner()))
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        let rb: Vec<String> = b
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| v.render(unmerged.interner()))
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        let mut ra = ra;
        let mut rb = rb;
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb, "{}: dedup changed distinct results", cq.id);
    }
}

#[test]
fn fragmented_compacted_and_auto_layouts_agree_on_the_demo_catalog() {
    // Identical raw stream and commit boundaries (tiny batches, the layout
    // continuous ingest produces); only the physical layout differs.
    let scenario = scenario_demo(Scale::test());
    let layout = |compaction: bool| {
        build_store(
            &scenario,
            StoreConfig {
                batch_size: 64,
                compaction,
                ..StoreConfig::default()
            },
        )
    };
    let fragmented = layout(false);
    let mut compacted = layout(false);
    let report = compacted.compact();
    let auto = layout(true);
    let (frag, dense) = (fragmented.stats(), compacted.stats());
    assert!(
        frag.segments > frag.partitions,
        "tiny-batch ingest must fragment ({} segments / {} partitions)",
        frag.segments,
        frag.partitions
    );
    assert!(report.partitions_compacted > 0);
    assert_eq!(
        dense.segments, dense.partitions,
        "compact() leaves one dense run per partition at the default tier"
    );

    let engine = Engine::new(EngineConfig::default());
    for cq in demo_queries() {
        let want = engine.execute_text(&fragmented, &cq.aiql).unwrap();
        assert!(!want.rows.is_empty(), "{}: no evidence", cq.id);
        for (name, store) in [("compacted", &compacted), ("auto", &auto)] {
            let got = engine.execute_text(store, &cq.aiql).unwrap();
            assert_eq!(
                (&want.rows, want.truncated),
                (&got.rows, got.truncated),
                "{}: {name} layout diverged from fragmented",
                cq.id
            );
        }
    }
}
