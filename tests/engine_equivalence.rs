//! Cross-engine equivalence: the optimized AIQL engine, the relational
//! baseline (with and without optimized storage), and the graph baseline
//! must return identical result sets on every catalog query — the
//! benchmarks then compare pure execution strategy, not semantics — and on
//! the benchmark's `hunt` joins. The same catalog must also answer
//! identically whatever the store's physical layout (fragmented,
//! compacted, auto-compacted).

use aiql::baseline::{GraphEngine, RelationalEngine};
use aiql::sim::{
    build_store, case_study_queries, demo_queries, scenario_case_study, scenario_demo, Scale,
};
use aiql::{parse_query, Ablation, Engine, EngineConfig, Query, StoreConfig};

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
    let on = Ablation::default();
    let ablated = |ablation| EngineConfig {
        ablation,
        ..EngineConfig::default()
    };
    let variants = [
        ablated(Ablation {
            prioritize_pruning: false,
            ..on
        }),
        EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        },
        ablated(Ablation {
            entity_pushdown: false,
            ..on
        }),
        ablated(Ablation {
            semi_join_pushdown: false,
            ..on
        }),
        ablated(Ablation {
            temporal_narrowing: false,
            ..on
        }),
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
    // A bare store that defers its merges has nobody to drain them: it
    // keeps one sealed segment per commit.
    let layout = |deferred: bool| {
        build_store(
            &scenario,
            StoreConfig {
                batch_size: 16,
                background_compaction: deferred,
                ..StoreConfig::default()
            },
        )
    };
    let fragmented = layout(true);
    let mut compacted = layout(true);
    let report = compacted.compact();
    let auto = layout(false);
    let (frag, dense, merged) = (fragmented.stats(), compacted.stats(), auto.stats());
    assert!(
        frag.segments > frag.partitions,
        "tiny-batch ingest must fragment ({} segments / {} partitions)",
        frag.segments,
        frag.partitions
    );
    assert!(
        frag.max_partition_segments >= 4 && merged.max_partition_segments < 4,
        "the commit-time trigger must fire ({} vs {} segments at most)",
        frag.max_partition_segments,
        merged.max_partition_segments
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

/// The repo benchmark's `hunt` joins — a counted 4-chain, the
/// exfiltration 3-chain's rows and its id-keyed `distinct` — on a small
/// demo store: the engine equals the relational baseline at one and two
/// threads, and the join memo engages exactly where the projection sees
/// the last levels only in aggregate (`chain4_count`, `exfil3_distinct`),
/// never for plain rows (`exfil3_rows`). At one thread each join's memo
/// hits, misses and per-level rows are pinned to their exact counts.
#[test]
fn hunt_shapes_equal_the_relational_baseline_with_the_memo_where_it_applies() {
    const EXFIL3: &str = "proc p1 write file f as e1
        proc p2 read file f as e2
        proc p2 write file f2 as e3
        with e1 before[30 min] e2, e2 before[30 min] e3\n";
    let chain4 = "proc p1 write file f as e1
        proc p2 read file f as e2
        proc p2 write file f2 as e3
        proc p3 read file f2 as e4
        with e1 before[20 min] e2, e2 before[20 min] e3, e3 before[20 min] e4
        return count(e4.amount)";
    let scale = Scale {
        hosts: 4,
        events_per_host: 2_000,
        seed: 7,
    };
    let store = build_store(&scenario_demo(scale), StoreConfig::default());
    let relational = RelationalEngine::new(true);
    // At `parallelism: 1`, each join's exact per-level (memo hits, memo
    // misses, rows out) and emitted tuples: the memo's work, pinned.
    type Pinned = (&'static [(u64, u64, usize)], u64);
    let pins: [(&str, String, bool, Pinned); 3] = [
        (
            "chain4_count",
            chain4.to_string(),
            true,
            (
                &[(0, 0, 1465), (0, 0, 938), (285, 653, 916), (304, 612, 910)],
                4229,
            ),
        ),
        (
            "exfil3_rows",
            format!("{EXFIL3}return p1, p2, f2"),
            false,
            (&[(0, 0, 1465), (0, 0, 1375), (0, 0, 2864)], 5704),
        ),
        (
            "exfil3_distinct",
            format!("{EXFIL3}return distinct p1, f2"),
            true,
            (&[(0, 0, 1465), (0, 0, 1375), (526, 849, 2864)], 5704),
        ),
    ];
    for (id, text, memoised, pinned) in pins {
        let want = relational.execute_text(&store, &text).unwrap().normalized();
        assert!(!want.rows.is_empty(), "{id}: no rows to compare");
        let Ok(Query::Multievent(m)) = parse_query(&text) else {
            panic!("{id} is a multievent query")
        };
        for parallelism in [1, 2] {
            let engine = Engine::new(EngineConfig {
                parallelism,
                ..EngineConfig::default()
            });
            let (got, stats) = engine.execute_multievent_with_stats(&store, &m).unwrap();
            assert_eq!(got.normalized().rows, want.rows, "{id} at {parallelism}");
            let join = stats.ops.iter().find(|o| o.kind == "TemporalJoin").unwrap();
            let hits: u64 = join.join_steps.iter().map(|s| s.memo_hits).sum();
            assert_eq!(
                hits > 0,
                memoised,
                "{id} at {parallelism}: {hits} memo hits"
            );
            if parallelism == 1 {
                let levels: Vec<(u64, u64, usize)> = (join.join_steps.iter())
                    .map(|s| (s.memo_hits, s.memo_misses, s.rows_out))
                    .collect();
                assert_eq!(
                    (levels.as_slice(), join.emitted_tuples),
                    pinned,
                    "{id}: per-level (memo hits, memo misses, rows out) and emitted tuples"
                );
            }
        }
    }
}
