//! PR 4 perf trajectory: partition segment compaction, measured as a
//! fragmented-vs-compacted ablation.
//!
//! The store is ingested with `batch_size = 256` and automatic compaction
//! disabled, so every partition fragments into one sealed segment per
//! commit — the layout continuous tiny-batch ingest produces. The
//! compacted store is built from the *identical* raw stream and commit
//! boundaries, then densified with `EventStore::compact()`. Three scenario
//! families run on both layouts:
//!
//! * `a5` — the selective a5-5 catalog investigation (entity postings);
//! * `a2` — the a2-3 catalog investigation (multi-pattern, dictionary);
//! * `multievent` — the 4-pattern chain (join-dominated, exercises the
//!   sharded parallel index build and flat-row accessors per probe).
//!
//! Emits `BENCH_PR4.json` (path via argv[1], default `BENCH_PR4.json`).
//! Pass `--check` for the single-iteration correctness mode used by CI:
//! fragmented, compacted, and auto-compacted stores must return
//! byte-identical tables under every engine data path, `compact()` must
//! reduce segments-per-partition to the configured tier, and a cached plan
//! over uncompacted partitions must survive a compaction elsewhere.

use std::fmt::Write as _;

use aiql_bench::{bench_scale, push_host_meta, time_best_of};
use aiql_engine::{Engine, EngineConfig};
use aiql_model::{AgentId, Operation, Timestamp};
use aiql_sim::{build_store, demo_queries, scenario_demo};
use aiql_storage::{EntitySpec, EventStore, RawEvent, StoreConfig};

/// Tiny-batch ingest: the fragmentation regime the tentpole targets.
const FRAGMENT_BATCH: usize = 256;

/// The join-dominated chain family (same shape as the PR 2/3 chains).
const CHAIN_QUERY: &str = r#"proc p1 write file f as e1
proc p2 read file f as e2
proc p2 write file f2 as e3
proc p3 read file f2 as e4
with e1 before e2, e2 before e3, e3 before e4
return count(e4.amount)"#;

fn catalog_query(id: &str) -> String {
    demo_queries()
        .into_iter()
        .find(|q| q.id == id)
        .unwrap_or_else(|| panic!("catalog query {id} exists"))
        .aiql
}

fn store_config(compaction: bool) -> StoreConfig {
    StoreConfig {
        batch_size: FRAGMENT_BATCH,
        compaction,
        ..StoreConfig::default()
    }
}

/// Warm cache on a day-0 query over a dense partition, compact the
/// fragmented day-2 partition, and assert the cached plan survived.
/// Returns (hits, misses) for the JSON record.
fn assert_cache_survives_compaction() -> (u64, u64) {
    let mut store = EventStore::new(StoreConfig {
        compaction: false,
        dedup: false,
        ..StoreConfig::default()
    });
    store.ingest_all(&[RawEvent::instant(
        AgentId(1),
        Operation::Write,
        EntitySpec::process(7, "svc.exe", "svc"),
        EntitySpec::file("/day0/data", "svc"),
        Timestamp::from_secs(60),
        5,
    )]);
    for i in 0..6 {
        store.ingest_all(&[RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(7, "svc.exe", "svc"),
            EntitySpec::file("/day2/data", "svc"),
            Timestamp::from_secs(2 * 86_400 + i * 60),
            5,
        )]);
    }
    let engine = Engine::new(EngineConfig::default());
    let query = r#"(at "01/01/1970") proc p["%svc.exe"] write file f as e return p, f"#;
    let first = engine.execute_text(&store, query).expect("day-0 query");
    assert!(!first.rows.is_empty(), "cache workload must find evidence");
    engine.execute_text(&store, query).expect("day-0 query");
    let (h1, m1) = engine.plan_cache_counters();
    assert!(h1 > 0 && m1 > 0);
    let report = store.compact();
    assert_eq!(report.partitions_compacted, 1, "only day 2 is fragmented");
    let again = engine.execute_text(&store, query).expect("day-0 query");
    let (h2, m2) = engine.plan_cache_counters();
    assert_eq!(again.rows, first.rows, "day-0 results unchanged");
    assert!(
        h2 > h1,
        "cached plan must survive compaction of unread partitions"
    );
    assert_eq!(m2, m1, "compaction elsewhere must not recompute entries");
    (h2, m2)
}

fn main() {
    let arg = std::env::args().nth(1);
    let check_mode = arg.as_deref() == Some("--check");
    let out_path = if check_mode {
        String::new()
    } else {
        arg.unwrap_or_else(|| "BENCH_PR4.json".to_string())
    };
    let reps: usize = if check_mode {
        1
    } else {
        std::env::var("AIQL_BENCH_REPS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(5)
    };

    let scenario = scenario_demo(bench_scale());
    eprintln!(
        "building stores ({} raw events, batch {FRAGMENT_BATCH})...",
        scenario.raws.len()
    );
    let fragmented: EventStore = build_store(&scenario, store_config(false));
    let mut compacted: EventStore = build_store(&scenario, store_config(false));
    let report = compacted.compact();
    let auto: EventStore = build_store(&scenario, store_config(true));
    let frag_stats = fragmented.stats();
    let dense_stats = compacted.stats();
    assert!(
        frag_stats.segments > frag_stats.partitions,
        "tiny-batch ingest must fragment ({} segments / {} partitions)",
        frag_stats.segments,
        frag_stats.partitions
    );
    assert_eq!(
        dense_stats.segments, dense_stats.partitions,
        "compact() must reduce every partition to one dense run at the default tier"
    );
    assert!(report.partitions_compacted > 0);
    eprintln!("fragmented: {}", frag_stats.summary());
    eprintln!("compacted:  {}", dense_stats.summary());

    let families: Vec<(&str, String)> = vec![
        ("a5/catalog-a5-5", catalog_query("a5-5")),
        ("a2/catalog-a2-3", catalog_query("a2-3")),
        ("multievent/4pattern-chain", CHAIN_QUERY.to_string()),
    ];

    // Correctness gate (both modes): the three layouts must return
    // byte-identical tables on every family, across the engine data paths.
    let engine = Engine::new(EngineConfig::default());
    for (name, aiql) in &families {
        let want = engine.execute_text(&fragmented, aiql).expect("fragmented");
        assert!(!want.rows.is_empty(), "{name}: query must find evidence");
        for (layout, store) in [("compacted", &compacted), ("auto", &auto)] {
            let got = engine.execute_text(store, aiql).expect(layout);
            assert_eq!(
                (&want.rows, want.truncated),
                (&got.rows, got.truncated),
                "{name}: {layout} layout diverged from fragmented"
            );
        }
    }
    if check_mode {
        // Sweep the engine on the chain family: the flat-row accessors
        // and the sharded join-index build must be layout-invariant,
        // serial and fanned out, plan cache on and off.
        for flags in 0u32..4 {
            let e = Engine::new(EngineConfig {
                parallelism: if flags & 1 != 0 { 2 } else { 1 },
                join_partitions: 3,
                plan_cache: flags & 2 != 0,
                ..EngineConfig::default()
            });
            let want = e.execute_text(&fragmented, CHAIN_QUERY).expect("chain");
            for store in [&compacted, &auto] {
                let got = e.execute_text(store, CHAIN_QUERY).expect("chain");
                assert_eq!(
                    (&want.rows, want.truncated),
                    (&got.rows, got.truncated),
                    "flags {flags:03b}: layouts diverged"
                );
            }
        }
    }
    let (cache_hits, cache_misses) = assert_cache_survives_compaction();

    if check_mode {
        println!(
            "pr4_compaction --check OK: fragmented ({} segs) / compacted ({} segs) / auto layouts \
             byte-identical on {} families (+ 4 engine configurations), plan cache survived \
             compaction of unread partitions ({cache_hits} hits / {cache_misses} misses)",
            frag_stats.segments,
            dense_stats.segments,
            families.len()
        );
        return;
    }

    // Timing: per family, the same default engine on both layouts. Fresh
    // engines per layout so plan caches don't leak between stores.
    struct Row {
        name: &'static str,
        fragmented_ms: f64,
        compacted_ms: f64,
        rows: usize,
        join_build_ms: f64,
        join_probe_ms: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (name, aiql) in &families {
        let frag_engine = Engine::new(EngineConfig::default());
        let dense_engine = Engine::new(EngineConfig::default());
        // Warm pools + caches the same way on both layouts.
        let nrows = frag_engine
            .execute_text(&fragmented, aiql)
            .expect("q")
            .len();
        dense_engine.execute_text(&compacted, aiql).expect("q");
        let frag_s = time_best_of(reps, || {
            frag_engine
                .execute_text(&fragmented, aiql)
                .expect("q")
                .len()
        });
        let dense_s = time_best_of(reps, || {
            dense_engine
                .execute_text(&compacted, aiql)
                .expect("q")
                .len()
        });
        // Join build/probe split on the compacted layout (0 for
        // single-pattern families whose join degenerates).
        let (mut build_ms, mut probe_ms) = (0.0, 0.0);
        if let Ok(aiql_lang::Query::Multievent(m)) = aiql_lang::parse_query(aiql) {
            if let Ok((_, stats)) = dense_engine.execute_multievent_with_stats(&compacted, &m) {
                if let Some(join) = stats.ops.iter().find(|o| o.kind == "TemporalJoin") {
                    build_ms = join.build_nanos as f64 / 1e6;
                    probe_ms = join.probe_nanos as f64 / 1e6;
                }
            }
        }
        eprintln!(
            "{name}: fragmented {:.3} ms, compacted {:.3} ms ({:.2}×), {nrows} row(s)",
            frag_s * 1e3,
            dense_s * 1e3,
            frag_s / dense_s.max(1e-9)
        );
        rows.push(Row {
            name,
            fragmented_ms: frag_s * 1e3,
            compacted_ms: dense_s * 1e3,
            rows: nrows,
            join_build_ms: build_ms,
            join_probe_ms: probe_ms,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"pr\": 4,");
    let _ = writeln!(
        json,
        "  \"title\": \"partition segment compaction: fragmented vs compacted query ablation\","
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"events\": {}, \"batch_size\": {FRAGMENT_BATCH}, \"fragmented_segments\": {}, \"compacted_segments\": {}, \"partitions\": {}, \"max_segments_per_partition_fragmented\": {}}},",
        frag_stats.events,
        frag_stats.segments,
        dense_stats.segments,
        frag_stats.partitions,
        frag_stats.max_partition_segments,
    );
    push_host_meta(&mut json, EngineConfig::default().parallelism);
    let _ = writeln!(json, "  \"reps_best_of\": {reps},");
    let _ = writeln!(
        json,
        "  \"note\": \"identical raw stream and commit boundaries on both layouts; results asserted byte-identical before timing\","
    );
    let _ = writeln!(
        json,
        "  \"plan_cache\": {{\"survives_compaction_of_unread_partitions\": true, \"hits\": {cache_hits}, \"misses\": {cache_misses}}},"
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.fragmented_ms / r.compacted_ms.max(1e-9);
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"fragmented_ms\": {:.3}, \"compacted_ms\": {:.3}, \"speedup\": {:.2}, \"result_rows\": {}, \"join_build_ms\": {:.3}, \"join_probe_ms\": {:.3}}}",
            r.name, r.fragmented_ms, r.compacted_ms, speedup, r.rows, r.join_build_ms, r.join_probe_ms
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_PR4.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
