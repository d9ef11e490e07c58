//! Persistence: WAL replay and snapshot reload must reconstruct stores that
//! answer every investigation query identically.

use aiql::sim::{build_store, demo_queries, scenario_demo, Scale};
use aiql::storage::{snapshot, Wal};
use aiql::{Engine, EngineConfig, EventStore, StoreConfig};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aiql-it-{}-{}", std::process::id(), name));
    p
}

fn rendered_rows(store: &EventStore, table: &aiql::ResultTable) -> Vec<String> {
    let mut rows: Vec<String> = table
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| v.render(store.interner()))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn wal_replay_rebuilds_an_equivalent_store() {
    let scenario = scenario_demo(Scale::test());
    let path = tmp("wal");

    // Agents stream to the WAL before commit.
    let mut wal = Wal::create(&path).unwrap();
    for raw in &scenario.raws {
        wal.append(raw).unwrap();
    }
    wal.flush().unwrap();
    drop(wal);

    // Crash. Recover by replaying the WAL into a fresh store.
    let replayed = Wal::replay(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(replayed.len(), scenario.raws.len());
    let mut recovered = EventStore::new(StoreConfig::default());
    recovered.ingest_all(&replayed);

    let original = build_store(&scenario, StoreConfig::default());
    let engine = Engine::new(EngineConfig::default());
    for cq in demo_queries() {
        let a = engine.execute_text(&original, &cq.aiql).unwrap();
        let b = engine.execute_text(&recovered, &cq.aiql).unwrap();
        assert_eq!(
            rendered_rows(&original, &a),
            rendered_rows(&recovered, &b),
            "{} diverges after WAL recovery",
            cq.id
        );
    }
}

#[test]
fn snapshot_reload_answers_identically() {
    let scenario = scenario_demo(Scale::test());
    let store = build_store(&scenario, StoreConfig::default());
    let path = tmp("snapshot");
    snapshot::save(&store, &path).unwrap();
    let loaded = snapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(store.event_count(), loaded.event_count());
    assert_eq!(store.entities().len(), loaded.entities().len());
    let engine = Engine::new(EngineConfig::default());
    for cq in demo_queries() {
        let a = engine.execute_text(&store, &cq.aiql).unwrap();
        let b = engine.execute_text(&loaded, &cq.aiql).unwrap();
        assert_eq!(
            rendered_rows(&store, &a),
            rendered_rows(&loaded, &b),
            "{} diverges after snapshot reload",
            cq.id
        );
    }
}

#[test]
fn checkpoint_plus_log_recovery() {
    // The classic pattern: snapshot at time T, WAL for the tail after T.
    let scenario = scenario_demo(Scale::test());
    let split = scenario.raws.len() / 2;
    let (head, tail) = scenario.raws.split_at(split);

    let mut head_store = EventStore::new(StoreConfig::default());
    head_store.ingest_all(head);
    let snap_path = tmp("ckpt-snap");
    snapshot::save(&head_store, &snap_path).unwrap();

    let wal_path = tmp("ckpt-wal");
    let mut wal = Wal::create(&wal_path).unwrap();
    for raw in tail {
        wal.append(raw).unwrap();
    }
    wal.flush().unwrap();
    drop(wal);

    // Recover: load checkpoint, replay log tail.
    let mut recovered = snapshot::load(&snap_path).unwrap();
    for raw in Wal::replay(&wal_path).unwrap() {
        recovered.ingest(&raw);
    }
    recovered.commit();
    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&wal_path).ok();

    let full = build_store(&scenario, StoreConfig::default());
    assert_eq!(recovered.event_count(), full.event_count());

    let engine = Engine::new(EngineConfig::default());
    let probe =
        r#"(at "03/19/2018") agentid = 2 proc p write file f["%backup1.dmp"] as e return p, f"#;
    let a = engine.execute_text(&full, probe).unwrap();
    let b = engine.execute_text(&recovered, probe).unwrap();
    assert_eq!(rendered_rows(&full, &a), rendered_rows(&recovered, &b));
}

#[test]
fn loaded_store_starts_a_cold_plan_cache() {
    // A snapshot carries no epochs: the loaded store is another store, so
    // a warm engine resolves its first query afresh, and answers the same.
    let scenario = scenario_demo(Scale::test());
    let store = build_store(&scenario, StoreConfig::default());
    let engine = Engine::new(EngineConfig::default());
    let probe = r#"(at "03/19/2018") agentid = 2 proc p write file f as e return distinct p, f"#;
    let warm = engine.execute_text(&store, probe).unwrap();
    assert_eq!(engine.execute_text(&store, probe).unwrap(), warm);
    let (hits, misses) = engine.plan_cache_counters();
    assert!(hits > 0, "the repeat query hits the warm cache");

    let path = tmp("cold-cache");
    snapshot::save(&store, &path).unwrap();
    let loaded = snapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_ne!(loaded.store_id(), store.store_id());

    let cold = engine.execute_text(&loaded, probe).unwrap();
    let (hits_after, misses_after) = engine.plan_cache_counters();
    assert_eq!(hits_after, hits, "no entry survives into the loaded store");
    assert!(misses_after > misses);
    assert_eq!(cold, warm);
}
