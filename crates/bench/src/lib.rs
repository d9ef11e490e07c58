//! Shared helpers for the paper-table bins.
//!
//! `crates/bench` is two things. The repo benchmark (`bin/benchmark/`, a
//! package of its own that `BENCHMARK.json` builds) measures performance
//! end to end and layer by layer and uses nothing from this library. The
//! four table bins regenerate one artefact of the paper's evaluation each:
//!
//! * `bin/fig4_table.rs` — Figure 4: per-query execution time of the 19
//!   demo-attack investigation queries, AIQL vs PostgreSQL-style baseline
//!   (both on the optimized storage);
//! * `bin/fig5_table.rs` — Figure 5: the 26 case-study queries, AIQL vs
//!   PostgreSQL-style baseline *without* the storage optimizations vs
//!   Neo4j-style graph baseline;
//! * `bin/ablation_table.rs` — contribution of each design choice (pruning
//!   scheduling, parallelism, semi-join pushdown, temporal
//!   narrowing, dedup, batch size, indexes);
//! * `bin/conciseness.rs` — the §3 conciseness comparison (constraints,
//!   words, characters of AIQL vs generated SQL/Cypher).

#![forbid(unsafe_code)]

use std::time::Instant;

use aiql_engine::ResultTable;
use aiql_sim::{build_store, scenario_case_study, scenario_demo, Scale};
use aiql_storage::{EventStore, StoreConfig};

/// Dataset scale of the table bins: small by default so all four finish in
/// seconds; `AIQL_BENCH_EVENTS` (events per host) scales it.
pub fn bench_scale() -> Scale {
    let events_per_host = std::env::var("AIQL_BENCH_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    Scale {
        hosts: 8,
        events_per_host,
        seed: 0xA1_91,
    }
}

/// Builds the Figure 4 dataset (demo attack).
pub fn fig4_store() -> EventStore {
    build_store(&scenario_demo(bench_scale()), StoreConfig::default())
}

/// Builds the Figure 5 dataset (case study). Slightly smaller by default
/// because the unoptimized baselines are two orders of magnitude slower.
pub fn fig5_store() -> EventStore {
    let mut scale = bench_scale();
    scale.events_per_host = (scale.events_per_host / 2).max(1);
    build_store(&scenario_case_study(scale), StoreConfig::default())
}

/// Times one closure invocation in seconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Best-of-`n` wall time in seconds (first run warms caches).
pub fn time_best_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..n.max(1) {
        let (_, secs) = time_once(&mut f);
        best = best.min(secs);
    }
    best
}

/// log10 with a floor so sub-microsecond timings stay plottable (the paper
/// plots log10 of milliseconds-to-seconds timings).
pub fn log10_secs(secs: f64) -> f64 {
    secs.max(1e-7).log10()
}

/// Sanity guard used by the table binaries: results must be non-empty.
pub fn assert_evidence(id: &str, table: &ResultTable) {
    assert!(
        !table.rows.is_empty(),
        "query {id} found no evidence — dataset/catalog drifted"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_env() {
        let s = bench_scale();
        assert!(s.hosts >= 4);
        assert!(s.events_per_host > 0);
    }

    #[test]
    fn timing_helpers_work() {
        let (v, secs) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(time_best_of(3, || ()) < 1.0);
        assert!(log10_secs(1.0).abs() < 1e-9);
        assert!(log10_secs(0.0) < -6.0);
    }
}
