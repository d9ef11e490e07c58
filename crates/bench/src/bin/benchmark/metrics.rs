//! The metric names the runner prints — the same names `BENCHMARK.json`
//! declares — and the report a workload fills in.

use std::collections::BTreeMap;

use crate::stats;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the first run's value by which a
    /// second run of the same code may differ (`--aa`), and by which a
    /// later change may worsen it before that counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload is a store life cycle —
/// build it, then query it — so every workload reports every one of these.
///
/// A bound is three times the ten-seed spread (interquartile range over
/// median) measured on this host, and at most the 0.25 the benchmark
/// contract allows. The host is a shared 2-core VM whose speed wanders by
/// 10–40 % over minutes, so every timing ends at 0.25; `peak_rss_mb` would
/// hold 0.05 but for `hunt`, where it moves by a tenth between identical
/// runs. The README beside this file has the measurements. The cold pass
/// and the analyst's latency under the ingest race could not hold 0.25 and
/// are per-layer (`engine.schedule.cold_pass_ms`,
/// `engine.service.latency_p50_ms`), as ISSUE 11 says of such a metric.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("pass_ms", "ms", "lower", 0.25),
    e2e("query_p50_ms", "ms", "lower", 0.25),
    e2e("ingest_events_per_s", "1/s", "higher", 0.25),
    e2e("commit_p50_ms", "ms", "lower", 0.25),
    e2e("resident_bytes_per_event", "B", "lower", 0.01),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Single layers, from the traced run. A layer a workload bypasses reads 0.
pub const PER_LAYER: &[Def] = &[
    layer("lang.parse_us", "us", "lower"),
    layer("engine.analyze.us", "us", "lower"),
    layer("engine.schedule.prepare_cold_us", "us", "lower"),
    layer("engine.schedule.prepare_warm_us", "us", "lower"),
    layer("engine.schedule.plan_cache_hit_share", "share", "higher"),
    layer("engine.schedule.cold_pass_ms", "ms", "lower"),
    layer("engine.op.scan_ms", "ms", "lower"),
    layer("engine.op.scan_rows_in", "count", "lower"),
    layer("engine.op.scan_rows_out", "count", "lower"),
    layer("engine.op.narrow_ms", "ms", "lower"),
    layer("engine.op.join_build_ms", "ms", "lower"),
    layer("engine.op.join_probe_ms", "ms", "lower"),
    layer("engine.op.join_emitted_tuples", "count", "lower"),
    layer("engine.op.join_result_tuples", "count", "higher"),
    layer("engine.op.join_emit_efficiency", "share", "higher"),
    layer("engine.op.join_probe_hit_share", "share", "higher"),
    layer("engine.op.join_bucket_skipped", "count", "higher"),
    layer("engine.op.project_ms", "ms", "lower"),
    layer("engine.op.project_rows_out", "count", "higher"),
    layer("engine.exec.other_ms", "ms", "lower"),
    layer("engine.anomaly.exec_ms", "ms", "lower"),
    layer("engine.query.p99_ms", "ms", "lower"),
    layer("hunt.chain4_count_ms", "ms", "lower"),
    layer("hunt.exfil3_rows_ms", "ms", "lower"),
    layer("hunt.exfil3_distinct_ms", "ms", "lower"),
    layer("engine.pool.pass_ms_t1", "ms", "lower"),
    layer("engine.pool.pass_ms_t2", "ms", "lower"),
    layer("engine.pool.pass_ms_t4", "ms", "lower"),
    layer("engine.pool.parallel_speedup", "x", "higher"),
    layer("engine.governor.overhead_share", "share", "lower"),
    layer("engine.service.queue_wait_p50_us", "us", "lower"),
    layer("engine.service.queue_wait_p99_us", "us", "lower"),
    layer("engine.service.exec_p50_us", "us", "lower"),
    layer("engine.service.overhead_p50_us", "us", "lower"),
    layer("engine.service.latency_p50_ms", "ms", "lower"),
    layer("engine.service.latency_p99_ms", "ms", "lower"),
    layer("engine.service.completed", "count", "higher"),
    layer("engine.service.shed", "count", "lower"),
    layer("engine.service.degraded", "count", "lower"),
    layer("storage.ingest.resolve_us_per_event", "us", "lower"),
    layer("storage.ingest.entity_dedup_share", "share", "higher"),
    layer("storage.ingest.event_dedup_share", "share", "higher"),
    layer("storage.commit.us_per_event", "us", "lower"),
    layer("storage.commit.commits", "count", "lower"),
    layer("storage.commit.segments", "count", "lower"),
    layer("storage.commit.novelty_flushes", "count", "lower"),
    layer("storage.wal.append_us_per_event", "us", "lower"),
    layer("storage.wal.commit_us_per_batch", "us", "lower"),
    layer("storage.wal.bytes_per_event", "B", "lower"),
    layer("storage.wal.replay_ms", "ms", "lower"),
    layer("storage.shared.publish_us_per_batch", "us", "lower"),
    layer("storage.shared.pin_us", "us", "lower"),
    layer("storage.shared.reader_stalls", "count", "lower"),
    layer("storage.shared.commit_p99_ms", "ms", "lower"),
    layer("storage.compact.explicit_ms", "ms", "lower"),
    layer("storage.compact.segments_before", "count", "lower"),
    layer("storage.compact.segments_after", "count", "lower"),
    layer("storage.snapshot.save_ms", "ms", "lower"),
    layer("storage.snapshot.load_ms", "ms", "lower"),
    layer("storage.snapshot.bytes_per_event", "B", "lower"),
    layer("storage.recovery.recover_s", "s", "lower"),
    layer("storage.recovery.reingest_ms", "ms", "lower"),
    layer("storage.stats.event_bytes_per_event", "B", "lower"),
    layer("storage.stats.dict_bytes_per_entity", "B", "lower"),
    layer("storage.stats.durable_bytes_per_event", "B", "lower"),
    layer("baseline.relational_pass_ms", "ms", "lower"),
    layer("baseline.relational_unopt_pass_ms", "ms", "lower"),
    layer("baseline.graph_build_ms", "ms", "lower"),
    layer("baseline.graph_pass_ms", "ms", "lower"),
    layer("baseline.relational_speedup", "x", "higher"),
    layer("baseline.graph_speedup", "x", "higher"),
    layer("harness.trace_overhead_share", "share", "lower"),
    layer("harness.reader_max_late_ms", "ms", "lower"),
    layer("harness.warmup_s", "s", "lower"),
];

pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// For timings: the highest percentile the sample supports.
    pub tail: Option<(f64, f64)>,
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Digest of every query's result, as the rows of a `golden.rs` table.
    pub digests: Vec<(&'static str, u64)>,
    pub provenance: Vec<(&'static str, String)>,
}

impl Report {
    /// Records a value computed from `n` samples. Only declared names can
    /// be reported, so the output and `BENCHMARK.json` cannot drift.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(def(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(
            name,
            Metric {
                value,
                n,
                tail: None,
            },
        );
    }

    /// Records the median of `samples` and the highest percentile they
    /// support. No samples, no metric.
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(value) = stats::median(samples) {
            self.set(name, value, samples.len());
            if let Some(m) = self.metrics.get_mut(name) {
                m.tail = stats::highest_tail(samples);
            }
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }
}
