//! The four workloads. Each is one store life cycle — build it, query it —
//! and they differ in which path builds the store and which path queries
//! it, so that a change to one layer moves some workloads and not others:
//!
//! | workload | build path | query path |
//! |---|---|---|
//! | `investigate` | bare store, two scenario days | the 45-query catalog, one analyst, closed loop |
//! | `hunt` | bare store, one small day | three constraint-free join queries, closed loop |
//! | `serve_under_ingest` | WAL + `SharedStore`, 512-event batches, racing the queries | open loop through `QueryService`, then the catalog on the store left behind |
//! | `bulk_load` | WAL + bare store, 8 192-event batches, then `recover` | the catalog on the recovered store |
//!
//! Everything is measured from outside, by timing calls into public
//! functions and reading the statistics they already return, under
//! production defaults.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use aiql_baseline::{GraphEngine, RelationalEngine};
use aiql_engine::exec::ExecStats;
use aiql_engine::schedule::{self, PlanCache};
use aiql_engine::{
    analyze_multievent, Engine, EngineConfig, EngineError, ExecBudget, QueryService, ResultTable,
    ServiceConfig,
};
use aiql_lang::{dependency_to_multievent, parse_query, Query};
use aiql_sim::{case_study_queries, demo_queries, scenario_case_study, scenario_demo, Scale};
use aiql_storage::{
    recover, snapshot, EventStore, RawEvent, SharedStore, StoreConfig, StoreStats, Wal, WalError,
};

use crate::golden::{self, Gate};
use crate::metrics::Report;
use crate::stats::{self, OpenLoop, Samples};
use crate::trace::{SpanId, Tracer, NO_SPAN};

/// The seed the golden digests were taken at.
pub const DEFAULT_SEED: u64 = 0xA191;

/// Set-up work — generating the inputs, building the set-up store — is
/// repeated at least this many times per run, and the builds for at least
/// [`BUILD_FLOOR`], so that `setup_s` and the set-up build rate are medians
/// of several samples also where one build takes a tenth of a second.
const SETUPS: usize = 5;
const BUILD_FLOOR: Duration = Duration::from_secs(2);
/// Monitored hosts in every scenario.
const HOSTS: u32 = 8;
/// Events per commit while the store races the queries: the cadence at
/// which monitoring agents ship.
const SERVE_BATCH: usize = 512;
/// Events per commit on the bulk path (`StoreConfig::batch_size`'s default).
const BULK_BATCH: usize = 8192;
/// Open-loop query rate of the one analyst session, per second.
const SERVE_QUERY_RATE: u32 = 250;
/// Query rounds on the store each cycle of an ingest workload leaves.
const CYCLE_ROUNDS: Rounds = Rounds {
    warmups: 1,
    min: 4,
    budget: Duration::ZERO,
};
/// Files a run leaves in its scratch directory, removed when it ends.
const WAL_FILE: &str = "ingest.wal";
const SNAPSHOT_FILE: &str = "store.snap";
/// WAL durability policy of both ingest workloads, stated in every output.
const WAL_FLUSH_POLICY: &str = "flush to OS at each batch commit, no fsync";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Investigate,
    Hunt,
    ServeUnderIngest,
    BulkLoad,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Investigate,
        Kind::Hunt,
        Kind::ServeUnderIngest,
        Kind::BulkLoad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Investigate => "investigate",
            Kind::Hunt => "hunt",
            Kind::ServeUnderIngest => "serve_under_ingest",
            Kind::BulkLoad => "bulk_load",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Background events per host and day at full scale.
    fn events_per_host(self) -> usize {
        match self {
            Kind::Hunt => 10_000,
            _ => 50_000,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Params {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the timed part.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke scale: a tenth of the events, the fewest repetitions, for the
    /// correctness gate alone.
    pub quick: bool,
    /// Directory for WAL and snapshot files, inside the checkout.
    pub scratch: PathBuf,
}

impl Params {
    fn scale(&self) -> Scale {
        let per_host = self.kind.events_per_host();
        Scale {
            hosts: HOSTS,
            events_per_host: if self.quick { per_host / 10 } else { per_host },
            seed: self.seed,
        }
    }

    /// Length of the timed part; the smoke scale does the fewest rounds.
    fn budget(&self) -> Duration {
        Duration::from_secs_f64(if self.quick { 0.0 } else { self.seconds })
    }

    fn golden(&self) -> Option<&'static [(&'static str, u64)]> {
        (self.seed == DEFAULT_SEED && !self.quick).then(|| golden::golden(self.kind))
    }
}

/// One query of a workload's list.
#[derive(Debug, Clone)]
pub struct QueryEntry {
    pub id: &'static str,
    pub text: String,
    /// Anomaly queries run a different executor and are reported apart.
    pub anomaly: bool,
}

fn entry(id: &'static str, text: String) -> QueryEntry {
    let anomaly = matches!(parse_query(&text), Ok(Query::Anomaly(_)));
    QueryEntry { id, text, anomaly }
}

fn catalog(kind: Kind) -> Vec<QueryEntry> {
    let mut queries = demo_queries();
    match kind {
        Kind::Investigate => queries.extend(case_study_queries()),
        Kind::Hunt => return hunt_queries(),
        Kind::ServeUnderIngest | Kind::BulkLoad => {}
    }
    queries.into_iter().map(|q| entry(q.id, q.aiql)).collect()
}

/// Three joins with no entity constraint to prune by. All stay under the
/// engine's intermediate-tuple cap, so their answers are checkable.
fn hunt_queries() -> Vec<QueryEntry> {
    const EXFIL3: &str = "proc p1 write file f as e1\n\
        proc p2 read file f as e2\n\
        proc p2 write file f2 as e3\n\
        with e1 before[30 min] e2, e2 before[30 min] e3\n";
    vec![
        entry(
            "chain4_count",
            "proc p1 write file f as e1\n\
             proc p2 read file f as e2\n\
             proc p2 write file f2 as e3\n\
             proc p3 read file f2 as e4\n\
             with e1 before[20 min] e2, e2 before[20 min] e3, e3 before[20 min] e4\n\
             return count(e4.amount)"
                .to_string(),
        ),
        entry("exfil3_rows", format!("{EXFIL3}return p1, p2, f2")),
        entry("exfil3_distinct", format!("{EXFIL3}return distinct p1, f2")),
    ]
}

fn hunt_metric(id: &str) -> Option<&'static str> {
    match id {
        "chain4_count" => Some("hunt.chain4_count_ms"),
        "exfil3_rows" => Some("hunt.exfil3_rows_ms"),
        "exfil3_distinct" => Some("hunt.exfil3_distinct_ms"),
        _ => None,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

// ---------------------------------------------------------------- measuring

/// Nanoseconds the traced run clocks inside the build path, by layer.
#[derive(Debug, Default)]
struct IngestClock {
    events: u64,
    resolve_ns: u64,
    commit_ns: u64,
    wal_events: u64,
    wal_batches: u64,
    wal_append_ns: u64,
    wal_commit_ns: u64,
    shared_batches: u64,
    publish_ns: u64,
}

/// Where measurements go. Discarded work is given one that is thrown away.
struct Meter {
    tr: Tracer,
    samples: Samples,
    clock: IngestClock,
}

impl Meter {
    fn new(trace: bool) -> Self {
        Meter {
            tr: Tracer::new(trace, Instant::now(), "main"),
            samples: Samples::default(),
            clock: IngestClock::default(),
        }
    }
}

// ---------------------------------------------------------------- build side

/// Ingests one batch (at most `StoreConfig::batch_size` events) and commits
/// it, as `EventStore::ingest_all` does. The traced run clocks dictionary
/// resolution — every `ingest` but the last — apart from the commit.
fn ingest_batch(
    store: &mut EventStore,
    batch: &[RawEvent],
    tr: &mut Tracer,
    parent: SpanId,
    op: u64,
    clock: &mut IngestClock,
) {
    if !tr.is_on() {
        store.ingest_all(batch);
        return;
    }
    let (head, last) = batch.split_at(batch.len().saturating_sub(1));
    let span = tr.begin("storage.ingest.resolve", parent, op);
    for raw in head {
        store.ingest(raw);
    }
    clock.resolve_ns += tr.end(span);
    let span = tr.begin("storage.commit", parent, op);
    store.ingest_all(last);
    clock.commit_ns += tr.end(span);
    clock.events += batch.len() as u64;
}

/// Builds a bare store from whole days of events, a day at a time. A batch
/// is visible to readers of a bare store when `ingest_all` returns.
fn build_store(config: StoreConfig, days: &[impl AsRef<[RawEvent]>], m: &mut Meter) -> EventStore {
    let mut store = EventStore::new(config);
    let span = m.tr.begin("build", NO_SPAN, 0);
    for day in days {
        for (i, batch) in day.as_ref().chunks(BULK_BATCH).enumerate() {
            let arrived = Instant::now();
            ingest_batch(&mut store, batch, &mut m.tr, span, i as u64, &mut m.clock);
            m.samples.push("commit_ms", ms(arrived.elapsed()));
        }
    }
    m.tr.end(span);
    store
}

/// Appends one batch to the WAL and commits it (flush to the OS).
fn wal_batch(
    wal: &mut Wal,
    batch: &[RawEvent],
    tr: &mut Tracer,
    parent: SpanId,
    op: u64,
    clock: &mut IngestClock,
) -> Result<(), WalError> {
    let span = tr.begin("storage.wal.append", parent, op);
    for raw in batch {
        wal.append(raw)?;
    }
    clock.wal_append_ns += tr.end(span);
    let span = tr.begin("storage.wal.commit", parent, op);
    wal.commit()?;
    clock.wal_commit_ns += tr.end(span);
    if tr.is_on() {
        clock.wal_events += batch.len() as u64;
        clock.wal_batches += 1;
    }
    Ok(())
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

// ---------------------------------------------------------------- query side

/// One untraced pass over the list through `Engine::execute_text`, each
/// query clocked on its own; the pass time is their sum, so checking the
/// answers costs the measurement nothing. Returns the pass time in ms.
fn plain_pass(
    engine: &Engine,
    store: &EventStore,
    list: &[QueryEntry],
    gate: &mut Gate,
    full_check: bool,
    mut each: impl FnMut(&QueryEntry, f64),
) -> f64 {
    let mut total = 0.0;
    for (i, q) in list.iter().enumerate() {
        let started = Instant::now();
        let result = engine.execute_text(store, std::hint::black_box(&q.text));
        let took = ms(started.elapsed());
        total += took;
        each(q, took);
        gate.observe(i, q.id, &result, store, full_check);
    }
    total
}

/// Per-pass sums of what the operators report.
#[derive(Debug, Default)]
struct OpSums {
    scan_ns: u64,
    scan_rows_in: u64,
    scan_rows_out: u64,
    narrow_ns: u64,
    join_build_ns: u64,
    join_probe_ns: u64,
    join_emitted: u64,
    join_result: u64,
    /// Result tuples of the joins that report what they emitted.
    join_driven_result: u64,
    join_probes: u64,
    join_probe_hits: u64,
    join_bucket_skipped: u64,
    project_ns: u64,
    project_rows_out: u64,
    other_ns: u64,
    anomaly_ns: u64,
}

impl OpSums {
    /// Adds one execution's operators; returns them as derived spans.
    fn add(&mut self, stats: &ExecStats) -> Vec<(&'static str, u64)> {
        let mut derived = Vec::with_capacity(stats.ops.len());
        for op in &stats.ops {
            let name = match op.kind {
                "PatternScan" => {
                    self.scan_ns += op.nanos;
                    self.scan_rows_in += op.rows_in as u64;
                    self.scan_rows_out += op.rows_out as u64;
                    "engine.op.scan"
                }
                "SemiJoinNarrow" => {
                    self.narrow_ns += op.nanos;
                    "engine.op.narrow"
                }
                "TemporalJoin" => {
                    self.join_build_ns += op.build_nanos;
                    self.join_probe_ns += op.probe_nanos;
                    self.join_result += op.rows_out as u64;
                    if op.runs_driven > 0 {
                        self.join_emitted += op.emitted_tuples;
                        self.join_driven_result += op.rows_out as u64;
                    }
                    self.join_probe_hits += op.probe_hits;
                    self.join_bucket_skipped += op.bucket_skipped;
                    self.join_probes += op.join_steps.iter().map(|s| s.probes).sum::<u64>();
                    "engine.op.join"
                }
                _ => {
                    self.project_ns += op.nanos;
                    self.project_rows_out += op.rows_out as u64;
                    "engine.op.project"
                }
            };
            derived.push((name, op.nanos));
        }
        derived
    }

    fn push(&self, samples: &mut Samples) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
        for (name, value) in [
            ("engine.op.scan_ms", ms(self.scan_ns)),
            ("engine.op.scan_rows_in", self.scan_rows_in as f64),
            ("engine.op.scan_rows_out", self.scan_rows_out as f64),
            ("engine.op.narrow_ms", ms(self.narrow_ns)),
            ("engine.op.join_build_ms", ms(self.join_build_ns)),
            ("engine.op.join_probe_ms", ms(self.join_probe_ns)),
            ("engine.op.join_emitted_tuples", self.join_emitted as f64),
            ("engine.op.join_result_tuples", self.join_result as f64),
            (
                "engine.op.join_emit_efficiency",
                share(self.join_driven_result, self.join_emitted),
            ),
            (
                "engine.op.join_probe_hit_share",
                share(self.join_probe_hits, self.join_probes),
            ),
            (
                "engine.op.join_bucket_skipped",
                self.join_bucket_skipped as f64,
            ),
            ("engine.op.project_ms", ms(self.project_ns)),
            ("engine.op.project_rows_out", self.project_rows_out as f64),
            ("engine.exec.other_ms", ms(self.other_ns)),
            ("engine.anomaly.exec_ms", ms(self.anomaly_ns)),
        ] {
            samples.push(name, value);
        }
    }
}

/// One traced pass: each `execute_text` replaced by the public calls it is
/// made of — parse, analyze, `schedule::prepare` (against an empty plan
/// cache, then the same cache warmed), execute with statistics — with a
/// span around each and derived spans for the operators.
fn traced_pass(
    engine: &Engine,
    store: &EventStore,
    list: &[QueryEntry],
    gate: &mut Gate,
    m: &mut Meter,
    pass: u64,
) {
    let mut sums = OpSums::default();
    let pass_started = Instant::now();
    for (i, q) in list.iter().enumerate() {
        let op = pass * list.len() as u64 + i as u64;
        let root = m.tr.begin("query", NO_SPAN, op);
        let span = m.tr.begin("lang.parse", root, op);
        let parsed = parse_query(&q.text);
        m.samples.push("lang.parse_us", m.tr.end(span) as f64 / 1e3);
        let result: Result<ResultTable, EngineError> = match parsed {
            Err(e) => Err(e.into()),
            Ok(Query::Anomaly(_)) => {
                let span = m.tr.begin("engine.anomaly.exec", root, op);
                let result = engine.execute_text(store, &q.text);
                sums.anomaly_ns += m.tr.end(span);
                result
            }
            Ok(Query::Multievent(mq)) => {
                traced_multievent(engine, store, &mq, m, root, op, &mut sums)
            }
            Ok(Query::Dependency(d)) => match dependency_to_multievent(&d) {
                Err(e) => Err(e.into()),
                Ok(mq) => traced_multievent(engine, store, &mq, m, root, op, &mut sums),
            },
        };
        m.tr.end(root);
        gate.observe(i, q.id, &result, store, false);
    }
    m.samples.push("traced_pass_ms", ms(pass_started.elapsed()));
    sums.push(&mut m.samples);
}

fn traced_multievent(
    engine: &Engine,
    store: &EventStore,
    query: &aiql_lang::MultieventQuery,
    m: &mut Meter,
    root: SpanId,
    op: u64,
    sums: &mut OpSums,
) -> Result<ResultTable, EngineError> {
    let (tr, samples) = (&mut m.tr, &mut m.samples);
    let span = tr.begin("engine.analyze", root, op);
    let analyzed = analyze_multievent(query, store);
    let analyze_ns = tr.end(span);
    samples.push("engine.analyze.us", analyze_ns as f64 / 1e3);
    let analyzed = analyzed?;
    // `true`: schedule by pruning power, as `Engine` does by default.
    let cache = PlanCache::default();
    let span = tr.begin("engine.schedule.prepare_cold", root, op);
    std::hint::black_box(schedule::prepare(&analyzed, store, true, Some(&cache)));
    samples.push("engine.schedule.prepare_cold_us", tr.end(span) as f64 / 1e3);
    let span = tr.begin("engine.schedule.prepare_warm", root, op);
    std::hint::black_box(schedule::prepare(&analyzed, store, true, Some(&cache)));
    let prepare_ns = tr.end(span);
    samples.push("engine.schedule.prepare_warm_us", prepare_ns as f64 / 1e3);
    let span = tr.begin("engine.execute", root, op);
    let executed = engine.execute_multievent_with_stats(store, query);
    let execute_ns = tr.end(span);
    let (table, stats) = executed?;
    let derived = sums.add(&stats);
    let in_ops: u64 = derived.iter().map(|(_, ns)| ns).sum();
    // The execute call analyzes and prepares again before it runs the
    // operators; what is left is driver and materialization self time.
    sums.other_ns += execute_ns.saturating_sub(in_ops + analyze_ns + prepare_ns);
    tr.derive_children(span, &derived);
    Ok(table)
}

/// How long the query loop runs: `warmups` discarded passes, then rounds for
/// `budget`, and at least `min`.
#[derive(Debug, Clone, Copy)]
struct Rounds {
    warmups: usize,
    min: usize,
    budget: Duration,
}

/// The query side of every workload: discarded warm-up passes, then rounds
/// of one warm pass (a long-lived `Engine`) — plus, when tracing, one cold
/// pass (a fresh `Engine`, empty plan cache) and one traced pass. The
/// untraced run spends every round on the pass its metrics come from.
/// Returns the time the warm-up took.
fn query_loop(
    store: &EventStore,
    list: &[QueryEntry],
    gate: &mut Gate,
    m: &mut Meter,
    Rounds {
        warmups,
        min: min_rounds,
        budget,
    }: Rounds,
) -> Duration {
    let warm = Engine::new(EngineConfig::default());
    let started = Instant::now();
    for _ in 0..warmups {
        plain_pass(&warm, store, list, gate, true, |_, _| {});
    }
    let warmup = started.elapsed();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed() < budget {
        let samples = &mut m.samples;
        let pass = plain_pass(&warm, store, list, gate, false, |q, took| {
            samples.push(if q.anomaly { "anomaly_ms" } else { "query_ms" }, took);
            if let Some(name) = hunt_metric(q.id) {
                samples.push(name, took);
            }
        });
        samples.push("pass_ms", pass);
        if m.tr.is_on() {
            let cold = Engine::new(EngineConfig::default());
            let pass = plain_pass(&cold, store, list, gate, false, |_, _| {});
            m.samples.push("engine.schedule.cold_pass_ms", pass);
            traced_pass(&warm, store, list, gate, m, rounds as u64);
        }
        rounds += 1;
    }
    let (hits, misses) = warm.plan_cache_counters();
    m.samples.push(
        "plan_cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    warmup
}

/// Time in ms of one pass over the list through `run`.
fn one_pass(
    list: &[QueryEntry],
    gate: &mut Gate,
    run: impl Fn(&str) -> Result<ResultTable, EngineError>,
) -> f64 {
    let started = Instant::now();
    for q in list {
        let outcome = run(&q.text)
            .map(|_| ())
            .map_err(|e| format!("{}: {e}", q.id));
        gate.count(outcome);
    }
    ms(started.elapsed())
}

/// Traced run only: the same list at fixed executor widths, and under a
/// budget that never trips (the service always budgets). The variants take
/// turns pass by pass, so drift over the seconds this takes falls on all
/// of them alike; the first round is discarded. Four workers are measured
/// only where four cores can run them: on fewer the number would be the
/// cost of oversubscription, so the metric reads 0 like a bypassed layer.
fn pool_and_governor(
    report: &mut Report,
    store: &EventStore,
    list: &[QueryEntry],
    gate: &mut Gate,
    rounds: usize,
) {
    let engine = |parallelism| {
        Engine::new(EngineConfig {
            parallelism,
            ..EngineConfig::default()
        })
    };
    let (t1, t2) = (engine(1), engine(2));
    let t4 = (host_cores() >= 4).then(|| engine(4));
    let default = Engine::new(EngineConfig::default());
    let budget = ExecBudget::unlimited()
        .with_memory_bytes(u64::MAX / 2)
        .with_deadline(Duration::from_secs(3600));
    let mut times: [Vec<f64>; 5] = Default::default();
    for round in 0..=rounds {
        let pass = [
            one_pass(list, gate, |text| t1.execute_text(store, text)),
            one_pass(list, gate, |text| t2.execute_text(store, text)),
            t4.as_ref().map_or(f64::NAN, |t4| {
                one_pass(list, gate, |text| t4.execute_text(store, text))
            }),
            one_pass(list, gate, |text| default.execute_text(store, text)),
            one_pass(list, gate, |text| {
                default.execute_text_with_budget(store, text, &budget)
            }),
        ];
        if round > 0 {
            for (all, t) in times.iter_mut().zip(pass) {
                all.push(t);
            }
        }
    }
    let [t1, t2, t4, plain, budgeted] = times.map(|t| stats::median(&t).unwrap_or(f64::NAN));
    report.set("engine.pool.pass_ms_t1", t1, rounds);
    report.set("engine.pool.pass_ms_t2", t2, rounds);
    if t4.is_finite() {
        report.set("engine.pool.pass_ms_t4", t4, rounds);
    }
    report.set("engine.pool.parallel_speedup", t1 / plain, rounds);
    report.set(
        "engine.governor.overhead_share",
        budgeted / plain - 1.0,
        rounds,
    );
}

/// Traced run of `investigate` only: the paper's yardsticks over the same
/// store and list, so fig. 4 / fig. 5 sit beside the engine's own numbers.
fn baselines(report: &mut Report, store: &EventStore, list: &[QueryEntry], gate: &mut Gate) {
    let Some(pass_ms) = report.value("pass_ms") else {
        return;
    };
    let relational = RelationalEngine::new(true);
    let t = one_pass(list, gate, |text| relational.execute_text(store, text));
    report.set("baseline.relational_pass_ms", t, 1);
    report.set("baseline.relational_speedup", t / pass_ms, 1);
    let unoptimized = RelationalEngine::new(false);
    let t = one_pass(list, gate, |text| unoptimized.execute_text(store, text));
    report.set("baseline.relational_unopt_pass_ms", t, 1);
    let started = Instant::now();
    let graph = GraphEngine::build(store);
    report.set("baseline.graph_build_ms", ms(started.elapsed()), 1);
    let t = one_pass(list, gate, |text| graph.execute_text(store, text));
    report.set("baseline.graph_pass_ms", t, 1);
    report.set("baseline.graph_speedup", t / pass_ms, 1);
}

/// Traced run only: a snapshot round trip through, and explicit compaction
/// of, the workload's final store.
fn snapshot_and_compact(report: &mut Report, store: &EventStore, scratch: &Path, gate: &mut Gate) {
    let events = store.event_count().max(1) as f64;
    let path = scratch.join(SNAPSHOT_FILE);
    let started = Instant::now();
    let saved = snapshot::save(store, &path);
    report.set("storage.snapshot.save_ms", ms(started.elapsed()), 1);
    report.set(
        "storage.snapshot.bytes_per_event",
        file_len(&path) / events,
        1,
    );
    let started = Instant::now();
    let loaded = snapshot::load(&path);
    report.set("storage.snapshot.load_ms", ms(started.elapsed()), 1);
    gate.count(match (saved, loaded) {
        (Ok(()), Ok(l)) if l.event_count() == store.event_count() => Ok(()),
        (Ok(()), Ok(_)) => Err("snapshot: loaded store lost events".into()),
        (Err(e), _) | (_, Err(e)) => Err(format!("snapshot: {e}")),
    });
    // Sealed segments are shared with the original; compaction rewrites
    // only the copy's.
    let mut copy = store.clone();
    let started = Instant::now();
    let compaction = copy.compact();
    report.set("storage.compact.explicit_ms", ms(started.elapsed()), 1);
    report.set(
        "storage.compact.segments_before",
        compaction.segments_before as f64,
        1,
    );
    report.set(
        "storage.compact.segments_after",
        compaction.segments_after as f64,
        1,
    );
}

// ------------------------------------------------------------------ reporting

fn per(total_ns: u64, count: u64) -> f64 {
    total_ns as f64 / 1e3 / count.max(1) as f64
}

/// Turns what was measured into the declared metrics; `stats` is the
/// workload's final store.
fn report_measured(report: &mut Report, m: &Meter, stats: &StoreStats) {
    let s = &m.samples;
    let median = |name| stats::median(s.get(name)).unwrap_or(0.0);
    report.set(
        "setup_s",
        median("generate_s") + median("build_s"),
        s.get("generate_s").len(),
    );
    report.median("ingest_events_per_s", s.get("ingest_events_per_s"));
    report.median("commit_p50_ms", s.get("commit_ms"));
    report.median("pass_ms", s.get("pass_ms"));
    report.median("query_p50_ms", s.get("query_ms"));
    report.median("engine.anomaly.exec_ms", s.get("anomaly_ms"));
    if let Some(p99) = stats::percentile(s.get("query_ms"), 0.99) {
        report.set("engine.query.p99_ms", p99, s.get("query_ms").len());
    }
    // Sample sets named after a declared metric are that metric's samples.
    for (name, values) in s.iter() {
        if name.contains('.') {
            report.median(name, values);
        }
    }
    report.set(
        "engine.schedule.plan_cache_hit_share",
        median("plan_cache_hit_share"),
        s.get("plan_cache_hit_share").len(),
    );
    report.set("harness.warmup_s", s.get("warmup_s").iter().sum(), 1);
    if let Some(traced) = stats::median(s.get("traced_pass_ms")) {
        report.set(
            "harness.trace_overhead_share",
            traced / median("pass_ms") - 1.0,
            s.get("traced_pass_ms").len(),
        );
    }

    let events = stats.events.max(1) as f64;
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    for (name, value) in [
        (
            "resident_bytes_per_event",
            (stats.event_bytes + stats.dict_bytes) as f64 / events,
        ),
        (
            "storage.stats.event_bytes_per_event",
            stats.event_bytes as f64 / events,
        ),
        (
            "storage.stats.dict_bytes_per_entity",
            share(stats.dict_bytes, stats.entities),
        ),
        (
            "storage.ingest.entity_dedup_share",
            share(
                stats.entity_dedup_hits,
                stats.entity_dedup_hits + stats.entities,
            ),
        ),
        (
            "storage.ingest.event_dedup_share",
            share(stats.merged_events, stats.raw_events),
        ),
        ("storage.commit.commits", stats.commits as f64),
        ("storage.commit.segments", stats.segments as f64),
        (
            "storage.commit.novelty_flushes",
            stats.novelty_flushes as f64,
        ),
        ("storage.shared.reader_stalls", stats.reader_stalls as f64),
    ] {
        report.set(name, value, 1);
    }
    report.note(
        "store",
        format!(
            "{} events, {} entities, {} partitions, {} segments",
            stats.events, stats.entities, stats.partitions, stats.segments
        ),
    );

    let c = &m.clock;
    for (name, total_ns, count) in [
        (
            "storage.ingest.resolve_us_per_event",
            c.resolve_ns,
            c.events,
        ),
        ("storage.commit.us_per_event", c.commit_ns, c.events),
        (
            "storage.wal.append_us_per_event",
            c.wal_append_ns,
            c.wal_events,
        ),
        (
            "storage.wal.commit_us_per_batch",
            c.wal_commit_ns,
            c.wal_batches,
        ),
        (
            "storage.shared.publish_us_per_batch",
            c.publish_ns,
            c.shared_batches,
        ),
    ] {
        if count > 0 {
            report.set(name, per(total_ns, count), count as usize);
        }
    }
}

// ------------------------------------------------------------------ workloads

/// Resident-set high-water mark of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload from scratch and reports what it measured.
pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let mut meter = Meter::new(p.trace);
    let list = catalog(p.kind);
    let mut gate = Gate::new(list.len());
    let scale = p.scale();
    report.note("workload", p.kind.name());
    report.note("seed", p.seed);
    report.note(
        "scale",
        format!(
            "{} hosts x {} events/host/day{}",
            scale.hosts,
            scale.events_per_host,
            if p.quick { " (quick)" } else { "" }
        ),
    );
    report.note("host_cores", host_cores());
    report.note("engine_parallelism", EngineConfig::default().parallelism);
    report.note("seconds", p.seconds);
    report.note("traced", p.trace);
    match p.kind {
        Kind::Investigate | Kind::Hunt => {
            query_workload(p, &list, &mut gate, &mut meter, &mut report)
        }
        Kind::ServeUnderIngest => serve_under_ingest(p, &list, &mut gate, &mut meter, &mut report),
        Kind::BulkLoad => bulk_load(p, &list, &mut gate, &mut meter, &mut report),
    }
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        // Absent unless the workload wrote it.
        let _ = std::fs::remove_file(p.scratch.join(file));
    }
    report.attempted = gate.attempted;
    report.failed = gate.failed;
    report.failures = std::mem::take(&mut gate.messages);
    report.digests = gate.seen_digests(&list);
    if p.trace {
        let path = p.scratch.join(format!("trace-{}.json", p.kind.name()));
        match std::fs::write(&path, meter.tr.to_json(p.kind.name(), p.seed)) {
            Ok(()) => report.note("trace_file", path.display()),
            Err(e) => report.failures.push(format!("trace file: {e}")),
        }
    }
    report
}

/// Repeats set-up work `once` — at least [`SETUPS`] times and for at least
/// `floor`; once at the smoke scale — and returns what the last repetition
/// made. Each result is dropped before the next is made.
fn set_up<T>(p: &Params, floor: Duration, mut once: impl FnMut() -> T) -> T {
    let started = Instant::now();
    let mut done = 0;
    loop {
        let made = once();
        done += 1;
        if p.quick || (done >= SETUPS && started.elapsed() >= floor) {
            return made;
        }
    }
}

/// Generates the workload's days of events.
fn generate(p: &Params, m: &mut Meter) -> Vec<Vec<RawEvent>> {
    set_up(p, Duration::ZERO, || {
        let started = Instant::now();
        let mut days = vec![scenario_demo(p.scale()).raws];
        if p.kind == Kind::Investigate {
            days.push(scenario_case_study(p.scale()).raws);
        }
        m.samples
            .push("generate_s", started.elapsed().as_secs_f64());
        days
    })
}

/// What ends every workload: memory, the metrics, the closing answer check
/// and, when tracing, the probes of the final store.
fn finish(
    p: &Params,
    list: &[QueryEntry],
    gate: &mut Gate,
    m: &Meter,
    report: &mut Report,
    stats: &StoreStats,
    queried: &EventStore,
) {
    if let Some(rss) = peak_rss_mb() {
        report.set("peak_rss_mb", rss, 1);
    }
    report_measured(report, m, stats);
    gate.verify(
        &Engine::new(EngineConfig::default()),
        queried,
        list,
        p.golden(),
    );
    if !p.trace {
        return;
    }
    let rounds = if p.kind == Kind::Hunt { 3 } else { 5 };
    pool_and_governor(report, queried, list, gate, rounds);
    if p.kind == Kind::Investigate {
        baselines(report, queried, list, gate);
    }
    snapshot_and_compact(report, queried, &p.scratch, gate);
    // What a restart can read: the log, and the checkpoint beside it.
    if let (Some(wal), Some(snapshot)) = (
        report.value("storage.wal.bytes_per_event"),
        report.value("storage.snapshot.bytes_per_event"),
    ) {
        report.set("storage.stats.durable_bytes_per_event", wal + snapshot, 1);
    }
}

/// One timed build of the set-up store.
fn timed_build(days: &[Vec<RawEvent>], m: &mut Meter) -> EventStore {
    let raws: usize = days.iter().map(Vec::len).sum();
    let started = Instant::now();
    let store = build_store(StoreConfig::default(), days, m);
    let build_s = started.elapsed().as_secs_f64();
    m.samples.push("build_s", build_s);
    m.samples.push("ingest_events_per_s", raws as f64 / build_s);
    store
}

/// `investigate` and `hunt`: build a bare store in set-up, then spend the
/// whole timed part on the query loop.
fn query_workload(
    p: &Params,
    list: &[QueryEntry],
    gate: &mut Gate,
    m: &mut Meter,
    report: &mut Report,
) {
    let days = generate(p, m);
    let store = set_up(p, BUILD_FLOOR, || timed_build(&days, m));
    let rounds = Rounds {
        warmups: if p.quick { 1 } else { 2 },
        min: 1,
        budget: p.budget(),
    };
    let warmup = query_loop(&store, list, gate, m, rounds);
    m.samples.push("warmup_s", warmup.as_secs_f64());
    report.note("load_threads", "1 client + the engine's scan pool");
    report.note("setups", m.samples.get("build_s").len());
    report.note("rounds", m.samples.get("pass_ms").len());
    report.note("discarded_passes", rounds.warmups);
    finish(p, list, gate, m, report, &store.stats(), &store);
}

/// The ingest workloads repeat one cycle — build a store, then query it —
/// on fresh stores for the whole timed part, so that every metric samples
/// the whole run and a slow stretch of the host falls on all of them. The
/// first cycle ran up to twice as slow as the rest in every trial
/// (first-touch allocation), so one cycle is run and discarded first.
/// Returns what the last cycle returned.
fn cycles<T>(
    p: &Params,
    m: &mut Meter,
    report: &mut Report,
    mut cycle: impl FnMut(&mut Meter) -> Option<T>,
) -> Option<T> {
    if !p.quick {
        let started = Instant::now();
        drop(cycle(&mut Meter::new(false)));
        m.samples.push("warmup_s", started.elapsed().as_secs_f64());
    }
    let budget = p.budget().as_secs_f64();
    let started = Instant::now();
    let mut last = None;
    let mut cycle_s = 0.0;
    let mut done = 0;
    // Stop when one more cycle would overrun the budget by more than
    // stopping undershoots it.
    while done == 0 || started.elapsed().as_secs_f64() + cycle_s / 2.0 < budget {
        drop(last.take());
        let cycle_started = Instant::now();
        last = Some(cycle(m)?);
        cycle_s = cycle_started.elapsed().as_secs_f64();
        done += 1;
    }
    report.note("cycles", done);
    report.note("discarded_cycles", u8::from(!p.quick));
    report.note("wal_flush_policy", WAL_FLUSH_POLICY);
    last
}

/// What the writer thread of one `serve_under_ingest` cycle measured.
struct Streamed {
    events: usize,
    wall: Duration,
    commit_ms: Vec<f64>,
    error: Option<String>,
}

/// The build side of one `serve_under_ingest` cycle: a fresh store holding
/// the first quarter of the day, then one writer streaming the rest through
/// the WAL and `SharedStore::write` while one analyst session queries
/// through the service on an open-loop schedule until the writer is done.
fn serve_race(
    p: &Params,
    raws: &[RawEvent],
    mix: &[&QueryEntry],
    gate: &mut Gate,
    m: &mut Meter,
) -> Option<SharedStore> {
    let (preload, stream) = raws.split_at(raws.len() / 4);
    let started = Instant::now();
    let config = StoreConfig {
        novelty_flush_rows: 256,
        background_compaction: true,
        ..StoreConfig::default()
    };
    // The preload is set-up, not the path under test: its clock is dropped.
    let mut preload_meter = Meter::new(false);
    let store = build_store(config, &[preload], &mut preload_meter);
    let shared = SharedStore::new(store);
    let service = QueryService::new(
        shared.clone(),
        ServiceConfig {
            dispatchers: 1,
            ..ServiceConfig::default()
        },
    );
    let wal_path = p.scratch.join(WAL_FILE);
    let (session, wal) = (service.create_session(), Wal::create(&wal_path));
    m.samples.push("build_s", started.elapsed().as_secs_f64());
    let (Ok(session), Ok(mut wal)) = (session, wal) else {
        gate.count(Err("serve_under_ingest: no session or no WAL".into()));
        return None;
    };

    let done = AtomicBool::new(false);
    let mut writer_tracer = m.tr.fork("writer");
    let schedule = OpenLoop::per_second(SERVE_QUERY_RATE);
    let Meter { tr, samples, clock } = m;
    let streamed = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let wt = &mut writer_tracer;
            let mut out = Streamed {
                events: 0,
                wall: Duration::ZERO,
                commit_ms: Vec::with_capacity(stream.len() / SERVE_BATCH + 1),
                error: None,
            };
            let started = Instant::now();
            for (b, batch) in stream.chunks(SERVE_BATCH).enumerate() {
                let b = b as u64;
                let arrived = Instant::now();
                let span = wt.begin("ingest.batch", NO_SPAN, b);
                if let Err(e) = wal_batch(&mut wal, batch, wt, span, b, clock) {
                    out.error = Some(format!("wal: {e}"));
                    break;
                }
                let write = wt.begin("storage.shared.write", span, b);
                let inner_ns = shared.write(|s| {
                    let inner = wt.begin("storage.shared.write.inner", write, b);
                    ingest_batch(s, batch, wt, inner, b, clock);
                    wt.end(inner)
                });
                clock.publish_ns += wt.end(write).saturating_sub(inner_ns);
                clock.shared_batches += u64::from(wt.is_on());
                wt.end(span);
                out.commit_ms.push(ms(arrived.elapsed()));
                out.events += batch.len();
            }
            out.wall = started.elapsed();
            done.store(true, Ordering::Release);
            out
        });

        // The analyst: query k is due at k / rate and timed from then.
        let started = Instant::now();
        let mut k = 0u32;
        let mut max_late = Duration::ZERO;
        loop {
            if let Some(wait) = schedule.due(k).checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            if done.load(Ordering::Acquire) {
                break;
            }
            let sent = started.elapsed();
            max_late = max_late.max(schedule.lateness(k, sent));
            if tr.is_on() {
                let pin = Instant::now();
                std::hint::black_box(shared.snapshot());
                samples.push("storage.shared.pin_us", us(pin.elapsed()));
            }
            let q = mix[k as usize % mix.len()];
            let span = tr.begin("service.query", NO_SPAN, u64::from(k));
            let response = service.query(session, &q.text);
            tr.end(span);
            let finished = started.elapsed();
            samples.push("racing_query_ms", ms(schedule.latency(k, finished)));
            gate.count(match response {
                Err(e) => Err(format!("{}: {e}", q.id)),
                Ok(r) if r.degraded || r.table.truncated => {
                    Err(format!("{}: degraded or truncated under ingest", q.id))
                }
                Ok(r) => {
                    samples.push("service_queue_wait_us", us(r.queue_wait));
                    samples.push("service_exec_us", us(r.exec));
                    samples.push(
                        "service_overhead_us",
                        us((finished - sent).saturating_sub(r.queue_wait + r.exec)),
                    );
                    Ok(())
                }
            });
            k += 1;
        }
        samples.push("reader_max_late_ms", ms(max_late));
        writer.join().expect("writer thread panicked")
    });
    drop(wal);
    tr.absorb(writer_tracer);

    samples.push(
        "ingest_events_per_s",
        streamed.events as f64 / streamed.wall.as_secs_f64().max(1e-9),
    );
    for c in streamed.commit_ms {
        samples.push("commit_ms", c);
    }
    samples.push(
        "storage.wal.bytes_per_event",
        file_len(&wal_path) / streamed.events.max(1) as f64,
    );
    gate.count(match streamed.error {
        Some(e) => Err(e),
        None if streamed.events == stream.len() => Ok(()),
        None => Err("serve_under_ingest: writer stopped early".into()),
    });
    let served = service.stats();
    samples.push("service_completed", served.completed as f64);
    samples.push("service_shed", served.shed as f64);
    samples.push("service_degraded", served.degraded as f64);
    service.shutdown();
    Some(shared)
}

fn serve_under_ingest(
    p: &Params,
    list: &[QueryEntry],
    gate: &mut Gate,
    m: &mut Meter,
    report: &mut Report,
) {
    let days = generate(p, m);
    let mix: Vec<&QueryEntry> = list.iter().filter(|q| !q.anomaly).collect();
    let Some(shared) = cycles(p, m, report, |m| {
        let shared = serve_race(p, &days[0], &mix, gate, m)?;
        query_loop(&shared.snapshot(), list, gate, m, CYCLE_ROUNDS);
        Some(shared)
    }) else {
        return;
    };
    report.note(
        "load_threads",
        "1 writer + 1 open-loop analyst + 1 dispatcher + the scan pool (compaction)",
    );
    report.note("query_rate_per_s", SERVE_QUERY_RATE);
    report.note("batch_events", SERVE_BATCH);

    let s = &m.samples;
    for (metric, sample, quantile) in [
        ("storage.shared.commit_p99_ms", "commit_ms", 0.99),
        (
            "engine.service.queue_wait_p50_us",
            "service_queue_wait_us",
            0.5,
        ),
        (
            "engine.service.queue_wait_p99_us",
            "service_queue_wait_us",
            0.99,
        ),
        ("engine.service.exec_p50_us", "service_exec_us", 0.5),
        ("engine.service.overhead_p50_us", "service_overhead_us", 0.5),
        ("engine.service.latency_p50_ms", "racing_query_ms", 0.5),
        ("engine.service.latency_p99_ms", "racing_query_ms", 0.99),
    ] {
        if let Some(v) = stats::percentile(s.get(sample), quantile) {
            report.set(metric, v, s.get(sample).len());
        }
    }
    for (metric, sample) in [
        ("engine.service.completed", "service_completed"),
        ("engine.service.shed", "service_shed"),
        ("engine.service.degraded", "service_degraded"),
    ] {
        report.set(metric, s.get(sample).iter().sum(), s.get(sample).len());
    }
    let late = s.get("reader_max_late_ms");
    report.set(
        "harness.reader_max_late_ms",
        late.iter().copied().fold(0.0, f64::max),
        late.len(),
    );
    let left = shared.snapshot();
    finish(p, list, gate, m, report, &shared.stats(), &left);
}

/// The build side of one `bulk_load` cycle: every batch to the WAL, then
/// into a bare store.
fn bulk_build(raws: &[RawEvent], wal_path: &Path, m: &mut Meter) -> Result<EventStore, WalError> {
    let started = Instant::now();
    let mut store = EventStore::new(StoreConfig::default());
    let mut wal = Wal::create(wal_path)?;
    for (b, batch) in raws.chunks(BULK_BATCH).enumerate() {
        let b = b as u64;
        let arrived = Instant::now();
        let span = m.tr.begin("ingest.batch", NO_SPAN, b);
        wal_batch(&mut wal, batch, &mut m.tr, span, b, &mut m.clock)?;
        ingest_batch(&mut store, batch, &mut m.tr, span, b, &mut m.clock);
        m.tr.end(span);
        m.samples.push("commit_ms", ms(arrived.elapsed()));
    }
    m.samples.push(
        "ingest_events_per_s",
        raws.len() as f64 / started.elapsed().as_secs_f64(),
    );
    Ok(store)
}

/// The crash path: a store from nothing but the WAL's bytes, which must
/// hold every committed event of the live one.
fn restart(
    raws: &[RawEvent],
    wal_path: &Path,
    live: &EventStore,
    m: &mut Meter,
) -> Result<EventStore, String> {
    if m.tr.is_on() {
        let started = Instant::now();
        let replayed = Wal::replay_report(wal_path).map(|r| r.committed_events());
        std::hint::black_box(replayed.ok());
        m.samples
            .push("storage.wal.replay_ms", ms(started.elapsed()));
    }
    let span = m.tr.begin("storage.recovery.recover", NO_SPAN, 0);
    let started = Instant::now();
    let outcome = recover(StoreConfig::default(), wal_path);
    m.samples.push(
        "storage.recovery.recover_s",
        started.elapsed().as_secs_f64(),
    );
    m.tr.end(span);
    let (store, replayed) = outcome.map_err(|e| format!("recover: {e}"))?;
    let whole = !replayed.torn()
        && replayed.committed_events() == raws.len()
        && store.event_count() == live.event_count();
    whole
        .then_some(store)
        .ok_or_else(|| "recover: events lost".to_string())
}

/// `bulk_load`: each cycle loads the day, restarts from the WAL, and runs
/// the catalog on the recovered store.
fn bulk_load(p: &Params, list: &[QueryEntry], gate: &mut Gate, m: &mut Meter, report: &mut Report) {
    let days = generate(p, m);
    let raws = &days[0];
    let wal_path = p.scratch.join(WAL_FILE);
    let Some((live, recovered)) = cycles(p, m, report, |m| {
        let cycle = bulk_build(raws, &wal_path, m)
            .map_err(|e| format!("load: {e}"))
            .and_then(|live| Ok((restart(raws, &wal_path, &live, m)?, live)));
        match cycle {
            Ok((recovered, live)) => {
                gate.count(Ok(()));
                query_loop(&recovered, list, gate, m, CYCLE_ROUNDS);
                Some((live, recovered))
            }
            Err(e) => {
                gate.count(Err(e));
                None
            }
        }
    }) else {
        return;
    };
    report.note("load_threads", "1");
    report.note("batch_events", BULK_BATCH);
    report.set(
        "storage.wal.bytes_per_event",
        file_len(&wal_path) / raws.len() as f64,
        1,
    );
    finish(p, list, gate, m, report, &live.stats(), &recovered);
    if let (Some(total), Some(replay)) = (
        report.value("storage.recovery.recover_s"),
        report.value("storage.wal.replay_ms"),
    ) {
        report.set("storage.recovery.reingest_ms", total * 1e3 - replay, 1);
    }
}
