//! The physical operator pipeline.
//!
//! A multievent query executes as an explicit operator tree instead of one
//! fused scan-and-join loop:
//!
//! ```text
//! Project / Aggregate
//! └── TemporalJoin                     (multi-way hash join, parallel runs)
//!     ├── PatternScan #1 ── SemiJoinNarrow #1
//!     ├── PatternScan #2 ── SemiJoinNarrow #2
//!     └── …one chain per pattern, in schedule order
//! ```
//!
//! Every operator implements the uniform [`Operator`] interface over
//! [`EventRef`] batches: it reads and writes the shared [`PipelineState`]
//! (candidate batches, binding sets, time statistics, the tuple frontier)
//! and reports its tuple in/out counts. The driver ([`crate::exec`])
//! builds the tree once per query ([`plan_tree`] over the schedule) and
//! executes it post-order, timing each node into [`ExecStats::ops`].
//!
//! `EXPLAIN` ([`mod@crate::explain`]) walks the same [`PlanNode`]s, built
//! by the same builder, and asks each operator to
//! [`describe`](Operator::describe) itself: the decision its `run` will
//! make, from the same configuration fields and filters `run` reads
//! before any data flows (which patterns' bindings a narrowing ANDs in,
//! the access path a scan takes, the join's drive and sink). Execution
//! never calls `describe`, so what is shown is what runs at no cost to
//! running it.
//!
//! Operator execution order is dataflow order: for each scheduled pattern,
//! narrow then scan; then join; then project.
//!
//! The join and the projection meet in a `project::ProjectionSink`: the
//! join drive pushes every joined tuple straight into it
//! (`PipelineState::sink`) and `Project` only finishes it. Analysis
//! compiled the projection, so every query that projects has a sink; only
//! an execution without a projection (`MultieventExec::match_tuples`, an
//! anomaly query's fetch) leaves its tuples in [`PipelineState::frontier`].

pub mod join;
pub mod project;
pub mod scan;
pub mod semi_join;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use aiql_model::{EntityId, Event, Timestamp};
use aiql_storage::{EventFilter, EventStore, IdSet, Partition, PartitionKey};

use crate::analyze::AnalyzedMultievent;
use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::eval::TupleView;
use crate::governor::{Governor, Warning};
use crate::result::ResultTable;
use crate::schedule::PlanCtx;

pub use join::TemporalJoin;
pub use project::Project;
pub(crate) use project::{CompiledProjection, ProjectionSink};
pub use scan::PatternScan;
pub use semi_join::SemiJoinNarrow;

/// One candidate match: an event per pattern plus the implied variable
/// bindings.
#[derive(Debug, Clone)]
pub struct Tuple {
    /// Event per pattern, in source order.
    pub events: Vec<Option<Event>>,
    /// Entity binding per variable.
    pub vars: Vec<Option<EntityId>>,
}

/// A row reference: index into the query's partition table plus the flat
/// row inside that partition's segment run. 8 bytes instead of the 56-byte
/// `Event`. Segment compaction preserves flat row addresses, so refs stay
/// valid across layout rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventRef {
    /// Index into `PartTable::keys`.
    pub part: u32,
    /// Flat row inside the partition.
    pub row: u32,
}

/// Control flow of a tuple stream: `Stop` tells the producer to emit
/// nothing further (the consumer's state says why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    Continue,
    Stop,
}

/// Sentinel for "no event placed for this pattern yet".
pub(crate) const NO_REF: EventRef = EventRef {
    part: u32::MAX,
    row: u32::MAX,
};

/// Sentinel for "variable unbound" in the arena's binding columns
/// (entity ids are dense store indices, nowhere near `u32::MAX`).
pub(crate) const NO_VAR: u32 = u32::MAX;

/// Join tuples, stored as two flat arrays with fixed strides (`npatterns`
/// refs + `nvars` bindings per tuple). Growing the frontier copies plain
/// `u32`/8-byte rows — no per-tuple heap allocation.
#[derive(Debug, Default)]
pub struct RefArena {
    pub(crate) npatterns: usize,
    pub(crate) nvars: usize,
    pub(crate) events: Vec<EventRef>,
    pub(crate) vars: Vec<u32>,
    /// Tuple count, maintained by every mutator: `len()` sits on the join's
    /// per-emission path, where a `vars.len() / nvars` division is
    /// measurable across millions of appended tuples.
    ntuples: usize,
}

impl RefArena {
    pub(crate) fn new(npatterns: usize, nvars: usize) -> Self {
        RefArena {
            npatterns,
            nvars,
            events: Vec::new(),
            vars: Vec::new(),
            ntuples: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ntuples
    }

    pub(crate) fn events_of(&self, i: usize) -> &[EventRef] {
        &self.events[i * self.npatterns..(i + 1) * self.npatterns]
    }

    pub(crate) fn vars_of(&self, i: usize) -> &[u32] {
        &self.vars[i * self.nvars..(i + 1) * self.nvars]
    }

    /// Tuple `i` as compiled expressions read it.
    pub(crate) fn view(&self, i: usize) -> TupleView<'_> {
        TupleView {
            events: self.events_of(i),
            vars: self.vars_of(i),
        }
    }

    /// Appends a copy of `t`.
    pub(crate) fn push(&mut self, t: TupleView<'_>) {
        self.events.extend_from_slice(t.events);
        self.vars.extend_from_slice(t.vars);
        self.ntuples += 1;
    }

    /// Every tuple with its events materialized: the engine's only
    /// [`Tuple`]s, which `MultieventExec::match_tuples` hands to tests and
    /// the oracle.
    pub(crate) fn materialize(&self, parts: &PartTable<'_>) -> Vec<Tuple> {
        let tuple = |i| Tuple {
            events: (self.events_of(i).iter())
                .map(|&r| (r != NO_REF).then(|| parts.event(r)))
                .collect(),
            vars: (self.vars_of(i).iter())
                .map(|&v| (v != NO_VAR).then_some(EntityId(v)))
                .collect(),
        };
        (0..self.len()).map(tuple).collect()
    }

    /// Bytes one tuple occupies (the unit of the governor's accounting).
    pub(crate) fn tuple_bytes(&self) -> u64 {
        (self.npatterns * std::mem::size_of::<EventRef>() + self.nvars * std::mem::size_of::<u32>())
            as u64
    }

    /// Drops every tuple past the first `len`, keeping the capacity (a
    /// reused scratch arena starts each window from `truncate(0)`).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.events.truncate(len * self.npatterns);
        self.vars.truncate(len * self.nvars);
        self.ntuples = self.ntuples.min(len);
    }

    /// Resizes to exactly `len` tuples, filling new rows with unplaced
    /// sentinels (the join's proto-tuple seed).
    pub(crate) fn resize_tuples(&mut self, len: usize) {
        self.events.resize(len * self.npatterns, NO_REF);
        self.vars.resize(len * self.nvars, NO_VAR);
        self.ntuples = len;
    }
}

/// Where a join drive delivers its joined tuples: a [`RefArena`] that keeps
/// them all, or the [`ProjectionSink`] that consumes each one as it arrives
/// and keeps only what `return` needs. Neither can fail.
pub(crate) trait JoinOutput: Send + Sync + Sized {
    /// Delivers tuple `i` of `src` extended with one placed event: ref `r`
    /// for `pattern`, binding its `subject` and `object` variables.
    fn emit(
        &mut self,
        src: &RefArena,
        i: usize,
        pattern: usize,
        r: EventRef,
        subject: (usize, EntityId),
        object: (usize, EntityId),
    );

    /// Whether the output reads nothing a match of `pattern` places — its
    /// event, or the variables `fresh` it binds first — so the drive may
    /// deliver a count of matches ([`JoinOutput::emit_count`]) instead.
    /// With `counted`, reading the event as `count(<event>.<column>)` still
    /// counts as unread (only the final level's matches may be counted so).
    fn unread(&self, _pattern: usize, _fresh: &[usize], _counted: bool) -> bool {
        false
    }

    /// Delivers `n` tuples: tuple `i` of `src`, extended by `n` matches of
    /// levels the output reported [`JoinOutput::unread`], the last placing
    /// `pattern`.
    fn emit_count(&mut self, _src: &RefArena, _i: usize, _pattern: usize, _n: usize) {
        unreachable!("only an output that reads nothing of a pattern is handed its counts")
    }

    /// The variable slots of an id-keyed `distinct` (every item an entity
    /// reference, no `having`): a delivered tuple is seen only through its
    /// ids in these slots. `None` for any other output.
    fn id_keys(&self) -> Option<&[usize]> {
        None
    }

    /// Delivers `n` tuples of an [`JoinOutput::id_keys`] output: tuple `i`
    /// of `src`, extended by `n` matches of `pattern` whose ids in the
    /// `fresh` slots are, deduplicated in first-seen order, `ids` (a slot
    /// given twice binds one id). Empty `ids` only counts the `n`: their
    /// keys were all delivered before.
    fn emit_ids(
        &mut self,
        _src: &RefArena,
        _i: usize,
        _pattern: usize,
        _fresh: [usize; 2],
        _ids: &[[u32; 2]],
        _n: usize,
    ) {
        unreachable!("only an id-keyed distinct is handed its ids")
    }

    /// Tuples delivered so far (what the budget's `max_tuples` caps).
    fn delivered(&self) -> usize;

    /// Bytes the output keeps alive (what a memory budget is charged).
    fn retained_bytes(&self) -> u64;

    /// Hint that up to `tuples` more tuples may be delivered.
    fn reserve(&mut self, _tuples: usize) {}

    /// An empty output of the same shape (one run of the parallel drive).
    fn fork(&self) -> Self;

    /// Folds in `part`, the output of the tuples that directly follow this
    /// output's in emission order. `false` means the fold would not equal
    /// delivering those tuples one by one; `part` is dropped, nothing
    /// changed, and the caller re-drives the run into `self`.
    fn merge(&mut self, part: Self) -> bool;
}

impl JoinOutput for RefArena {
    /// Appends the extended tuple: the new pattern ref and both its
    /// variable bindings land in a single pass — the join's per-match
    /// emission, fused so the copied row is patched in place instead of
    /// re-indexed per field.
    #[inline]
    fn emit(
        &mut self,
        src: &RefArena,
        i: usize,
        pattern: usize,
        r: EventRef,
        subject: (usize, EntityId),
        object: (usize, EntityId),
    ) {
        let e0 = self.events.len();
        self.events.extend_from_slice(src.events_of(i));
        self.events[e0 + pattern] = r;
        let v0 = self.vars.len();
        self.vars.extend_from_slice(src.vars_of(i));
        self.vars[v0 + subject.0] = subject.1.raw();
        self.vars[v0 + object.0] = object.1.raw();
        self.ntuples += 1;
    }

    #[inline]
    fn delivered(&self) -> usize {
        self.len()
    }

    fn retained_bytes(&self) -> u64 {
        self.len() as u64 * self.tuple_bytes()
    }

    /// Large reservations are lazy virtual pages until touched, while
    /// skipping the doubling-growth recopies that a cap-sized frontier pays
    /// for otherwise (~one extra full-arena memcpy per join step).
    fn reserve(&mut self, tuples: usize) {
        self.events.reserve(tuples * self.npatterns);
        self.vars.reserve(tuples * self.nvars);
    }

    fn fork(&self) -> Self {
        RefArena::new(self.npatterns, self.nvars)
    }

    fn merge(&mut self, part: Self) -> bool {
        self.events.extend_from_slice(&part.events);
        self.vars.extend_from_slice(&part.vars);
        self.ntuples += part.ntuples;
        true
    }
}

/// The hasher of the join's in-memory tables, whose keys are entity ids and
/// row refs the store assigned densely, not strings a feed chose: one
/// rotate, xor and multiply per word (the Fx scheme), and a final rotation
/// that brings the well-mixed high bits down to where a table's bucket
/// mask reads.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// [`MulHasher`] as a `HashMap`/`HashSet` hasher.
pub(crate) type MulHash = std::hash::BuildHasherDefault<MulHasher>;

/// Snapshot of the store's partitions for one query: the address space
/// [`EventRef`]s resolve against. Keys are ascending (the store's partition
/// order), so a sorted key lookup gives the partition index.
pub struct PartTable<'a> {
    pub(crate) keys: Vec<PartitionKey>,
    pub(crate) parts: Vec<&'a Partition>,
}

impl<'a> PartTable<'a> {
    pub(crate) fn build(store: &'a EventStore) -> Self {
        let keys = store.partition_list();
        let parts = keys
            .iter()
            .map(|&k| store.partition(k).expect("listed partition exists"))
            .collect();
        PartTable { keys, parts }
    }

    #[inline]
    pub(crate) fn index_of(&self, key: PartitionKey) -> u32 {
        self.keys
            .binary_search(&key)
            .expect("partition key in table") as u32
    }

    #[inline]
    pub(crate) fn part(&self, r: EventRef) -> &'a Partition {
        self.parts[r.part as usize]
    }

    #[inline]
    pub(crate) fn subject(&self, r: EventRef) -> EntityId {
        self.part(r).subject_at(r.row)
    }

    #[inline]
    pub(crate) fn object(&self, r: EventRef) -> EntityId {
        self.part(r).object_at(r.row)
    }

    #[inline]
    pub(crate) fn start(&self, r: EventRef) -> Timestamp {
        self.part(r).start_at(r.row)
    }

    #[inline]
    pub(crate) fn end(&self, r: EventRef) -> Timestamp {
        self.part(r).end_at(r.row)
    }

    /// Both time columns in micros, resolving the owning segment once (the
    /// join-index build reads start and end for every candidate).
    #[inline]
    pub(crate) fn start_end(&self, r: EventRef) -> (i64, i64) {
        let (s, e) = self.part(r).start_end_at(r.row);
        (s.micros(), e.micros())
    }

    /// Both entity columns, resolving the owning segment once (the join
    /// emission binds subject and object for every appended tuple).
    #[inline]
    pub(crate) fn subject_object(&self, r: EventRef) -> (EntityId, EntityId) {
        self.part(r).subject_object_at(r.row)
    }

    /// The agent whose partition holds the referenced row.
    #[inline]
    pub(crate) fn agent(&self, r: EventRef) -> aiql_model::AgentId {
        self.keys[r.part as usize].agent
    }

    /// Materializes the referenced event (the single materialization
    /// point).
    #[inline]
    pub(crate) fn event(&self, r: EventRef) -> Event {
        self.part(r).event_at(self.agent(r), r.row as usize)
    }
}

/// Read-only execution environment of one query: everything the operators
/// share and never mutate.
pub struct ExecEnv<'a> {
    pub store: &'a EventStore,
    pub a: &'a AnalyzedMultievent,
    pub config: &'a EngineConfig,
    /// The compiled shared phase: resolved vars, base filters, schedule.
    pub ctx: PlanCtx,
    /// The partition address space of this execution.
    pub parts: PartTable<'a>,
    /// Whether the query's projection (compiled at analysis) closes this
    /// execution, so the join streams into its sink; without one
    /// (`match_tuples`, an anomaly query's fetch) the join keeps its tuples.
    pub(crate) project: bool,
    /// The query governor (deadline, cancellation, memory budget), shared
    /// by every thread working on this query. `None` = ungoverned: every
    /// check compiles to a no-op branch.
    pub governor: Option<Arc<Governor>>,
    /// The budget's tuple cap ([`crate::ExecBudget::max_tuples`]), which
    /// the join enforces without a governor.
    pub(crate) max_tuples: usize,
}

impl ExecEnv<'_> {
    /// The governor, borrowed for the hot loops.
    #[inline]
    pub(crate) fn gov(&self) -> Option<&Governor> {
        self.governor.as_deref()
    }
}

/// A broken engine invariant, surfaced as a structured
/// [`EngineError::Internal`] instead of a panic: the query unwinds cleanly
/// and the sessions sharing the process keep running.
pub(crate) fn internal(message: impl Into<String>) -> EngineError {
    EngineError::Internal {
        message: message.into(),
    }
}

/// Locks a per-run result slot, recovering from poisoning. A drive thread
/// that panics is caught where it runs and surfaced as `WorkerPanic`
/// *before* any partial data behind the lock is consumed, so recovery here
/// can never leak a half-written result — it only avoids a secondary panic
/// while the query unwinds.
pub(crate) fn lock_clean<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`lock_clean`] for consuming the slot after every drive thread joined.
pub(crate) fn unwrap_clean<T>(m: std::sync::Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Mutable dataflow state threaded through the operator tree (`'e` is the
/// borrow of the [`ExecEnv`] the projection sink evaluates against).
pub struct PipelineState<'e> {
    /// Candidate refs per pattern (source order), filled by the scans.
    pub candidates: Vec<Option<Vec<EventRef>>>,
    /// Bound entity-id sets per variable (semi-join pushdown).
    pub bound: HashMap<usize, IdSet>,
    /// Sideways join-key filters per pattern (source order): the
    /// ⟨subject-domain, object-domain⟩ bitmap pair over the pattern's scan
    /// candidates, published by [`PatternScan`] and consumed by
    /// [`TemporalJoin`] to prune build sides, skip doomed probes, and shrink
    /// the seed frontier.
    pub domains: Vec<Option<(IdSet, IdSet)>>,
    /// (min_start, max_start, min_end, max_end) per executed pattern.
    pub time_stats: Vec<Option<(i64, i64, i64, i64)>>,
    /// The narrowed filter staged by [`SemiJoinNarrow`] for its parent
    /// [`PatternScan`].
    pub narrowed: Option<EventFilter>,
    /// The joined tuples (written by [`TemporalJoin`] unless it streamed
    /// into `sink`).
    pub frontier: RefArena,
    /// The projection sink the join drive pushed its tuples into (`None`:
    /// no projection closes the execution, and the join left a `frontier`).
    pub(crate) sink: Option<ProjectionSink<'e>>,
    /// Why the join stopped at its tuple cap ([`Warning::TupleCap`]);
    /// `None` when the cap never cut it.
    pub cap_trip: Option<Warning>,
    /// Short-circuit: a pattern produced no candidates (or was proven
    /// unsatisfiable), so every later operator no-ops.
    pub done: bool,
    /// Execution statistics, accumulated per operator by the driver.
    pub stats: ExecStats,
    /// The final result table (written by [`Project`]).
    pub table: Option<ResultTable>,
}

impl PipelineState<'_> {
    pub(crate) fn new(a: &AnalyzedMultievent, order: &[usize]) -> Self {
        let n = a.patterns.len();
        PipelineState {
            candidates: (0..n).map(|_| None).collect(),
            bound: HashMap::new(),
            domains: vec![None; n],
            time_stats: vec![None; n],
            narrowed: None,
            frontier: RefArena::new(n, a.vars.len()),
            sink: None,
            cap_trip: None,
            done: false,
            stats: ExecStats {
                fetched: vec![0; n],
                order: order.to_vec(),
                tuples: 0,
                ops: Vec::new(),
            },
            table: None,
        }
    }
}

/// Statistics of one execution, surfaced for benches and EXPLAIN ANALYZE.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Events fetched per pattern (source order).
    pub fetched: Vec<usize>,
    /// The order the patterns were scanned in (the schedule's; the join
    /// drives its own order, `OpStat::join_steps`).
    pub order: Vec<usize>,
    /// Final joined tuple count.
    pub tuples: usize,
    /// Per-operator timings and tuple in/out counts, in execution order.
    pub ops: Vec<OpStat>,
}

impl ExecStats {
    /// Renders the per-operator statistics as indented text — the
    /// `EXPLAIN ANALYZE` companion of [`crate::Engine::explain`]'s static plan:
    /// what each operator actually did (timings, row flow, fan-out, and the
    /// join's per-step probe-reduction counters).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let ms = |nanos: u64| nanos as f64 / 1e6;
        let mut out = String::new();
        // The scans run in schedule order; the join drives its own order,
        // seed first.
        let join_order: Vec<usize> = (self.ops.iter())
            .filter(|op| op.kind == "TemporalJoin")
            .flat_map(|op| op.join_steps.iter().map(|s| s.pattern))
            .collect();
        let _ = writeln!(
            out,
            "executed operators ({} tuple(s) joined, scan order {:?}, join order {:?}):",
            self.tuples, self.order, join_order
        );
        for op in &self.ops {
            let pattern = match op.pattern {
                Some(p) => format!(" #{p}"),
                None => String::new(),
            };
            let _ = write!(
                out,
                "  {}{} {:.3} ms | rows {} -> {} | fanout x{}",
                op.kind,
                pattern,
                ms(op.nanos),
                op.rows_in,
                op.rows_out,
                op.fanout,
            );
            if op.build_nanos > 0 || op.probe_nanos > 0 {
                let _ = write!(
                    out,
                    " | build {:.3} ms probe {:.3} ms | probe hits {} | bucket skipped {} | filter pruned {}",
                    ms(op.build_nanos),
                    ms(op.probe_nanos),
                    op.probe_hits,
                    op.bucket_skipped,
                    op.filter_pruned,
                );
            }
            if op.runs_driven > 0 {
                let _ = write!(
                    out,
                    " | runs {} | emitted {}",
                    op.runs_driven, op.emitted_tuples,
                );
                if let Some(d) = op.early_exit_depth {
                    let _ = write!(out, " | early exit at step {d}");
                }
            }
            if let Some(kept) = op.sink_kept {
                let _ = write!(out, " | sink: emitted {} → kept {kept}", op.rows_out);
            }
            out.push('\n');
            for s in &op.join_steps {
                let _ = write!(
                    out,
                    "    step pattern #{}: {} candidate(s) -> {} tuple(s) | probes {} hits {} | build {:.3} ms probe {:.3} ms",
                    s.pattern,
                    s.candidates,
                    s.rows_out,
                    s.probes,
                    s.probe_hits,
                    ms(s.build_nanos),
                    ms(s.probe_nanos),
                );
                if s.sorted_runs > 0 {
                    let _ = write!(
                        out,
                        " | {} sorted run(s), {} ref(s) skipped by time search",
                        s.sorted_runs, s.bucket_skipped
                    );
                }
                if s.filter_pruned > 0 {
                    let _ = write!(out, " | {} filter-pruned", s.filter_pruned);
                }
                if s.memo_hits + s.memo_misses > 0 {
                    let _ = write!(
                        out,
                        " | memo hits {} / misses {}",
                        s.memo_hits, s.memo_misses
                    );
                }
                out.push('\n');
            }
        }
        out
    }
}

/// One operator's contribution to [`ExecStats`]. An operator's `run`
/// fills its counters; the driver fills `kind`, `pattern` and `nanos`.
#[derive(Debug, Clone, Default)]
pub struct OpStat {
    /// Operator kind label (`PatternScan`, `SemiJoinNarrow`,
    /// `TemporalJoin`, `Project`, `Aggregate`).
    pub kind: &'static str,
    /// Pattern index (source order) for per-pattern operators.
    pub pattern: Option<usize>,
    /// Wall time spent inside the operator (at least 1ns once it ran).
    pub nanos: u64,
    /// Tuples the operator consumed.
    pub rows_in: usize,
    /// Tuples the operator produced.
    pub rows_out: usize,
    /// Threads the operator ran on (1 = the query thread alone): the
    /// join's parallel drive runs on `min(parallelism, runs)`.
    pub fanout: usize,
    /// Hash-index build time (joins only, 0 elsewhere): nanoseconds spent
    /// building the per-step candidate indexes, summed over join steps.
    pub build_nanos: u64,
    /// Probe time (joins only, 0 elsewhere): nanoseconds spent driving the
    /// frontier through the indexes, summed over join steps.
    pub probe_nanos: u64,
    /// Index probes that found a non-empty posting list (joins only),
    /// summed over join steps.
    pub probe_hits: u64,
    /// Candidate refs skipped without an exact temporal check because the
    /// probe's time search excluded them: outside every sorted run's
    /// admissible start slice, or in a posting no start can satisfy (joins
    /// only).
    pub bucket_skipped: u64,
    /// Build candidates, seed tuples, and probes eliminated by sideways
    /// bitmap filters (joins only).
    pub filter_pruned: u64,
    /// Seed runs the join drive drove to completion (joins only).
    pub runs_driven: u64,
    /// Bytes the parallel join drive's forks held together at their peak
    /// under a memory budget — never more than the budget's room when the
    /// drive started (joins only; 0 for a serial drive or no memory
    /// budget).
    pub fork_peak_bytes: u64,
    /// Tuples emitted across all join steps of those runs (joins only).
    pub emitted_tuples: u64,
    /// Join-order step depth at which the drive stopped emitting (`None` =
    /// every run driven to completion).
    pub early_exit_depth: Option<usize>,
    /// Rows, groups, or distinct keys the projection sink retained of the
    /// `rows_out` tuples the join pushed into it (joins only; `None` when
    /// no projection closes the execution and the join left a frontier).
    pub sink_kept: Option<usize>,
    /// Per-join-step detail (joins only, execution order of the steps).
    pub join_steps: Vec<JoinStepStat>,
}

/// One join step's probe-reduction accounting inside [`OpStat`] — the
/// EXPLAIN ANALYZE detail that makes probe regressions diagnosable without
/// a profiler.
#[derive(Debug, Clone, Default)]
pub struct JoinStepStat {
    /// Pattern index (source order) this step placed.
    pub pattern: usize,
    /// Candidate refs indexed (after sideways build pruning).
    pub candidates: usize,
    /// Frontier tuples after the step.
    pub rows_out: usize,
    /// Index probes attempted (after sideways probe skips).
    pub probes: u64,
    /// Probes that found a non-empty posting list.
    pub probe_hits: u64,
    /// Refs the time search excluded (no exact check run).
    pub bucket_skipped: u64,
    /// Candidates/seed tuples/probes eliminated by sideways filters.
    pub filter_pruned: u64,
    /// Sorted runs across this step's timed postings (0 = untimed index).
    pub sorted_runs: u64,
    /// Index build time of this step.
    pub build_nanos: u64,
    /// Probe time of this step (a memoised window's at the level it
    /// starts at).
    pub probe_nanos: u64,
    /// Tuples whose interface this step's memo already held (see
    /// `op/join.rs`, "The memo is a property of a level").
    pub memo_hits: u64,
    /// Tuples whose interface was new to the memo: their matches were
    /// enumerated once and memoised.
    pub memo_misses: u64,
}

impl JoinStepStat {
    /// Adds the counters `o` gathered for the same step: rows, probes,
    /// skips, probe time, memo hits and misses.
    pub(crate) fn add(&mut self, o: &JoinStepStat) {
        self.rows_out += o.rows_out;
        self.probes += o.probes;
        self.probe_hits += o.probe_hits;
        self.bucket_skipped += o.bucket_skipped;
        self.filter_pruned += o.filter_pruned;
        self.probe_nanos += o.probe_nanos;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
    }
}

/// The uniform physical-operator interface: one batch-oriented `run` over
/// the shared pipeline state.
pub trait Operator: std::fmt::Debug + Send + Sync {
    /// Operator kind label (matches [`OpStat::kind`] and `EXPLAIN`).
    fn kind(&self) -> &'static str;

    /// Pattern index for per-pattern operators.
    fn pattern(&self) -> Option<usize> {
        None
    }

    /// Executes the operator, reading and writing the pipeline state, and
    /// returns its counters.
    fn run<'e>(
        &self,
        env: &'e ExecEnv<'_>,
        st: &mut PipelineState<'e>,
    ) -> Result<OpStat, EngineError>;

    /// The decision [`Operator::run`] will make, as `EXPLAIN` prints it: read
    /// from the same configuration fields, plan and filters `run` reads
    /// before any data flows, so the two cannot drift.
    fn describe(&self, env: &ExecEnv<'_>) -> String;
}

/// A node of the physical plan tree.
pub struct PlanNode {
    pub op: Box<dyn Operator>,
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Executes the subtree post-order (children feed parents), timing
    /// every operator into [`ExecStats::ops`].
    pub fn execute<'e>(
        &self,
        env: &'e ExecEnv<'_>,
        st: &mut PipelineState<'e>,
    ) -> Result<(), EngineError> {
        for child in &self.children {
            child.execute(env, st)?;
        }
        let t0 = Instant::now();
        let stat = self.op.run(env, st)?;
        st.stats.ops.push(OpStat {
            kind: self.op.kind(),
            pattern: self.op.pattern(),
            // Clamp to 1ns: "ran, under the clock's resolution" must stay
            // distinguishable from "never ran".
            nanos: (t0.elapsed().as_nanos() as u64).max(1),
            fanout: stat.fanout.max(1),
            ..stat
        });
        Ok(())
    }
}

/// Builds the operator tree: one `SemiJoinNarrow → PatternScan` chain per
/// pattern in schedule order, feeding the `TemporalJoin`, under
/// `Project`/`Aggregate` when the query's projection closes it (`project`).
pub fn plan_tree(a: &AnalyzedMultievent, order: &[usize], project: bool) -> PlanNode {
    let scans = order
        .iter()
        .map(|&i| PlanNode {
            op: Box::new(PatternScan::new(i)),
            children: vec![PlanNode {
                op: Box::new(SemiJoinNarrow::new(i)),
                children: Vec::new(),
            }],
        })
        .collect();
    let join = PlanNode {
        op: Box::new(TemporalJoin),
        children: scans,
    };
    match project {
        true => PlanNode {
            op: Box::new(Project::new(a.projection.aggregated)),
            children: vec![join],
        },
        false => join,
    }
}
