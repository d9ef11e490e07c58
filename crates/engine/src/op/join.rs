//! `TemporalJoin`: the multi-way hash join over per-pattern candidate
//! refs, verifying shared-variable equality and temporal relationships.
//!
//! ## Order and indexes
//!
//! Patterns join in a connectivity-aware greedy order (`plan_join_order`):
//! the smallest candidate list seeds the frontier, then the smallest
//! pattern sharing a variable with the placed set, else one related to it
//! in time. Every later step indexes its candidates — once, up front — by
//! the entity ids of the variables the frontier already binds (a pattern
//! binds at most two, so the key packs into one `u64`). A step with
//! temporal relations to placed patterns builds a `StepIndex::Timed`:
//! posting lists carry dense start/end columns plus per-chunk start-bucket
//! zone maps over a `BucketGrid` sized from the candidate time range, so
//! a probe derives the tuple's admissible start/end intervals once, skips
//! whole chunks whose zone cannot intersect, and verifies survivors
//! against the dense columns. A relation-free step builds a
//! `StepIndex::Plain` and every match joins. Large builds shard by key
//! hash on the executor (scatter, then gather in candidate order), so a
//! sharded index answers exactly as a serial one.
//!
//! Sideways filters cut work before it happens: scans publish bitmap
//! domains of their candidates' subject/object ids; the join prunes each
//! step's build with the placed partners' domains, pre-filters probes
//! against the step's own domains, and prunes the seed with the second
//! step's domains before any tuple exists. All of it counts into
//! `filter_pruned`; none of it changes a result.
//!
//! ## The drive
//!
//! There is one drive, for every pattern count. The seed candidates are
//! taken in runs of `join_block_tuples` tuples, and each run is driven
//! depth-first through *every* step before the next run starts. Within a
//! run the recursion is *chunked*: a non-final step consumes its input in
//! `EXPAND_CHUNK`-tuple windows, probes one window into the level's
//! reused scratch arena (one **expansion**, capped at `max_intermediate`
//! tuples), and recurses on the expansion before the next window runs. The
//! final step delivers straight into the drive's `JoinOutput`: the
//! projection sink when a compiled projection closes the pipeline — each
//! joined tuple is evaluated as it is found and never written anywhere;
//! what is kept is what `return` needs (see `op/project.rs`) — or an output
//! arena when nothing projects (`match_tuples`) or the projection keeps the
//! dynamic path. A single-pattern query has no join: its seed *is* the
//! final step, and the candidates are delivered in candidate order.
//!
//! Windows run in input order and the recursion is depth-first, so the
//! output is in nested-loop emission order, and a prefix of it in that
//! order whenever `max_intermediate` (or a governor budget) trips. Once the
//! output cap fills, every unconsumed window — and every remaining seed
//! run — is never driven at all. Live intermediate memory is bounded by the
//! per-level scratch high-water marks.
//!
//! Cap/truncation semantics: a non-final seed expansion is exempt from the
//! intermediate cap (it is bounded by the block size by construction,
//! which also keeps sideways seed pruning emission-invariant under
//! truncation); an expansion that hits `max_intermediate` is still
//! recursed on — its prefix's subtree finishes — and then cuts the run,
//! stopping the drive after it; the final step draws on the output budget
//! (`max_intermediate` delivered tuples across the whole drive).
//!
//! With an executor attached and enough seed tuples, runs fan out: each
//! fills a fork of the output under a shared `JoinBudget` and the forks
//! fold into the output in ascending seed order. A run whose partial
//! overshoots the remaining room (the one run that straddles the cap) or
//! would not merge bit for bit (float sums) is dropped and re-driven on the
//! merge thread into the output itself, so the serial and parallel drives
//! produce the same output by construction.
//!
//! Governor integration: a memory budget forces the serial drive, which
//! *live-charges* each expansion's bytes while its subtree runs and what
//! the output retains permanently (every tuple of an arena; only the rows,
//! group states or distinct keys of a projection sink) — a trip stops the
//! drive at a deterministic tuple (error mode unwinds, partial mode keeps
//! the emission-order prefix, or its projection). Deadline/cancel trips
//! are polled inside every probe loop; the parallel merge drops a tripped
//! run's partial output and stops at the previous run boundary, while the
//! serial drive keeps its own partial emission (either way a valid
//! emission-order prefix).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use aiql_model::EntityId;
use aiql_storage::IdSet;

use crate::analyze::{AnalyzedMultievent, StepRel};
use crate::error::EngineError;
use crate::governor::{GovGate, Governor};
use crate::op::{
    worker_panic, EventRef, ExecEnv, Flow, JoinOutput, JoinStepStat, OpIo, Operator, PartTable,
    PipelineState, ProjectionSink, RefArena, NO_VAR,
};

/// Minimum seed tuples before the drive fans its runs out in auto mode
/// (`join_partitions = 0`). Below this the fork/merge overhead outweighs
/// the join.
const PARALLEL_JOIN_MIN_WORK: usize = 1024;

/// Minimum candidate-list size before a step's hash-index *build* fans out
/// into key-hash shards in auto mode. Below this the two-phase
/// scatter/gather costs more than the serial insert loop.
const PARALLEL_INDEX_MIN_BUILD: usize = 4096;

/// How many delivered tuples a run produces between refreshes of its
/// shared-budget cap. Bounds how far a run can overshoot the budget before
/// it notices earlier runs have already filled it.
const BUDGET_REFRESH: usize = 4096;

/// Target bucket count of a timed index's [`BucketGrid`]. The bucket width
/// is the candidate start-time range divided by this (floored to ≥ 1 µs),
/// so sparse steps get wide buckets and dense steps fine ones.
const TIME_BUCKETS: i64 = 256;

/// Posting-list refs covered by one zone-map entry of a timed index. The
/// probe skips a whole chunk when its (min, max) start-bucket zone cannot
/// intersect the tuple's admissible bucket range.
const BUCKET_CHUNK: usize = 64;

/// Ceiling on the drive's run count: with more seed tuples than
/// `MAX_RUNS × join_block_tuples`, the effective block grows instead. The
/// result is byte-identical across block sizes, and the clamp keeps the
/// shared output budget's prefix sums (O(runs) per refresh) cheap.
const MAX_RUNS: usize = 4096;

/// Input tuples per expansion window of the drive's depth-first
/// recursion: each window probes one step into that level's reused scratch
/// arena and recurses on the result before the next window runs. Small
/// enough that live per-level expansions stay allocation-light, large
/// enough that the per-window bookkeeping (timers, cap trackers)
/// disappears against probe work.
const EXPAND_CHUNK: usize = 256;

/// The multi-way join operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct TemporalJoin;

impl TemporalJoin {
    pub(crate) fn new() -> Self {
        TemporalJoin
    }
}

impl Operator for TemporalJoin {
    fn kind(&self) -> &'static str {
        "TemporalJoin"
    }

    fn run<'e>(
        &self,
        env: &'e ExecEnv<'_>,
        st: &mut PipelineState<'e>,
    ) -> Result<OpIo, EngineError> {
        if st.done {
            // A pattern came back empty: the frontier stays empty, and the
            // projection above produces the empty table.
            st.stats.tuples = 0;
            return Ok(OpIo::default());
        }
        let candidates: Vec<Vec<EventRef>> = std::mem::take(&mut st.candidates)
            .into_iter()
            .map(|c| c.ok_or_else(|| crate::op::internal("join ran before a pattern's scan")))
            .collect::<Result<_, _>>()?;
        let rows_in: usize = candidates.iter().map(Vec::len).sum();
        let cand_bytes = (rows_in * std::mem::size_of::<EventRef>()) as u64;
        let (frontier, sink, run) = join_refs(env, candidates, &st.domains)?;
        st.sink = sink;
        // The candidate batches the scans charged are consumed now; only
        // what the output retains (charged inside the drive) remains live.
        if let Some(g) = env.gov() {
            g.uncharge(cand_bytes);
        }
        st.truncated = run.truncated;
        // Tuples the join produced: left in the frontier, or pushed into
        // the projection sink.
        let sink_kept = st.sink.as_ref().map(ProjectionSink::kept);
        let rows_out = st
            .sink
            .as_ref()
            .map_or(frontier.len(), ProjectionSink::pushed);
        st.stats.tuples = rows_out;
        st.frontier = frontier;
        Ok(OpIo {
            rows_in,
            rows_out,
            fanout: run.fanout,
            build_nanos: run.build_nanos,
            probe_nanos: run.probe_nanos,
            probe_hits: run.probe_hits,
            bucket_skipped: run.bucket_skipped,
            filter_pruned: run.filter_pruned,
            runs_driven: run.runs_driven,
            emitted_tuples: run.emitted_tuples,
            early_exit_depth: run.early_exit_depth,
            sink_kept,
            join_steps: run.steps,
        })
    }
}

/// Aggregate accounting of one join execution: truncation, widest
/// run/shard fan-out, the per-phase timing split (index builds vs the
/// drive), the probe-reduction counters, and the per-step breakdown for
/// EXPLAIN ANALYZE.
#[derive(Debug, Clone, Default)]
struct JoinRun {
    truncated: bool,
    fanout: usize,
    build_nanos: u64,
    probe_nanos: u64,
    probe_hits: u64,
    bucket_skipped: u64,
    filter_pruned: u64,
    /// Seed runs merged into the output.
    runs_driven: u64,
    /// Tuples emitted across all merged runs' steps.
    emitted_tuples: u64,
    /// The step depth at which the drive stopped emitting (`None` = every
    /// run was driven to completion).
    early_exit_depth: Option<usize>,
    steps: Vec<JoinStepStat>,
}

/// The smallest seed the drive fans out over when an executor is attached:
/// more than one run's worth of tuples (a single run has nothing to fan
/// out), and enough work to pay for the fork/merge — unless
/// `join_partitions` forces it (tests exercise tiny seeds through the
/// parallel drive). EXPLAIN quotes it next to the worker count.
pub(crate) fn parallel_seed_floor(config: &crate::engine::EngineConfig) -> usize {
    let min_work = if config.join_partitions > 0 {
        2
    } else {
        PARALLEL_JOIN_MIN_WORK
    };
    min_work.max(config.join_block_tuples.max(1) + 1)
}

/// Whether a drive over `work` seed tuples fans its runs out: an executor
/// is attached and the seed reaches [`parallel_seed_floor`].
fn parallel_drive(env: &ExecEnv<'_>, work: usize) -> bool {
    env.pool.is_some()
        && (env.config.join_partitions > 0 || env.config.parallelism > 1)
        && work >= parallel_seed_floor(env.config)
}

/// Packs the at-most-two bound entity ids of a pattern into one `u64`
/// (`NO_VAR` pads the unused half).
#[inline]
fn pack(ids: [u32; 2]) -> u64 {
    (u64::from(ids[0]) << 32) | u64::from(ids[1])
}

/// SplitMix64 finalizer: spreads packed entity-id keys across shards (the
/// raw keys are dense small integers — `key % shards` would pile them up).
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The shard owning `key` in an `n`-shard index.
#[inline]
fn shard_of(key: u64, n: usize) -> usize {
    (mix(key) % n as u64) as usize
}

/// Like [`shard_of`], skipping the hash for single-shard indexes.
#[inline]
fn route(key: u64, n: usize) -> usize {
    if n == 1 {
        0
    } else {
        shard_of(key, n)
    }
}

/// One scatter chunk's output: a (key, ref) bucket per shard.
type ShardBuckets = Vec<Vec<(u64, EventRef)>>;

/// One timed scatter row: key, ref, and its start/end times in micros.
type TimedRow = (u64, EventRef, i64, i64);

/// One timed scatter chunk's output: a [`TimedRow`] bucket per shard.
type TimedShardBuckets = Vec<Vec<TimedRow>>;

/// Start-time bucket grid of a timed step index, sized at build time from
/// the candidate range ([`TIME_BUCKETS`] target buckets, width ≥ 1 µs).
/// `max_dur`/`min_dur` are the extreme candidate durations, folding the
/// probe's admissible *end* interval onto start buckets (a candidate with
/// `end ≥ elo` must have `start ≥ elo − max_dur`, and with `end ≤ ehi`
/// must have `start ≤ ehi − min_dur`).
#[derive(Debug, Clone, Copy)]
struct BucketGrid {
    /// Start-time origin: the smallest candidate start.
    base: i64,
    /// Bucket width in microseconds (≥ 1).
    width: i64,
    /// Bucket count covering the candidate start range.
    buckets: u32,
    /// Largest candidate duration (`end − start`), ≥ 0.
    max_dur: i64,
    /// Smallest candidate duration (may be 0; negative only on malformed
    /// events, which the fold then still covers soundly).
    min_dur: i64,
}

impl BucketGrid {
    /// Build-side bucket id of a candidate start in `[base, max_start]`.
    #[inline]
    fn bucket_of(&self, start: i64) -> u16 {
        (start.saturating_sub(self.base) / self.width) as u16
    }

    /// Probe-side bucket id of an arbitrary instant, clamped to the grid.
    #[inline]
    fn clamp(&self, t: i64) -> u16 {
        let b = t.saturating_sub(self.base) / self.width;
        b.clamp(0, i64::from(self.buckets - 1)) as u16
    }
}

/// Running start-time/duration aggregate of a timed index build, reduced
/// across scatter chunks before the grid is fixed.
#[derive(Debug, Clone, Copy)]
struct TimeAgg {
    min_start: i64,
    max_start: i64,
    max_dur: i64,
    min_dur: i64,
}

impl Default for TimeAgg {
    fn default() -> Self {
        TimeAgg {
            min_start: i64::MAX,
            max_start: i64::MIN,
            max_dur: 0,
            min_dur: 0,
        }
    }
}

impl TimeAgg {
    #[inline]
    fn add(&mut self, s: i64, e: i64) {
        self.min_start = self.min_start.min(s);
        self.max_start = self.max_start.max(s);
        let dur = e.saturating_sub(s);
        self.max_dur = self.max_dur.max(dur);
        self.min_dur = self.min_dur.min(dur);
    }

    fn merge(&mut self, o: &TimeAgg) {
        self.min_start = self.min_start.min(o.min_start);
        self.max_start = self.max_start.max(o.max_start);
        self.max_dur = self.max_dur.max(o.max_dur);
        self.min_dur = self.min_dur.min(o.min_dur);
    }

    /// The bucket grid covering the observed start range (a degenerate
    /// one-bucket grid when no candidate survived the build filter).
    fn grid(&self) -> BucketGrid {
        if self.min_start > self.max_start {
            return BucketGrid {
                base: 0,
                width: 1,
                buckets: 1,
                max_dur: 0,
                min_dur: 0,
            };
        }
        let range = self.max_start.saturating_sub(self.min_start);
        let width = (range / TIME_BUCKETS + 1).max(1);
        BucketGrid {
            base: self.min_start,
            width,
            buckets: (range / width + 1) as u32,
            max_dur: self.max_dur,
            min_dur: self.min_dur,
        }
    }
}

/// One key's posting list in a timed index: refs in candidate order with
/// their start/end times as dense columns (the probe's exact temporal
/// check reads these instead of re-resolving partition rows), plus a
/// (min, max) start-bucket zone per [`BUCKET_CHUNK`] refs for skipping.
#[derive(Debug, Default)]
struct Postings {
    refs: Vec<EventRef>,
    starts: Vec<i64>,
    ends: Vec<i64>,
    zones: Vec<(u16, u16)>,
}

impl Postings {
    #[inline]
    fn push(&mut self, r: EventRef, s: i64, e: i64, bucket: u16) {
        if self.refs.len().is_multiple_of(BUCKET_CHUNK) {
            self.zones.push((bucket, bucket));
        } else {
            let z = self.zones.last_mut().expect("zone entry exists");
            z.0 = z.0.min(bucket);
            z.1 = z.1.max(bucket);
        }
        self.refs.push(r);
        self.starts.push(s);
        self.ends.push(e);
    }
}

/// One join step's candidate hash index: key-hash shards (1 = serial
/// build) of plain ref lists, or — when the step has temporal relations
/// to placed patterns — of time-bucketed [`Postings`]. Probes hash the key
/// to its shard, so sharded and single
/// indexes answer identically; the build preserves candidate order within
/// every key's ref list (scatter chunks are contiguous candidate ranges
/// gathered in chunk order), so the probe traversal — and therefore the
/// joined frontier — is byte-identical to the serial build.
enum StepIndex {
    Plain(Vec<HashMap<u64, Vec<EventRef>>>),
    Timed {
        shards: Vec<HashMap<u64, Postings>>,
        grid: BucketGrid,
    },
}

impl StepIndex {
    /// Build fan-out used (1 = serial).
    fn shard_count(&self) -> usize {
        match self {
            StepIndex::Plain(s) => s.len(),
            StepIndex::Timed { shards, .. } => shards.len(),
        }
    }

    /// Total refs across every posting (an upper bound on one frontier
    /// tuple's emission, used to size the output reservation).
    fn total_refs(&self) -> usize {
        match self {
            StepIndex::Plain(shards) => shards.iter().flat_map(HashMap::values).map(Vec::len).sum(),
            StepIndex::Timed { shards, .. } => shards
                .iter()
                .flat_map(HashMap::values)
                .map(|p| p.refs.len())
                .sum(),
        }
    }

    /// Time-bucket count (0 = untimed index).
    fn buckets(&self) -> u32 {
        match self {
            StepIndex::Plain(_) => 0,
            StepIndex::Timed { grid, .. } => grid.buckets,
        }
    }

    /// Bucket width in micros (0 = untimed index).
    fn bucket_width(&self) -> i64 {
        match self {
            StepIndex::Plain(_) => 0,
            StepIndex::Timed { grid, .. } => grid.width,
        }
    }
}

/// Shard count for building a step's index over `candidates` refs, or
/// `None` for the serial build. Sharding only pays when the step has bound
/// variables (`bound`): an unconnected step puts every candidate under one
/// key, where sharding is pure overhead.
fn index_shards(env: &ExecEnv<'_>, candidates: usize, bound: bool) -> Option<usize> {
    if !bound || env.pool.is_none() {
        return None;
    }
    if env.config.join_partitions > 0 {
        // Explicit partition count: force the sharded build (tests exercise
        // tiny candidate lists through it).
        (candidates >= 2).then_some(env.config.join_partitions.min(candidates))
    } else {
        let threads = env.config.parallelism.max(1);
        (threads > 1 && candidates >= PARALLEL_INDEX_MIN_BUILD)
            .then(|| (threads * 2).min(candidates))
    }
}

/// Builds a step's candidate index, fanning the build out into key-hash
/// shards when [`index_shards`] says it pays. The parallel build runs in
/// two phases on the scan executor: *scatter* — contiguous candidate
/// chunks bucket their (key, ref) pairs by shard — then *gather* — each
/// shard inserts its buckets in chunk order. Both phases preserve
/// candidate order per key.
/// When `timed`, the index resolves every candidate's start/end once at
/// build time (one segment locate per candidate instead of one per probe
/// match) and carries them as dense posting columns under a [`BucketGrid`]
/// reduced from per-chunk time aggregates.
fn build_index(
    env: &ExecEnv<'_>,
    refs: &[EventRef],
    same_var: bool,
    key_of: &(dyn Fn(EventRef) -> u64 + Sync),
    bound: bool,
    timed: bool,
) -> Result<StepIndex, EngineError> {
    let parts = &env.parts;
    let nshards = index_shards(env, refs.len(), bound).filter(|&s| s > 1);
    let Some(nshards) = nshards else {
        if timed {
            let mut rows: Vec<TimedRow> = Vec::with_capacity(refs.len());
            let mut agg = TimeAgg::default();
            for &r in refs {
                if same_var && parts.subject(r) != parts.object(r) {
                    continue;
                }
                let (s, e) = parts.start_end(r);
                agg.add(s, e);
                rows.push((key_of(r), r, s, e));
            }
            let grid = agg.grid();
            let mut index: HashMap<u64, Postings> = HashMap::new();
            for (key, r, s, e) in rows {
                index
                    .entry(key)
                    .or_default()
                    .push(r, s, e, grid.bucket_of(s));
            }
            return Ok(StepIndex::Timed {
                shards: vec![index],
                grid,
            });
        }
        let mut index: HashMap<u64, Vec<EventRef>> = HashMap::new();
        for &r in refs {
            if same_var && parts.subject(r) != parts.object(r) {
                continue;
            }
            index.entry(key_of(r)).or_default().push(r);
        }
        return Ok(StepIndex::Plain(vec![index]));
    };
    let Some(pool) = env.pool.as_ref() else {
        return Err(crate::op::internal(
            "sharded index build scheduled without a scan executor",
        ));
    };
    let workers = env.config.parallelism.max(1);
    let chunk = refs.len().div_ceil(nshards);
    if timed {
        // Scatter: chunk c buckets its candidate range by shard, tracking
        // the chunk's local time aggregate.
        let scattered: Vec<Mutex<(TimedShardBuckets, TimeAgg)>> = (0..nshards)
            .map(|_| Mutex::new((Vec::new(), TimeAgg::default())))
            .collect();
        pool.run_chunks_capped(nshards, workers, &|c| {
            let lo = (c * chunk).min(refs.len());
            let hi = (lo + chunk).min(refs.len());
            let mut buckets: TimedShardBuckets = (0..nshards).map(|_| Vec::new()).collect();
            let mut agg = TimeAgg::default();
            for &r in &refs[lo..hi] {
                if same_var && parts.subject(r) != parts.object(r) {
                    continue;
                }
                let key = key_of(r);
                let (s, e) = parts.start_end(r);
                agg.add(s, e);
                buckets[shard_of(key, nshards)].push((key, r, s, e));
            }
            *crate::op::lock_clean(&scattered[c]) = (buckets, agg);
        })
        .map_err(worker_panic)?;
        let scattered: Vec<(TimedShardBuckets, TimeAgg)> =
            scattered.into_iter().map(crate::op::unwrap_clean).collect();
        // The grid reduces over chunk aggregates on the query thread, so
        // every shard gathers against the same (deterministic) grid.
        let mut agg = TimeAgg::default();
        for (_, chunk_agg) in &scattered {
            agg.merge(chunk_agg);
        }
        let grid = agg.grid();
        // Gather: shard s drains every chunk's bucket s, in chunk order.
        let shards: Vec<Mutex<HashMap<u64, Postings>>> =
            (0..nshards).map(|_| Mutex::new(HashMap::new())).collect();
        pool.run_chunks_capped(nshards, workers, &|s| {
            let mut map: HashMap<u64, Postings> = HashMap::new();
            for (chunk_buckets, _) in &scattered {
                for &(key, r, start, end) in &chunk_buckets[s] {
                    map.entry(key)
                        .or_default()
                        .push(r, start, end, grid.bucket_of(start));
                }
            }
            *crate::op::lock_clean(&shards[s]) = map;
        })
        .map_err(worker_panic)?;
        return Ok(StepIndex::Timed {
            shards: shards.into_iter().map(crate::op::unwrap_clean).collect(),
            grid,
        });
    }
    // Scatter: chunk c buckets its candidate range by shard.
    let scattered: Vec<Mutex<ShardBuckets>> =
        (0..nshards).map(|_| Mutex::new(Vec::new())).collect();
    pool.run_chunks_capped(nshards, workers, &|c| {
        let lo = (c * chunk).min(refs.len());
        let hi = (lo + chunk).min(refs.len());
        let mut buckets: ShardBuckets = (0..nshards).map(|_| Vec::new()).collect();
        for &r in &refs[lo..hi] {
            if same_var && parts.subject(r) != parts.object(r) {
                continue;
            }
            let key = key_of(r);
            buckets[shard_of(key, nshards)].push((key, r));
        }
        *crate::op::lock_clean(&scattered[c]) = buckets;
    })
    .map_err(worker_panic)?;
    let scattered: Vec<ShardBuckets> = scattered.into_iter().map(crate::op::unwrap_clean).collect();
    // Gather: shard s drains every chunk's bucket s, in chunk order.
    let shards: Vec<Mutex<HashMap<u64, Vec<EventRef>>>> =
        (0..nshards).map(|_| Mutex::new(HashMap::new())).collect();
    pool.run_chunks_capped(nshards, workers, &|s| {
        let mut map: HashMap<u64, Vec<EventRef>> = HashMap::new();
        for chunk_buckets in &scattered {
            for &(key, r) in &chunk_buckets[s] {
                map.entry(key).or_default().push(r);
            }
        }
        *crate::op::lock_clean(&shards[s]) = map;
    })
    .map_err(worker_panic)?;
    Ok(StepIndex::Plain(
        shards.into_iter().map(crate::op::unwrap_clean).collect(),
    ))
}

/// Shared output budget of one parallel drive. `produced[k]` is a monotone
/// running count of run `k`'s delivered tuples (published every
/// [`BUDGET_REFRESH`] deliveries and at completion), so any run can compute
/// a lower bound on the tuples committed before it in merge order — a
/// running count can only grow toward its final value, so the bound stays
/// sound. Publishing progress (not just completion) keeps what a truncating
/// drive delivers near `max` plus a refresh-interval of slack per run,
/// instead of `max` *per run*.
struct JoinBudget {
    max: usize,
    produced: Vec<AtomicUsize>,
}

impl JoinBudget {
    fn new(max: usize, runs: usize) -> Self {
        JoinBudget {
            max,
            produced: (0..runs).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Upper bound on how many tuples run `k` could still contribute to the
    /// merged output. Earlier runs' published counts only push this down,
    /// never up, so acting on a stale value is sound.
    fn cap(&self, k: usize) -> usize {
        let committed_before: usize = self.produced[..k]
            .iter()
            .map(|d| d.load(Ordering::Acquire))
            .sum();
        self.max.saturating_sub(committed_before)
    }

    /// Publishes run `k`'s running (monotone) tuple count.
    fn publish(&self, k: usize, produced: usize) {
        self.produced[k].store(produced, Ordering::Release);
    }
}

/// Delivery-budget tracker of one expansion or output: stops at `cap`
/// delivered tuples, periodically tightening the cap from the shared budget
/// (parallel runs only — the serial drive's caps are fixed).
struct CapTracker<'b> {
    cap: usize,
    shared: Option<(&'b JoinBudget, usize)>,
    /// Governor polled at each refresh (dense emission — a seed run, one
    /// tuple's long posting list — reaches it through `exhausted` even
    /// without per-tuple gate ticks).
    gov: Option<&'b Governor>,
    /// Set when a governor trip (not budget exhaustion) stopped the drive.
    gov_stop: bool,
    next_refresh: usize,
}

impl<'b> CapTracker<'b> {
    fn fixed(cap: usize, gov: Option<&'b Governor>) -> Self {
        CapTracker {
            cap,
            shared: None,
            gov,
            gov_stop: false,
            next_refresh: if gov.is_some() {
                BUDGET_REFRESH
            } else {
                usize::MAX
            },
        }
    }

    fn shared(budget: &'b JoinBudget, k: usize, gov: Option<&'b Governor>) -> Self {
        CapTracker {
            cap: budget.cap(k),
            shared: Some((budget, k)),
            gov,
            gov_stop: false,
            next_refresh: BUDGET_REFRESH,
        }
    }

    /// Called after each delivery with the output's length; `true` means
    /// stop (the budget is exhausted, or the governor tripped — see
    /// `gov_stop`). The cap only ever shrinks, so stopping is final. On
    /// each refresh the run's own progress is published, tightening the
    /// caps of later runs while this one is still running.
    #[inline]
    fn exhausted(&mut self, len: usize) -> bool {
        if len >= self.next_refresh {
            if let Some((budget, k)) = self.shared {
                budget.publish(k, len);
                self.cap = self.cap.min(budget.cap(k));
            }
            if self.gov.is_some_and(|g| g.check().is_err()) {
                self.gov_stop = true;
                return true;
            }
            self.next_refresh = len + BUDGET_REFRESH;
        }
        len >= self.cap
    }
}

/// The join order: seed with the smallest candidate list, then greedily
/// place the smallest-candidate pattern *connected* to the
/// placed set — by a shared variable first, by a temporal relation
/// second. A variable-sharing step probes by key and a related step
/// prunes by time, but an unconnected pick cross-products the frontier
/// straight into `max_intermediate` and every later step pays to probe
/// the blow-up.
fn plan_join_order(a: &AnalyzedMultievent, sizes: &[usize]) -> Vec<usize> {
    let n = sizes.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut var_bound = vec![false; a.vars.len()];
    for _ in 0..n {
        let next = (0..n)
            .filter(|&i| !placed[i])
            .min_by_key(|&i| {
                let p = &a.patterns[i];
                let class = if order.is_empty() || var_bound[p.subject] || var_bound[p.object] {
                    0
                } else if !a.step_relations(i, &placed).is_empty() {
                    1
                } else {
                    2
                };
                (class, sizes[i], i)
            })
            .expect("a pattern remains unplaced");
        placed[next] = true;
        var_bound[a.patterns[next].subject] = true;
        var_bound[a.patterns[next].object] = true;
        order.push(next);
    }
    order
}

/// Multi-way hash join over the per-pattern candidate refs. Returns the
/// joined tuples — or, when a compiled projection closes the pipeline, an
/// empty arena and the sink the drive streamed them into — plus the run
/// accounting (truncation, widest fan-out, build/probe timing split).
fn join_refs<'e>(
    env: &'e ExecEnv<'_>,
    candidates: Vec<Vec<EventRef>>,
    domains: &[Option<(IdSet, IdSet)>],
) -> Result<(RefArena, Option<ProjectionSink<'e>>, JoinRun), EngineError> {
    let (n, nvars) = (env.a.patterns.len(), env.a.vars.len());
    // With a compiled projection closing the pipeline, the final step
    // pushes into its sink; otherwise the tuples are kept.
    match ProjectionSink::new(env) {
        Some(sink) => drive_join(env, &candidates, domains, sink)
            .map(|(sink, run)| (RefArena::new(n, nvars), Some(sink), run)),
        None => drive_join(env, &candidates, domains, RefArena::new(n, nvars))
            .map(|(arena, run)| (arena, None, run)),
    }
}

/// Sideways seed pruning: before the seed frontier exists, drop seed
/// candidates whose shared-variable ids are absent from the *second* step's
/// candidate domains — such tuples probe a missing key at step two and
/// extend nothing. Restricting the filter to the second step keeps the
/// emission identical to the unfiltered run even under a truncating
/// `max_intermediate`: a dropped tuple emits nothing at step two, so every
/// surviving emission happens at the same position. Gated off under a
/// memory budget (the seed expansion is live-charged, so pruning would move
/// the trip point) and when the seed list itself could truncate. `None`
/// when nothing applies; otherwise the kept refs.
fn sideways_seed_prune(
    env: &ExecEnv<'_>,
    candidates: &[Vec<EventRef>],
    domains: &[Option<(IdSet, IdSet)>],
    join_order: &[usize],
) -> Option<Vec<EventRef>> {
    let (a, parts) = (env.a, &env.parts);
    let (&seed, &second) = (join_order.first()?, join_order.get(1)?);
    if env.gov().is_some_and(|g| g.has_memory_budget())
        || candidates[seed].len() > env.config.max_intermediate
    {
        return None;
    }
    let (subj, obj) = domains[second].as_ref()?;
    let sp = &a.patterns[seed];
    let qp = &a.patterns[second];
    // For every variable the seed shares with the second pattern: (read
    // the seed candidate's subject side?, partner domain).
    let mut checks: Vec<(bool, &IdSet)> = Vec::new();
    for (v, seed_is_subject) in [(sp.subject, true), (sp.object, false)] {
        if qp.subject == v {
            checks.push((seed_is_subject, subj));
        }
        if qp.object == v && qp.object != qp.subject {
            checks.push((seed_is_subject, obj));
        }
    }
    if checks.is_empty() {
        return None;
    }
    let keep = |r: &EventRef| {
        checks.iter().all(|&(is_subj, set)| {
            set.contains(if is_subj {
                parts.subject(*r)
            } else {
                parts.object(*r)
            })
        })
    };
    Some(candidates[seed].iter().copied().filter(keep).collect())
}

/// Sideways build-side pruning for the step placing pattern `i`:
/// drop candidates whose bound-variable ids are absent from some
/// already-placed partner pattern's candidate domain. The frontier only
/// ever carries ids drawn from every placed binder's domain, so a dropped
/// candidate could never have been probed — the index (and the frontier)
/// is unchanged. Returns `None` when no partner domain applies; otherwise
/// the kept refs, with the dropped count added to `pruned`.
fn sideways_build_prune(
    env: &ExecEnv<'_>,
    domains: &[Option<(IdSet, IdSet)>],
    placed: &[bool],
    i: usize,
    bound_vars: &[usize],
    base_refs: &[EventRef],
    pruned: &mut u64,
) -> Option<Vec<EventRef>> {
    if bound_vars.is_empty() {
        return None;
    }
    let a = env.a;
    let parts = &env.parts;
    let p = &a.patterns[i];
    let mut partner_sets: Vec<(usize, Vec<&IdSet>)> = Vec::new();
    for &v in bound_vars {
        let mut sets: Vec<&IdSet> = Vec::new();
        for (q, qp) in a.patterns.iter().enumerate() {
            if q == i || !placed[q] {
                continue;
            }
            let Some((subj, obj)) = &domains[q] else {
                continue;
            };
            if qp.subject == v {
                sets.push(subj);
            }
            if qp.object == v && qp.object != qp.subject {
                sets.push(obj);
            }
        }
        if !sets.is_empty() {
            partner_sets.push((v, sets));
        }
    }
    if partner_sets.is_empty() {
        return None;
    }
    let kept: Vec<EventRef> = base_refs
        .iter()
        .copied()
        .filter(|&r| {
            partner_sets.iter().all(|(v, sets)| {
                let id = if *v == p.subject {
                    parts.subject(r)
                } else {
                    parts.object(r)
                };
                sets.iter().all(|s| s.contains(id))
            })
        })
        .collect();
    *pruned += (base_refs.len() - kept.len()) as u64;
    Some(kept)
}

/// Where a step's match lands in a tuple: the pattern's event slot and its
/// two variable slots.
#[derive(Debug, Clone, Copy)]
struct Place {
    pattern: usize,
    subject: usize,
    object: usize,
}

impl Place {
    fn of(a: &AnalyzedMultievent, pattern: usize) -> Self {
        let p = &a.patterns[pattern];
        Place {
            pattern,
            subject: p.subject,
            object: p.object,
        }
    }

    /// Delivers tuple `t` of `src` extended with match `r` to `out`.
    /// Returns `true` when the drive must stop: the tracker's budget is
    /// exhausted, or the output failed — reported like a governor stop
    /// (nothing was truncated; [`JoinOutput::failed`] holds the error).
    #[inline]
    fn emit<O: JoinOutput>(
        self,
        parts: &PartTable<'_>,
        out: &mut O,
        src: &RefArena,
        t: usize,
        r: EventRef,
        caps: &mut CapTracker<'_>,
    ) -> bool {
        let (subj, obj) = parts.subject_object(r);
        let (subject, object) = ((self.subject, subj), (self.object, obj));
        if out.emit(src, t, self.pattern, r, subject, object) == Flow::Stop {
            caps.gov_stop = true;
            return true;
        }
        caps.exhausted(out.delivered())
    }
}

/// One probe step of the drive, built once before any run starts. Bound
/// variables come from simulating variable placement over the join order:
/// every placed pattern binds its subject and object in every tuple.
struct JoinStep {
    place: Place,
    /// The pattern's variables the frontier already binds — the index key.
    bound_vars: Vec<usize>,
    /// Temporal relations to already-placed patterns (a probe's admissible
    /// intervals derive from these).
    rels: Vec<StepRel>,
    index: StepIndex,
    /// Candidate refs indexed (after sideways build pruning).
    candidates: usize,
    /// Candidates dropped by sideways build pruning (a per-step constant,
    /// counted once regardless of how many runs probe the index).
    candidate_pruned: u64,
    build_nanos: u64,
}

/// Mutable state of one drive: the per-level reused scratch arenas plus the
/// accounting the recursion accumulates. Level 0 is the seed, level `j ≥ 1`
/// probe step `j − 1`. The serial drive threads one `RunState` through
/// every run, so each level's scratch grows to its high-water mark once;
/// the parallel drive gives each run its own.
struct RunState {
    /// `levels[0]` holds the current run's seed expansion and `levels[j]`
    /// level `j`'s scratch output (`truncate(0)` between windows keeps
    /// capacity). The final level's stays empty — it delivers straight into
    /// the drive's output.
    levels: Vec<RefArena>,
    /// Per-level probe counters, probe nanos, and emitted-tuple counts.
    ctrs: Vec<StepCounters>,
    nanos: Vec<u64>,
    rows: Vec<u64>,
    /// First level observed hitting the intermediate cap. The recursion
    /// finishes the truncated expansion's subtree before stopping, so a
    /// deeper level affected by the same stop records first.
    cut: Option<usize>,
    /// A governor trip stopped the drive mid-flight.
    gov_stop: bool,
    /// Error-mode governor trip, surfaced once the recursion unwinds.
    err: Option<EngineError>,
}

impl RunState {
    fn new(n: usize, nvars: usize) -> Self {
        RunState {
            levels: (0..n).map(|_| RefArena::new(n, nvars)).collect(),
            ctrs: vec![StepCounters::default(); n],
            nanos: vec![0; n],
            rows: vec![0; n],
            cut: None,
            gov_stop: false,
            err: None,
        }
    }
}

/// The drive's shared read-only state: the seed, the pre-built steps, and
/// everything a worker needs to drive one seed run depth-first.
struct Drive<'s, 'a> {
    env: &'s ExecEnv<'a>,
    /// The seed pattern and its candidates (after sideways seed pruning),
    /// in candidate order.
    seed: Place,
    seed_refs: &'s [EventRef],
    /// The probe steps, in join order after the seed.
    steps: &'s [JoinStep],
    domains: &'s [Option<(IdSet, IdSet)>],
    /// The all-unplaced tuple every seed tuple extends.
    proto: RefArena,
    /// Expansion (non-seed, non-final) row cap: `max_intermediate`.
    icap: usize,
    /// Live memory accounting is on: a memory budget is set, which also
    /// forced the serial drive (one observer makes the trip point
    /// deterministic).
    charge: bool,
}

impl Drive<'_, '_> {
    /// Levels of the drive: the seed plus every probe step.
    fn levels(&self) -> usize {
        self.steps.len() + 1
    }

    /// Delivers seed candidates `[lo, hi)`, each extending the proto tuple,
    /// into `next`. Returns `(capped, gov_stop)`.
    fn emit_seed<O: JoinOutput>(
        &self,
        lo: usize,
        hi: usize,
        next: &mut O,
        caps: &mut CapTracker<'_>,
    ) -> (bool, bool) {
        for &r in &self.seed_refs[lo..hi] {
            if (self.seed).emit(&self.env.parts, next, &self.proto, 0, r, caps) {
                return (!caps.gov_stop, caps.gov_stop);
            }
        }
        (false, false)
    }

    /// Probes `step`'s index for tuple `t` and delivers the surviving
    /// extensions to `out`. Returns `true` when the tracker's budget was
    /// exhausted — the caller must stop its drive.
    #[inline]
    fn probe_into<O: JoinOutput>(
        &self,
        step: &JoinStep,
        tuples: &RefArena,
        t: usize,
        out: &mut O,
        caps: &mut CapTracker<'_>,
        ctr: &mut StepCounters,
    ) -> bool {
        let parts = &self.env.parts;
        let place = step.place;
        let tvars = tuples.vars_of(t);
        let mut ids = [NO_VAR; 2];
        for (slot, &v) in ids.iter_mut().zip(&step.bound_vars) {
            *slot = tvars[v];
        }
        // Sideways pre-filter: a bound id outside this step's candidate
        // domain cannot be in the index — skip the hash lookup.
        if let Some((subj, obj)) = &self.domains[place.pattern] {
            for (&v, &id) in step.bound_vars.iter().zip(&ids) {
                let set = if v == place.subject { subj } else { obj };
                if !set.contains(EntityId(id)) {
                    ctr.filter_pruned += 1;
                    return false;
                }
            }
        }
        let key = pack(ids);
        ctr.probes += 1;
        match &step.index {
            // Relation-free step: every match under the key joins.
            StepIndex::Plain(shards) => {
                let Some(matches) = shards[route(key, shards.len())].get(&key) else {
                    return false;
                };
                ctr.probe_hits += 1;
                for &r in matches {
                    if place.emit(parts, out, tuples, t, r, caps) {
                        return true;
                    }
                }
                false
            }
            StepIndex::Timed { shards, grid } => {
                let Some(p) = shards[route(key, shards.len())].get(&key) else {
                    return false;
                };
                ctr.probe_hits += 1;
                // Admissible start/end intervals of a joining candidate,
                // derived once per tuple from the placed events.
                let events = tuples.events_of(t);
                let (mut slo, mut shi) = (i64::MIN, i64::MAX);
                let (mut elo, mut ehi) = (i64::MIN, i64::MAX);
                for rel in &step.rels {
                    let placed = events[rel.other];
                    if rel.cand_is_left {
                        // cand.end ≤ placed.start; a bound floors cand.end.
                        let ps = parts.start(placed).micros();
                        ehi = ehi.min(ps);
                        if let Some(b) = rel.bound {
                            elo = elo.max(ps.saturating_sub(b));
                        }
                    } else {
                        // placed.end ≤ cand.start; a bound ceils cand.start.
                        let pe = parts.end(placed).micros();
                        slo = slo.max(pe);
                        if let Some(b) = rel.bound {
                            shi = shi.min(pe.saturating_add(b));
                        }
                    }
                }
                // Fold the end interval onto start buckets through the
                // build-time duration extremes.
                let lo_t = slo.max(elo.saturating_sub(grid.max_dur));
                let hi_t = shi.min(ehi.saturating_sub(grid.min_dur));
                if slo > shi || elo > ehi || lo_t > hi_t {
                    ctr.bucket_skipped += p.refs.len() as u64;
                    return false;
                }
                let blo = grid.clamp(lo_t);
                let bhi = grid.clamp(hi_t);
                for (c, &(zmin, zmax)) in p.zones.iter().enumerate() {
                    let lo = c * BUCKET_CHUNK;
                    let hi = (lo + BUCKET_CHUNK).min(p.refs.len());
                    if zmax < blo || zmin > bhi {
                        ctr.bucket_skipped += (hi - lo) as u64;
                        continue;
                    }
                    for j in lo..hi {
                        let s = p.starts[j];
                        let e = p.ends[j];
                        if s < slo || s > shi || e < elo || e > ehi {
                            continue;
                        }
                        if place.emit(parts, out, tuples, t, p.refs[j], caps) {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }

    /// Probes level `j`'s step for tuples `[lo, hi)` of `cur`, delivering
    /// into `next`. Returns `(capped, gov_stop)`.
    #[allow(clippy::too_many_arguments)]
    fn probe_window<O: JoinOutput>(
        &self,
        j: usize,
        cur: &RefArena,
        lo: usize,
        hi: usize,
        next: &mut O,
        caps: &mut CapTracker<'_>,
        ctr: &mut StepCounters,
        gov: Option<&Governor>,
    ) -> (bool, bool) {
        let step = &self.steps[j - 1];
        let mut gate = GovGate::new(gov);
        for t in lo..hi {
            if gate.tick().is_some() {
                return (false, true);
            }
            if self.probe_into(step, cur, t, next, caps, ctr) {
                return (!caps.gov_stop, caps.gov_stop);
            }
        }
        (false, false)
    }

    /// Live memory accounting (serial drive under a memory budget only):
    /// charges `bytes`, stopping the drive on a trip — error mode stashes
    /// the unwind error in `st`.
    fn charge_live(&self, st: &mut RunState, gov: Option<&Governor>, bytes: u64) -> Flow {
        if !self.charge {
            return Flow::Continue;
        }
        let Some(g) = gov else {
            return Flow::Continue;
        };
        let _ = g.charge(bytes);
        if let Some(t) = g.trip() {
            st.err = g.on_trip(t).err();
            st.gov_stop = true;
            return Flow::Stop;
        }
        Flow::Continue
    }

    fn uncharge(&self, gov: Option<&Governor>, bytes: u64) {
        if self.charge {
            if let Some(g) = gov {
                g.uncharge(bytes);
            }
        }
    }

    /// Runs `deliver` — the final level `j`'s emission into `out`, returning
    /// `(capped, gov_stop)` — under the output's accounting. What the output
    /// keeps of the delivered tuples stays live and is charged permanently
    /// (every tuple for an arena; rows, group states or distinct keys for a
    /// projection sink).
    fn deliver_final<O: JoinOutput>(
        &self,
        j: usize,
        st: &mut RunState,
        out: &mut O,
        gov: Option<&Governor>,
        deliver: impl FnOnce(&mut O, &mut StepCounters) -> (bool, bool),
    ) -> Flow {
        let before = out.delivered();
        let held = out.retained_bytes();
        let t = Instant::now();
        let mut ctr = StepCounters::default();
        let (capped, gov_stop) = deliver(out, &mut ctr);
        st.nanos[j] += t.elapsed().as_nanos() as u64;
        st.ctrs[j].merge(&ctr);
        st.rows[j] += (out.delivered() - before) as u64;
        let charged = self.charge_live(st, gov, out.retained_bytes() - held);
        if gov_stop {
            st.gov_stop = true;
            return Flow::Stop;
        }
        if charged == Flow::Stop || capped {
            return Flow::Stop;
        }
        Flow::Continue
    }

    /// Expands frontier `cur` through levels `j..` depth-first (see the
    /// module docs): a non-final level windows `cur` into
    /// [`EXPAND_CHUNK`]-tuple probes, each filling the level's reused
    /// scratch (one expansion, at most `icap` tuples) and recursing on it
    /// before the next window runs; the final level delivers straight into
    /// `out` under `out_caps`.
    #[allow(clippy::too_many_arguments)]
    fn expand<O: JoinOutput>(
        &self,
        j: usize,
        cur: &RefArena,
        st: &mut RunState,
        out: &mut O,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        if j == self.levels() - 1 {
            return self.deliver_final(j, st, out, gov, |out, ctr| {
                self.probe_window(j, cur, 0, cur.len(), out, out_caps, ctr, gov)
            });
        }
        let mut scratch = std::mem::take(&mut st.levels[j]);
        let mut flow = Flow::Continue;
        let mut lo = 0;
        while lo < cur.len() {
            let hi = (lo + EXPAND_CHUNK).min(cur.len());
            scratch.truncate(0);
            let t = Instant::now();
            let mut ctr = StepCounters::default();
            let mut caps = CapTracker::fixed(self.icap, gov);
            let (capped, gov_stop) =
                self.probe_window(j, cur, lo, hi, &mut scratch, &mut caps, &mut ctr, gov);
            st.nanos[j] += t.elapsed().as_nanos() as u64;
            st.ctrs[j].merge(&ctr);
            st.rows[j] += scratch.len() as u64;
            if gov_stop {
                st.gov_stop = true;
                flow = Flow::Stop;
                break;
            }
            let bytes = scratch.retained_bytes();
            if self.charge_live(st, gov, bytes) == Flow::Stop {
                flow = Flow::Stop;
                break;
            }
            let sub = self.expand(j + 1, &scratch, st, out, out_caps, gov);
            self.uncharge(gov, bytes);
            if sub == Flow::Stop {
                flow = Flow::Stop;
                break;
            }
            if capped {
                // The expansion hit the intermediate cap and its prefix's
                // subtree just finished: the run cuts here and the drive
                // stops after it.
                st.cut.get_or_insert(j);
                flow = Flow::Stop;
                break;
            }
            lo = hi;
        }
        st.levels[j] = scratch;
        flow
    }

    /// Drives seed slice `[lo, hi)` depth-first through every level. With
    /// no probe step the seed is the final level and the slice goes straight
    /// into `out`; otherwise the seed expansion comes first (exempt from
    /// the intermediate cap — it is bounded by the block size by
    /// construction, which keeps sideways seed pruning emission-invariant
    /// under truncation), then the chunked recursion over the steps.
    fn drive_run<O: JoinOutput>(
        &self,
        lo: usize,
        hi: usize,
        st: &mut RunState,
        out: &mut O,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        if self.steps.is_empty() {
            return self.deliver_final(0, st, out, gov, |out, _| {
                self.emit_seed(lo, hi, out, out_caps)
            });
        }
        let t0 = Instant::now();
        let mut seedbuf = std::mem::take(&mut st.levels[0]);
        seedbuf.truncate(0);
        let mut caps = CapTracker::fixed(usize::MAX, gov);
        let (_, gov_stop) = self.emit_seed(lo, hi, &mut seedbuf, &mut caps);
        st.nanos[0] += t0.elapsed().as_nanos() as u64;
        st.rows[0] += seedbuf.len() as u64;
        // An uncapped tracker only stops on a governor trip.
        let flow = if gov_stop {
            st.gov_stop = true;
            Flow::Stop
        } else {
            let bytes = seedbuf.retained_bytes();
            if self.charge_live(st, gov, bytes) == Flow::Stop {
                Flow::Stop
            } else {
                let flow = self.expand(1, &seedbuf, st, out, out_caps, gov);
                self.uncharge(gov, bytes);
                flow
            }
        };
        st.levels[0] = seedbuf;
        flow
    }
}

/// The join drive (see the module docs): every probe step's index built
/// once up front, then the seed driven depth-first in bounded runs, merged
/// in ascending seed order into `out`.
fn drive_join<O: JoinOutput>(
    env: &ExecEnv<'_>,
    candidates: &[Vec<EventRef>],
    domains: &[Option<(IdSet, IdSet)>],
    mut out: O,
) -> Result<(O, JoinRun), EngineError> {
    let a = env.a;
    let n = a.patterns.len();
    let nvars = a.vars.len();
    let sizes: Vec<usize> = candidates.iter().map(Vec::len).collect();
    let join_order = plan_join_order(a, &sizes);
    let seed_pruned = sideways_seed_prune(env, candidates, domains, &join_order);
    let seed_all = &candidates[join_order[0]];
    let seed_refs: &[EventRef] = seed_pruned.as_deref().unwrap_or(seed_all);
    let seed_pruned_count = (seed_all.len() - seed_refs.len()) as u64;
    let gov = env.gov();
    let out_cap = env.config.max_intermediate;
    let mut run = JoinRun {
        fanout: 1,
        ..JoinRun::default()
    };

    // The seed places its pattern first; every later pattern gets a probe
    // step, its index built here, once.
    let parts = &env.parts;
    let seed = Place::of(a, join_order[0]);
    let mut steps: Vec<JoinStep> = Vec::with_capacity(n - 1);
    let mut placed = vec![false; n];
    let mut var_bound = vec![false; nvars];
    placed[seed.pattern] = true;
    var_bound[seed.subject] = true;
    var_bound[seed.object] = true;
    for &i in &join_order[1..] {
        let place = Place::of(a, i);
        let same_var = place.subject == place.object;
        // A pattern binds at most two variables, so the bound-var key packs
        // into one u64.
        let bound_vars: Vec<usize> = [place.subject, place.object]
            .iter()
            .take(if same_var { 1 } else { 2 })
            .copied()
            .filter(|&v| var_bound[v])
            .collect();
        let mut candidate_pruned = 0u64;
        let build_pruned = sideways_build_prune(
            env,
            domains,
            &placed,
            i,
            &bound_vars,
            &candidates[i],
            &mut candidate_pruned,
        );
        let refs: &[EventRef] = build_pruned.as_deref().unwrap_or(&candidates[i]);
        let key_of_ref = |r: EventRef| {
            let mut ids = [NO_VAR; 2];
            for (slot, &v) in ids.iter_mut().zip(&bound_vars) {
                *slot = if v == place.subject {
                    parts.subject(r).raw()
                } else {
                    parts.object(r).raw()
                };
            }
            pack(ids)
        };
        // With temporal relations to verify, the index carries time columns
        // and bucket zones for probe-side pruning.
        let rels = a.step_relations(i, &placed);
        let t_build = Instant::now();
        let index = build_index(
            env,
            refs,
            same_var,
            &key_of_ref,
            !bound_vars.is_empty(),
            !rels.is_empty(),
        )?;
        let build_nanos = t_build.elapsed().as_nanos() as u64;
        run.build_nanos += build_nanos;
        run.fanout = run.fanout.max(index.shard_count());
        steps.push(JoinStep {
            place,
            candidates: refs.len(),
            candidate_pruned,
            bound_vars,
            rels,
            index,
            build_nanos,
        });
        placed[i] = true;
        var_bound[place.subject] = true;
        var_bound[place.object] = true;
    }

    let mut proto = RefArena::new(n, nvars);
    proto.resize_tuples(1);
    let seed_total = seed_refs.len();

    // An arena output is reserved to the drive's worst case — seed size
    // times every step's indexed-ref count — clamped by the output cap and
    // a 4 Mi-tuple lid so a pathological `max_intermediate` cannot reserve
    // the moon. Selective queries reserve small; emission-bound ones fill
    // the reservation exactly. (A projection sink ignores the hint: it
    // keeps rows, keys or groups, not tuples.)
    out.reserve(
        steps
            .iter()
            .fold(seed_total, |b, s| b.saturating_mul(s.index.total_refs()))
            .min(out_cap)
            .min(1 << 22),
    );

    let mut truncated = false;
    let mut early_exit: Option<usize> = None;
    let mut runs_driven = 0u64;
    let mut step_rows: Vec<u64> = vec![0; n];
    let mut step_ctrs: Vec<StepCounters> = vec![StepCounters::default(); n];
    let mut step_nanos: Vec<u64> = vec![0; n];

    if out_cap == 0 {
        // The cap is already spent (a zero `max_intermediate`): the empty
        // prefix is the whole answer.
        truncated = true;
    } else if seed_total > 0 {
        let block = env
            .config
            .join_block_tuples
            .max(1)
            .max(seed_total.div_ceil(MAX_RUNS));
        let nruns = seed_total.div_ceil(block);
        let run_range = |k: usize| (k * block, ((k + 1) * block).min(seed_total));
        let charge = gov.is_some_and(|g| g.has_memory_budget());
        let drive = Drive {
            env,
            seed,
            seed_refs,
            steps: &steps,
            domains,
            proto,
            icap: out_cap,
            charge,
        };
        let workers = env.config.parallelism.max(1);
        // A memory budget forces the serial drive: live charging yields a
        // deterministic trip point only with a single observer.
        let parallel = !charge && parallel_drive(env, seed_total);
        let t_probe = Instant::now();
        // Parallel drive: every run fills a fork of the output under the
        // shared budget. `None` marks a run skipped because the runs before
        // it had already produced the whole output cap — the demand-driven
        // win: seed tuples nobody will consume are never driven.
        let mut partials: Vec<Option<(O, RunState)>> = Vec::new();
        if parallel {
            let Some(pool) = env.pool.as_ref() else {
                return Err(crate::op::internal(
                    "parallel join drive scheduled without a scan executor",
                ));
            };
            let budget = JoinBudget::new(out_cap, nruns);
            let slots: Vec<Mutex<Option<(O, RunState)>>> =
                (0..nruns).map(|_| Mutex::new(None)).collect();
            let out = &out;
            pool.run_chunks_capped(nruns, workers, &|k| {
                if budget.cap(k) == 0 {
                    return;
                }
                let (lo, hi) = run_range(k);
                let mut st = RunState::new(n, nvars);
                let mut local = out.fork();
                let mut caps = CapTracker::shared(&budget, k, gov);
                let _ = drive.drive_run(lo, hi, &mut st, &mut local, &mut caps, gov);
                budget.publish(k, local.delivered());
                // Only the run's accounting outlives it, not its scratch.
                st.levels = Vec::new();
                *crate::op::lock_clean(&slots[k]) = Some((local, st));
            })
            .map_err(worker_panic)?;
            partials = slots.into_iter().map(crate::op::unwrap_clean).collect();
            run.fanout = run.fanout.max(workers.min(nruns));
        }
        partials.resize_with(nruns, || None);

        // Runs fold into `out` in ascending seed order. A run's partial is
        // merged when it fits the remaining output room and merges exactly;
        // every other run — all of them in the serial drive, and in the
        // parallel one the run that straddles the output cap or whose
        // partial would not merge bit for bit — is driven here, into `out`
        // itself, under one absolute tracker that sees the exact remaining
        // room. Serial and parallel therefore produce the same output by
        // construction. One `RunState` serves every run driven here, so
        // each level's scratch grows to its high-water mark once.
        let mut st = RunState::new(n, nvars);
        let mut caps = CapTracker::fixed(out_cap, gov);
        let mut tripped = false;
        for (k, partial) in partials.into_iter().enumerate() {
            let mut merged = false;
            if let Some((mut part, p)) = partial {
                if let Some(e) = part.failed() {
                    return Err(e);
                }
                if p.gov_stop {
                    // The run stopped mid-flight on a trip: its partial
                    // output is dropped and the merged prefix ends at the
                    // previous run boundary (still a valid emission-order
                    // prefix).
                    tripped = true;
                    break;
                }
                if part.delivered() <= out_cap - out.delivered() && out.merge(part) {
                    merged = true;
                    // The run's accounting joins that of the runs driven
                    // here.
                    for j in 0..n {
                        st.rows[j] += p.rows[j];
                        st.ctrs[j].merge(&p.ctrs[j]);
                        st.nanos[j] += p.nanos[j];
                    }
                    st.cut = st.cut.or(p.cut);
                }
            }
            let mut flow = Flow::Continue;
            if !merged {
                let (lo, hi) = run_range(k);
                flow = drive.drive_run(lo, hi, &mut st, &mut out, &mut caps, gov);
                if let Some(e) = st.err.take().or_else(|| out.failed()) {
                    return Err(e);
                }
            }
            runs_driven += 1;
            if flow == Flow::Stop || st.cut.is_some() || out.delivered() >= out_cap {
                break;
            }
        }
        if tripped || st.gov_stop {
            // Partial mode keeps the emission-order prefix delivered so
            // far; error mode unwinds (deadline/cancel trips observed by
            // the pollers rather than a live charge land here).
            if let Some(g) = gov {
                g.trip().map_or(Ok(()), |t| g.on_trip(t))?;
            }
        }
        (step_rows, step_ctrs, step_nanos) = (st.rows, st.ctrs, st.nanos);
        if st.cut.is_some() {
            truncated = true;
            early_exit = st.cut;
        } else if out.delivered() >= out_cap {
            truncated = true;
            early_exit = Some(n - 1);
        }
        run.probe_nanos += t_probe.elapsed().as_nanos() as u64;
    }

    run.truncated |= truncated;
    run.runs_driven = runs_driven;
    run.emitted_tuples = step_rows.iter().sum();
    run.early_exit_depth = early_exit;
    // Level 0 is the seed — delivered, never probed; what sideways seed
    // pruning dropped counts there.
    run.steps.push(JoinStepStat {
        pattern: seed.pattern,
        candidates: seed_total,
        filter_pruned: seed_pruned_count,
        fanout: 1,
        ..JoinStepStat::default()
    });
    for s in &steps {
        run.steps.push(JoinStepStat {
            pattern: s.place.pattern,
            candidates: s.candidates,
            filter_pruned: s.candidate_pruned,
            buckets: s.index.buckets(),
            bucket_width_micros: s.index.bucket_width(),
            build_nanos: s.build_nanos,
            fanout: s.index.shard_count(),
            ..JoinStepStat::default()
        });
    }
    for (j, stat) in run.steps.iter_mut().enumerate() {
        let c = step_ctrs[j];
        stat.rows_out = step_rows[j] as usize;
        stat.probes = c.probes;
        stat.probe_hits = c.probe_hits;
        stat.bucket_skipped = c.bucket_skipped;
        stat.filter_pruned += c.filter_pruned;
        stat.probe_nanos = step_nanos[j];
        run.probe_hits += stat.probe_hits;
        run.bucket_skipped += stat.bucket_skipped;
        run.filter_pruned += stat.filter_pruned;
    }
    Ok((out, run))
}

/// Per-level probe-reduction counters, merged across runs into the step's
/// [`JoinStepStat`].
#[derive(Debug, Clone, Copy, Default)]
struct StepCounters {
    /// Index lookups attempted (after the sideways pre-filter).
    probes: u64,
    /// Lookups that found a posting list.
    probe_hits: u64,
    /// Posting refs skipped by time-bucket pruning (never temporally
    /// verified).
    bucket_skipped: u64,
    /// Candidates/probes rejected by sideways domain filters.
    filter_pruned: u64,
}

impl StepCounters {
    fn merge(&mut self, o: &StepCounters) {
        self.probes += o.probes;
        self.probe_hits += o.probe_hits;
        self.bucket_skipped += o.bucket_skipped;
        self.filter_pruned += o.filter_pruned;
    }
}
