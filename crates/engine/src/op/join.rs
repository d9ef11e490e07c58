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
//! posting lists carry dense start/end columns cut into *sorted runs*
//! (maximal stretches, in candidate order, whose starts do not decrease)
//! plus the posting's duration extremes. A probe derives the tuple's
//! admissible start/end intervals once, folds the end interval onto starts
//! through those durations, binary-searches every run for its admissible
//! start slice, and checks only the slices' ends — none at all when no end
//! bound applies. Runs are visited in posting order, so matches come out
//! in candidate order. A relation-free step builds a `StepIndex::Plain`
//! and every match joins.
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
//! reused scratch arena (one **expansion**, capped at the budget's tuple
//! cap, `ExecBudget::max_tuples`), and recurses on the expansion before the
//! next window runs. The
//! final step delivers straight into the drive's `JoinOutput`: the
//! projection sink when the query's projection closes the pipeline — each
//! joined tuple is evaluated as it is found and never written anywhere;
//! what is kept is what `return` needs (see `op/project.rs`) — or an output
//! arena when nothing projects (`match_tuples`, an anomaly query's fetch).
//! A single-pattern query has no join: its seed *is* the final step, and
//! the candidates are delivered in candidate order.
//!
//! ## Memoised suffixes
//!
//! A level's downstream contribution depends only on its tuple's
//! *interface*: what the remaining levels can observe of it — the ids of
//! the variables their index keys read and the events their time relations
//! read, both bound above the level (`Interface`). When the output sees
//! the remaining levels only in aggregate, the drive keeps a per-run memo
//! from interface to contribution and computes each distinct interface
//! once. Two output shapes qualify:
//!
//! * **Counted suffix.** The longest suffix of levels whose events and
//!   first-bound variables the projection does not read — the last may
//!   still be read as `count(<its event>.<column>)`. The final level counts
//!   its matches; at the suffix's first level each tuple delivers its
//!   subtree's count in one `emit_count`. A memo miss enumerates the
//!   tuple's matches at its level and takes each one's count from the next
//!   level's memo.
//! * **Distinct final level.** For an id-keyed `distinct` (every item an
//!   entity reference, no `having`) that reads variables the final level
//!   binds first, the memo holds an interface's match count and its
//!   matches' distinct projected ids in first-seen order. A tuple whose
//!   other projected ids and interface were delivered earlier in the run is
//!   only counted; any other delivers its memoised ids (`emit_ids`).
//!
//! A level whose interface holds the seed's event computes without storing
//! (no two tuples of a run share a seed event), and a suffix in which no
//! level stores is not memoised: its final level counts tuple by tuple.
//! Memoised windows (`EXPAND_CHUNK` tuples at the suffix's first level, or
//! of the final level's input) run in two passes: the first takes every
//! tuple's entry, the second delivers. A window is driven tuple by tuple
//! instead when a cap could bind in it: when its deliveries could fill the
//! output's room, or when the tuples it would materialise at any non-final
//! suffix level reach the tuple cap. So every cap, `TupleCap` warning, cut
//! level and emission-order prefix is the per-tuple drive's, and so is
//! every delivered count; only the emission counters fall. The memo is
//! cleared at each seed run, and under a memory budget its bytes — with
//! a miss's scratch, like a level's — are live-charged until the run ends,
//! so a fork's tally and the merge thread's charge of one run agree.
//!
//! Windows run in input order and the recursion is depth-first, so the
//! output is in nested-loop emission order, and a prefix of it in that
//! order whenever the tuple cap (or a governor budget) trips. Once the
//! output cap fills, every unconsumed window — and every remaining seed
//! run — is never driven at all. Live intermediate memory is bounded by the
//! per-level scratch high-water marks.
//!
//! Cap/truncation semantics: a non-final seed expansion is exempt from the
//! intermediate cap (it is bounded by the block size by construction,
//! which also keeps sideways seed pruning emission-invariant under
//! truncation); an expansion that hits the cap is still recursed on — its
//! prefix's subtree finishes — and then cuts the run, stopping the drive
//! after it; the final step draws on the output budget (the cap's worth of
//! delivered tuples across the whole drive). A cut names itself: the drive
//! returns a `Warning::TupleCap` with the cap, the level that cut and the
//! runs driven.
//!
//! With `parallelism > 1` and a seed that fills more than one run, runs fan
//! out on the query thread and scoped threads — under every budget: each
//! fills a fork of the output under a shared `JoinBudget` and the forks
//! fold into the output in ascending seed order. A run whose partial
//! overshoots the remaining room (the one run that straddles the cap),
//! would not fit the memory budget, or would not merge bit for bit (float
//! sums) is dropped and re-driven on the merge thread into the output
//! itself, so the serial and parallel drives produce the same output by
//! construction.
//!
//! Memory budgets: the merge thread *live-charges* each expansion's bytes
//! while its subtree runs and what the output retains permanently (every
//! tuple of an arena; only the rows, group states or distinct keys of a
//! projection sink), so a trip stops the drive at a deterministic tuple
//! (error mode unwinds, partial mode keeps the emission-order prefix, or
//! its projection). A fork charges nothing: it tallies the same charges for
//! its run (`Tally`), whose peak overstates what the run adds to the merged
//! output (distinct keys and groups dedup across runs). A fork merges only
//! when that peak fits the room left, so it is a run the serial drive would
//! have finished; any other is re-driven with live charging. The forks are
//! bounded together, not one by one: their tallies add into one shared
//! count (what a finished fork's output retains stays in it until the
//! merge), which never exceeds the budget's room at the drive's start. A
//! charge that would push it past stops its fork, whose output is dropped
//! at once, and every other fork at its next charge; no new run starts in a
//! fork, and the merge thread re-drives every run left undone.
//!
//! Deadline/cancel trips are polled inside every probe loop; the parallel
//! merge drops a tripped run's partial output and stops at the previous
//! run boundary, while the serial drive keeps its own partial emission
//! (either way a valid emission-order prefix).

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use aiql_model::EntityId;
use aiql_storage::IdSet;

use crate::analyze::{AnalyzedMultievent, StepRel};
use crate::error::EngineError;
use crate::governor::{GovGate, Governor, Warning};
use crate::op::{
    EventRef, ExecEnv, Flow, JoinOutput, JoinStepStat, MulHash, OpStat, Operator, PartTable,
    PipelineState, ProjectionSink, RefArena, NO_VAR,
};

/// How many delivered tuples a run produces between refreshes of its
/// shared-budget cap. Bounds how far a run can overshoot the budget before
/// it notices earlier runs have already filled it.
const BUDGET_REFRESH: usize = 4096;

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
    ) -> Result<OpStat, EngineError> {
        if st.done {
            // A pattern came back empty: the frontier stays empty, and the
            // projection above produces the empty table.
            st.stats.tuples = 0;
            return Ok(OpStat::default());
        }
        let candidates: Vec<Vec<EventRef>> = std::mem::take(&mut st.candidates)
            .into_iter()
            .map(|c| c.ok_or_else(|| crate::op::internal("join ran before a pattern's scan")))
            .collect::<Result<_, _>>()?;
        let rows_in: usize = candidates.iter().map(Vec::len).sum();
        let cand_bytes = (rows_in * std::mem::size_of::<EventRef>()) as u64;
        let (frontier, sink, cap_trip, io) = join_refs(env, candidates, &st.domains)?;
        st.sink = sink;
        // The candidate batches the scans charged are consumed now; only
        // what the output retains (charged inside the drive) remains live.
        if let Some(g) = env.gov() {
            g.uncharge(cand_bytes);
        }
        st.cap_trip = cap_trip;
        // Tuples the join produced: left in the frontier, or pushed into
        // the projection sink.
        let sink_kept = st.sink.as_ref().map(ProjectionSink::kept);
        let rows_out = st
            .sink
            .as_ref()
            .map_or(frontier.len(), ProjectionSink::pushed);
        st.stats.tuples = rows_out;
        st.frontier = frontier;
        Ok(OpStat {
            rows_in,
            rows_out,
            sink_kept,
            ..io
        })
    }

    /// The drive `drive_join` runs under every budget: serial, or fanned
    /// out on `parallelism` threads once the seed — whose size only the
    /// scans learn — fills more than one run; the budget's tuple cap; the
    /// probe layers that apply (a time search needs a temporal relation,
    /// sideways filters a second pattern); and the sink it delivers into
    /// when the projection closes the pipeline (`join_refs`).
    fn describe(&self, env: &ExecEnv<'_>) -> String {
        let (a, config) = (env.a, env.config);
        let (workers, floor) = (config.parallelism, config.join_block_tuples.max(1) + 1);
        let drive = match workers > 1 {
            true => format!("parallel ×{workers} worker(s) when seed ≥ {floor}"),
            false => "serial".to_string(),
        };
        let mut detail = format!(
            "{} pattern(s), {} temporal relation(s) | demand-driven blocked({}) drive, {drive} | tuple cap {}",
            a.patterns.len(),
            a.temporal.len(),
            config.join_block_tuples,
            env.max_tuples,
        );
        let layers: Vec<&str> = [
            (!a.temporal.is_empty()).then_some("time-sorted runs"),
            (a.patterns.len() >= 2).then_some("sideways filters"),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !layers.is_empty() {
            detail.push_str(&format!(" | {}", layers.join(" + ")));
        }
        if env.project {
            detail.push_str(&format!(" → sink: {}", ProjectionSink::describe(env)));
        }
        detail
    }
}

/// Packs the at-most-two bound entity ids of a pattern into one `u64`
/// (`NO_VAR` pads the unused half).
#[inline]
fn pack(ids: [u32; 2]) -> u64 {
    (u64::from(ids[0]) << 32) | u64::from(ids[1])
}

/// One key's posting list in a timed index: refs in candidate order with
/// their start/end times as dense columns (the probe's exact temporal
/// check reads these instead of re-resolving partition rows), cut into
/// sorted runs, plus the extreme durations of its refs.
#[derive(Debug, Default)]
struct Postings {
    refs: Vec<EventRef>,
    starts: Vec<i64>,
    ends: Vec<i64>,
    /// Where each run after the first begins: every index whose start is
    /// smaller than its predecessor's.
    breaks: Vec<u32>,
    /// Smallest and largest `end − start` (exact, hence 128-bit: the
    /// difference of two extreme `i64`s does not fit 64 bits). Negative
    /// only on malformed events, which the fold still covers soundly.
    min_dur: i128,
    max_dur: i128,
}

/// A probe's admissible start and end intervals (inclusive) for a step's
/// candidates, derived from the placed events its relations name.
#[derive(Debug, Clone, Copy)]
struct TimeBounds {
    slo: i64,
    shi: i64,
    elo: i64,
    ehi: i64,
}

impl TimeBounds {
    fn of(rels: &[StepRel], events: &[EventRef], parts: &PartTable<'_>) -> Self {
        let mut b = TimeBounds {
            slo: i64::MIN,
            shi: i64::MAX,
            elo: i64::MIN,
            ehi: i64::MAX,
        };
        for rel in rels {
            let placed = events[rel.other];
            if rel.cand_is_left {
                // cand.end ≤ placed.start; a bound floors cand.end.
                let ps = parts.start(placed).micros();
                b.ehi = b.ehi.min(ps);
                if let Some(bound) = rel.bound {
                    b.elo = b.elo.max(ps.saturating_sub(bound));
                }
            } else {
                // placed.end ≤ cand.start; a bound ceils cand.start.
                let pe = parts.end(placed).micros();
                b.slo = b.slo.max(pe);
                if let Some(bound) = rel.bound {
                    b.shi = b.shi.min(pe.saturating_add(bound));
                }
            }
        }
        b
    }

    /// Whether an end time is admissible.
    #[inline]
    fn end_ok(&self, e: i64) -> bool {
        self.elo <= e && e <= self.ehi
    }
}

impl Postings {
    #[inline]
    fn push(&mut self, r: EventRef, s: i64, e: i64) {
        let dur = i128::from(e) - i128::from(s);
        match self.starts.last() {
            None => (self.min_dur, self.max_dur) = (dur, dur),
            Some(&last) => {
                if s < last {
                    self.breaks.push(self.refs.len() as u32);
                }
                self.min_dur = self.min_dur.min(dur);
                self.max_dur = self.max_dur.max(dur);
            }
        }
        self.refs.push(r);
        self.starts.push(s);
        self.ends.push(e);
    }

    /// The sorted runs as `[lo, hi)` index ranges, in posting order.
    fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cuts = self.breaks.iter().map(|&b| b as usize);
        std::iter::once(0)
            .chain(cuts.clone())
            .zip(cuts.chain(std::iter::once(self.refs.len())))
    }

    /// The time search: per sorted run, in posting order, the slice whose
    /// starts can be admissible under `b`, and whether the slices' ends
    /// still need [`TimeBounds::end_ok`] (`false`: every ref in them is
    /// admissible). `None` when no ref can be. The end interval folds onto
    /// starts through the posting's durations: `end ≥ elo` forces
    /// `start ≥ elo − max_dur`, and `end ≤ ehi` forces
    /// `start ≤ ehi − min_dur`.
    fn slices(&self, b: &TimeBounds) -> Option<(impl Iterator<Item = Range<usize>> + '_, bool)> {
        let fold = |t: i64, dur: i128| {
            (i128::from(t) - dur).clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
        };
        let lo = b.slo.max(fold(b.elo, self.max_dur));
        let hi = b.shi.min(fold(b.ehi, self.min_dur));
        if lo > hi || b.elo > b.ehi {
            return None;
        }
        let check_end = b.elo > i64::MIN || b.ehi < i64::MAX;
        let slices = self.runs().map(move |(a, z)| {
            let run = &self.starts[a..z];
            a + run.partition_point(|&s| s < lo)..a + run.partition_point(|&s| s <= hi)
        });
        Some((slices, check_end))
    }
}

/// What a step index keeps per key: a plain ref list, or timed
/// [`Postings`].
trait IndexEntry: Default {
    fn add(&mut self, parts: &PartTable<'_>, r: EventRef);
}

impl IndexEntry for Vec<EventRef> {
    fn add(&mut self, _: &PartTable<'_>, r: EventRef) {
        self.push(r);
    }
}

impl IndexEntry for Postings {
    /// Resolves the candidate's start/end once at build time (one segment
    /// locate per candidate instead of one per probe match).
    fn add(&mut self, parts: &PartTable<'_>, r: EventRef) {
        let (s, e) = parts.start_end(r);
        self.push(r, s, e);
    }
}

/// One join step's candidate hash index: plain ref lists, or — when the
/// step has temporal relations to placed patterns — timed [`Postings`].
/// Every key's list keeps candidate order, so probes traverse matches in
/// candidate order. Keys hash with [`MulHash`].
enum StepIndex {
    Plain(HashMap<u64, Vec<EventRef>, MulHash>),
    Timed(HashMap<u64, Postings, MulHash>),
}

impl StepIndex {
    /// Total refs across every posting (an upper bound on one frontier
    /// tuple's emission, used to size the output reservation).
    fn total_refs(&self) -> usize {
        match self {
            StepIndex::Plain(m) => m.values().map(Vec::len).sum(),
            StepIndex::Timed(m) => m.values().map(|p| p.refs.len()).sum(),
        }
    }

    /// Sorted runs across every posting (0 = untimed index).
    fn sorted_runs(&self) -> u64 {
        match self {
            StepIndex::Plain(_) => 0,
            StepIndex::Timed(m) => m.values().map(|p| p.breaks.len() as u64 + 1).sum(),
        }
    }
}

/// Builds a step's candidate index, keyed by `key_of`, in candidate order.
fn build_index<P: IndexEntry>(
    parts: &PartTable<'_>,
    refs: &[EventRef],
    same_var: bool,
    key_of: impl Fn(EventRef) -> u64,
) -> HashMap<u64, P, MulHash> {
    let mut index: HashMap<u64, P, MulHash> = HashMap::default();
    for &r in refs {
        if !same_var || parts.subject(r) == parts.object(r) {
            index.entry(key_of(r)).or_default().add(parts, r);
        }
    }
    index
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
/// straight into the tuple cap and every later step pays to probe the
/// blow-up.
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
/// joined tuples — or, when the projection closes the pipeline, an empty
/// arena and the sink the drive streamed them into — plus the tuple-cap
/// warning when the cap cut it, and its accounting (run fan-out, the build/probe
/// timing split, the probe-reduction and emission counters, and the
/// per-step breakdown for EXPLAIN ANALYZE).
fn join_refs<'e>(
    env: &'e ExecEnv<'_>,
    candidates: Vec<Vec<EventRef>>,
    domains: &[Option<(IdSet, IdSet)>],
) -> Result<
    (
        RefArena,
        Option<ProjectionSink<'e>>,
        Option<Warning>,
        OpStat,
    ),
    EngineError,
> {
    let (n, nvars) = (env.a.patterns.len(), env.a.vars.len());
    // With the projection closing the pipeline, the final step pushes into
    // its sink; otherwise the tuples are kept.
    if env.project {
        drive_join(env, &candidates, domains, ProjectionSink::new(env))
            .map(|(sink, t, io)| (RefArena::new(n, nvars), Some(sink), t, io))
    } else {
        drive_join(env, &candidates, domains, RefArena::new(n, nvars))
            .map(|(arena, t, io)| (arena, None, t, io))
    }
}

/// Sideways seed pruning: before the seed frontier exists, drop seed
/// candidates whose shared-variable ids are absent from the *second* step's
/// candidate domains — such tuples probe a missing key at step two and
/// extend nothing. Restricting the filter to the second step keeps the
/// emission identical to the unfiltered run even under a truncating tuple
/// cap: a dropped tuple emits nothing at step two, so every
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
    if env.gov().is_some_and(|g| g.has_memory_budget()) || candidates[seed].len() > env.max_tuples {
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
    /// exhausted.
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
        out.emit(src, t, self.pattern, r, subject, object);
        caps.exhausted(out.delivered())
    }

    /// Delivers tuple `t` of `src` extended by `n` matches at an unread
    /// level (see the module docs), clamped to the tracker's remaining
    /// room so the delivery stops exactly where `n` [`Place::emit`]s
    /// would. Returns as [`Place::emit`].
    #[inline]
    fn emit_count<O: JoinOutput>(
        self,
        out: &mut O,
        src: &RefArena,
        t: usize,
        n: usize,
        caps: &mut CapTracker<'_>,
    ) -> bool {
        if n == 0 {
            return false;
        }
        let n = n.min(caps.cap.saturating_sub(out.delivered()));
        if n > 0 {
            out.emit_count(src, t, self.pattern, n);
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

impl JoinStep {
    /// The pattern's variables no level above binds: a match binds them
    /// first.
    fn fresh(&self) -> Vec<usize> {
        [self.place.subject, self.place.object]
            .into_iter()
            .filter(|v| !self.bound_vars.contains(v))
            .collect()
    }
}

/// One probe's matches: a relation-free step's whole posting, or a timed
/// posting under the probing tuple's admissible intervals.
enum Matches<'i> {
    Plain(&'i [EventRef]),
    Timed(&'i Postings, TimeBounds),
}

impl Matches<'_> {
    /// How many matches there are (slice lengths, or the posting's length
    /// on a relation-free step).
    #[inline]
    fn count(&self, ctr: &mut JoinStepStat) -> usize {
        match *self {
            Matches::Plain(refs) => refs.len(),
            Matches::Timed(p, b) => {
                let Some((slices, check_end)) = p.slices(&b) else {
                    ctr.bucket_skipped += p.refs.len() as u64;
                    return 0;
                };
                let (mut searched, mut n) = (0, 0);
                for slice in slices {
                    searched += slice.len();
                    n += match check_end {
                        true => slice.filter(|&j| b.end_ok(p.ends[j])).count(),
                        false => slice.len(),
                    };
                }
                ctr.bucket_skipped += (p.refs.len() - searched) as u64;
                n
            }
        }
    }

    /// Calls `f` on every match, in candidate order, until it returns
    /// `true`; returns whether it did.
    #[inline]
    fn each(&self, ctr: &mut JoinStepStat, mut f: impl FnMut(EventRef) -> bool) -> bool {
        match *self {
            Matches::Plain(refs) => refs.iter().any(|&r| f(r)),
            Matches::Timed(p, b) => {
                let Some((slices, check_end)) = p.slices(&b) else {
                    ctr.bucket_skipped += p.refs.len() as u64;
                    return false;
                };
                let mut searched = 0;
                for slice in slices {
                    searched += slice.len();
                    for j in slice {
                        if check_end && !b.end_ok(p.ends[j]) {
                            continue;
                        }
                        if f(p.refs[j]) {
                            return true;
                        }
                    }
                }
                ctr.bucket_skipped += (p.refs.len() - searched) as u64;
                false
            }
        }
    }
}

/// What the levels from some level `k` on observe of a tuple that placed
/// the levels above `k`: the ids of the variables their index keys read
/// and the events their time relations read, both bound above `k` (see the
/// module docs). Tuples alike in it have alike subtrees below `k`.
#[derive(Debug)]
struct Interface {
    vars: Vec<usize>,
    events: Vec<usize>,
    /// Whether level `k` memoises: not when the interface holds the seed's
    /// event, which no two tuples of a run share.
    stored: bool,
}

impl Interface {
    /// The interface of the levels from `k` on, over the join order `order`
    /// and its probe steps (`steps[k − 1]` places `order[k]`).
    fn of(a: &AnalyzedMultievent, order: &[usize], steps: &[JoinStep], k: usize) -> Self {
        let above = &order[..k];
        let bound = |v: usize| {
            (above.iter()).any(|&p| a.patterns[p].subject == v || a.patterns[p].object == v)
        };
        let (mut vars, mut events) = (Vec::new(), Vec::new());
        for s in &steps[k - 1..] {
            vars.extend(s.bound_vars.iter().copied().filter(|&v| bound(v)));
            events.extend(s.rels.iter().map(|r| r.other).filter(|p| above.contains(p)));
        }
        vars.sort_unstable();
        vars.dedup();
        events.sort_unstable();
        events.dedup();
        Interface {
            stored: !events.contains(&order[0]),
            vars,
            events,
        }
    }

    /// Writes tuple `t`'s interface into `key`: two ids a word, then one
    /// event a word.
    #[inline]
    fn key(&self, src: &RefArena, t: usize, key: &mut Vec<u64>) {
        key.clear();
        let (vars, events) = (src.vars_of(t), src.events_of(t));
        key.extend(id_words(&self.vars, vars));
        key.extend(self.events.iter().map(|&p| {
            let r = events[p];
            (u64::from(r.part) << 32) | u64::from(r.row)
        }));
    }
}

/// The ids a tuple binds in `slots` (`vars`: its binding row), two to a
/// key word.
fn id_words<'v>(slots: &'v [usize], vars: &'v [u32]) -> impl Iterator<Item = u64> + 'v {
    (slots.chunks(2)).map(|pair| (pair.iter()).fold(0, |w, &v| (w << 32) | u64::from(vars[v])))
}

/// Bytes a memo charges per entry beyond its key and value words: the
/// key's box and the table's slot and control byte.
const MEMO_ENTRY_BYTES: u64 = 32;

/// What the drive memoises (see the module docs), decided once per drive.
#[derive(Debug)]
enum Memo {
    /// Every tuple is driven through every level.
    Off,
    /// Levels `from..` are unread and the final level counts its matches;
    /// with `memoised`, a window at `from` delivers memoised counts.
    Counted { from: usize, memoised: bool },
    /// An id-keyed `distinct` reads the final level: `fresh` are the
    /// projected slots it binds first (one given twice when there is one),
    /// `pre` those bound above it.
    Distinct { fresh: [usize; 2], pre: Vec<usize> },
}

/// One level's memo for the current run: interface key → entry number,
/// the entries' words flat in `vals`. A counted level's entry is its
/// subtree's deliveries, then the tuples it materialises at each
/// non-final level from this one on; a distinct final level's is its match
/// count and the range of its distinct projected ids in `ids`.
#[derive(Debug, Default)]
struct LevelMemo {
    index: HashMap<Box<[u64]>, u32, MulHash>,
    vals: Vec<u64>,
    ids: Vec<[u32; 2]>,
    /// The interface being looked up, kept through a miss's recursion for
    /// its insert.
    key: Vec<u64>,
}

impl LevelMemo {
    fn clear(&mut self) {
        self.index.clear();
        self.vals.clear();
        self.ids.clear();
    }
}

/// A fork's account, under a memory budget, of the bytes the merge thread
/// would live-charge driving its run: what is live now, and the peak.
#[derive(Debug, Default)]
struct Tally {
    live: u64,
    peak: u64,
    /// The forks together ran out of room before this run finished: its
    /// output is incomplete, so it is dropped and the run re-driven.
    stopped: bool,
}

/// Mutable state of one drive: the per-level reused scratch arenas and
/// memos plus the accounting the recursion accumulates. Level 0 is the
/// seed, level `j ≥ 1` probe step `j − 1`. The merge thread threads one
/// `RunState` through every run it drives, so each level's scratch grows
/// to its high-water mark once; the parallel drive gives each run its own.
struct RunState {
    /// `levels[0]` holds the current run's seed expansion and `levels[j]`
    /// level `j`'s scratch output (`truncate(0)` between windows keeps
    /// capacity). The final level's stays empty — it delivers straight into
    /// the drive's output.
    levels: Vec<RefArena>,
    /// Per-level counters: probes, probe nanos, emitted tuples.
    steps: Vec<JoinStepStat>,
    /// Per level, its memo in the current run.
    memo: Vec<LevelMemo>,
    /// The (projected ids above the final level, final interface) keys an
    /// id-keyed `distinct` delivered in the current run.
    delivered: HashSet<Box<[u64]>, MulHash>,
    /// Bytes the run's memo holds, live-charged until the run ends.
    memo_bytes: u64,
    /// Per tuple of the memoised window being driven: its deliveries (a
    /// counted suffix) or its entry and whether it delivers its ids (a
    /// distinct final level).
    window: Vec<u64>,
    /// One distinct-final miss's ids seen so far.
    dedup: HashSet<u64, MulHash>,
    /// First level observed hitting the intermediate cap. The recursion
    /// finishes the truncated expansion's subtree before stopping, so a
    /// deeper level affected by the same stop records first.
    cut: Option<usize>,
    /// A governor trip stopped the drive mid-flight.
    gov_stop: bool,
    /// Error-mode governor trip, surfaced once the recursion unwinds.
    err: Option<EngineError>,
    /// A fork's byte tally under a memory budget (`None`: the merge thread,
    /// which charges the governor, or no memory budget).
    tally: Option<Tally>,
}

impl RunState {
    fn new(n: usize, nvars: usize, tally: bool) -> Self {
        RunState {
            levels: (0..n).map(|_| RefArena::new(n, nvars)).collect(),
            steps: vec![JoinStepStat::default(); n],
            memo: (0..n).map(|_| LevelMemo::default()).collect(),
            delivered: HashSet::default(),
            memo_bytes: 0,
            window: Vec::new(),
            dedup: HashSet::default(),
            cut: None,
            gov_stop: false,
            err: None,
            tally: tally.then(Tally::default),
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
    /// Expansion (non-seed, non-final) row cap: the tuple cap.
    icap: usize,
    /// Live memory accounting is on: a memory budget is set.
    charge: bool,
    /// Bytes the memory budget had left when the drive started: what the
    /// forks may hold together.
    room: u64,
    /// Bytes the forks' tallies hold together (never above `room`).
    forks_held: AtomicU64,
    /// The highest `forks_held` reached.
    forks_peak: AtomicU64,
    /// A fork's charge did not fit `room`: every fork stops at its next
    /// charge, and no run starts in a fork.
    forks_full: AtomicBool,
    /// What the drive memoises.
    memo: Memo,
    /// Per level, the interface of the levels from it on (memoised levels
    /// only).
    ifaces: Vec<Option<Interface>>,
}

impl Drive<'_, '_> {
    /// Levels of the drive: the seed plus every probe step.
    fn levels(&self) -> usize {
        self.steps.len() + 1
    }

    /// The interface of memoised level `k`.
    fn iface(&self, k: usize) -> &Interface {
        self.ifaces[k]
            .as_ref()
            .expect("a memoised level has an interface")
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

    /// Looks tuple `t` up in `step`'s index: its matches, or `None` when
    /// no candidate can match.
    #[inline]
    fn lookup<'i>(
        &self,
        step: &'i JoinStep,
        tuples: &RefArena,
        t: usize,
        ctr: &mut JoinStepStat,
    ) -> Option<Matches<'i>> {
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
                    return None;
                }
            }
        }
        let key = pack(ids);
        ctr.probes += 1;
        let matches = match &step.index {
            // Relation-free step: every match under the key joins.
            StepIndex::Plain(index) => Matches::Plain(index.get(&key)?),
            StepIndex::Timed(index) => {
                let p = index.get(&key)?;
                let b = TimeBounds::of(&step.rels, tuples.events_of(t), &self.env.parts);
                Matches::Timed(p, b)
            }
        };
        ctr.probe_hits += 1;
        Some(matches)
    }

    /// Probes `step`'s index for tuple `t` and delivers the surviving
    /// extensions to `out` — one by one, or (`COUNT`, an unread final
    /// level) as one count. Returns `true` when the tracker's budget was
    /// exhausted — the caller must stop its drive.
    #[inline]
    fn probe_into<O: JoinOutput, const COUNT: bool>(
        &self,
        step: &JoinStep,
        tuples: &RefArena,
        t: usize,
        out: &mut O,
        caps: &mut CapTracker<'_>,
        ctr: &mut JoinStepStat,
    ) -> bool {
        let Some(matches) = self.lookup(step, tuples, t, ctr) else {
            return false;
        };
        let place = step.place;
        if COUNT {
            return place.emit_count(out, tuples, t, matches.count(ctr), caps);
        }
        let parts = &self.env.parts;
        matches.each(ctr, |r| place.emit(parts, out, tuples, t, r, caps))
    }

    /// Probes level `j`'s step for tuples `[lo, hi)` of `cur`, delivering
    /// into `next`. Returns `(capped, gov_stop)`.
    #[allow(clippy::too_many_arguments)]
    fn probe_window<O: JoinOutput, const COUNT: bool>(
        &self,
        j: usize,
        cur: &RefArena,
        lo: usize,
        hi: usize,
        next: &mut O,
        caps: &mut CapTracker<'_>,
        ctr: &mut JoinStepStat,
        gov: Option<&Governor>,
    ) -> (bool, bool) {
        let step = &self.steps[j - 1];
        let mut gate = GovGate::new(gov);
        for t in lo..hi {
            if gate.tick().is_some() {
                return (false, true);
            }
            if self.probe_into::<O, COUNT>(step, cur, t, next, caps, ctr) {
                return (!caps.gov_stop, caps.gov_stop);
            }
        }
        (false, false)
    }

    /// Live memory accounting (under a memory budget only): on the merge
    /// thread, charges `bytes`, stopping the drive on a trip — error mode
    /// stashes the unwind error in `st`; in a fork, adds them to its tally
    /// and to the forks' shared count, stopping the run (and every other
    /// fork) when that count would pass the drive's starting room.
    fn charge_live(&self, st: &mut RunState, gov: Option<&Governor>, bytes: u64) -> Flow {
        if !self.charge {
            return Flow::Continue;
        }
        if let Some(t) = &mut st.tally {
            if !self.forks_full.load(Ordering::Relaxed) {
                let held = self.forks_held.fetch_add(bytes, Ordering::Relaxed) + bytes;
                if held <= self.room {
                    self.forks_peak.fetch_max(held, Ordering::Relaxed);
                    t.live += bytes;
                    t.peak = t.peak.max(t.live);
                    return Flow::Continue;
                }
                self.forks_held.fetch_sub(bytes, Ordering::Relaxed);
                self.forks_full.store(true, Ordering::Relaxed);
            }
            t.stopped = true;
            return Flow::Stop;
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

    fn uncharge(&self, st: &mut RunState, gov: Option<&Governor>, bytes: u64) {
        if !self.charge {
            return;
        }
        match (&mut st.tally, gov) {
            (Some(t), _) => {
                t.live -= bytes;
                self.forks_held.fetch_sub(bytes, Ordering::Relaxed);
            }
            (None, Some(g)) => g.uncharge(bytes),
            (None, None) => {}
        }
    }

    /// Live-charges `bytes` the run's memo now holds (released when the
    /// run ends, [`Drive::end_run`]). `false` means stop.
    fn charge_memo(&self, st: &mut RunState, gov: Option<&Governor>, bytes: u64) -> bool {
        let go = self.charge_live(st, gov, bytes) == Flow::Continue;
        st.memo_bytes += if go { bytes } else { 0 };
        go
    }

    /// Ends a seed run: its memo is dropped and its bytes released.
    fn end_run(&self, st: &mut RunState, gov: Option<&Governor>) {
        if matches!(self.memo, Memo::Off) {
            return;
        }
        st.memo.iter_mut().for_each(LevelMemo::clear);
        st.delivered.clear();
        let bytes = std::mem::take(&mut st.memo_bytes);
        self.uncharge(st, gov, bytes);
    }

    /// Runs `deliver` — the final level's emission into `out`, returning
    /// `(capped, gov_stop)` — under the output's accounting. What the output
    /// keeps of the delivered tuples stays live and is charged permanently
    /// (every tuple for an arena; rows, group states or distinct keys for a
    /// projection sink).
    fn deliver_final<O: JoinOutput>(
        &self,
        st: &mut RunState,
        out: &mut O,
        gov: Option<&Governor>,
        deliver: impl FnOnce(&mut O, &mut RunState) -> (bool, bool),
    ) -> Flow {
        let last = self.levels() - 1;
        let before = out.delivered();
        let held = out.retained_bytes();
        let t = Instant::now();
        let (capped, gov_stop) = deliver(out, st);
        st.steps[last].probe_nanos += t.elapsed().as_nanos() as u64;
        st.steps[last].rows_out += out.delivered() - before;
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

    /// Counted level `k`'s entry for tuple `t` of `src` (see [`LevelMemo`]):
    /// the memoised one when level `k` stores and holds `t`'s interface;
    /// else one computed by enumerating `t`'s matches at `k` into the
    /// level's scratch (capped at the tuple cap, which makes any window
    /// holding the entry fall back) and adding each one's entry at `k + 1`
    /// — the final level only counts. Returns the entry's offset in
    /// `st.memo[k].vals`, which the caller drops when level `k` does not
    /// store, or `None` when the drive must stop.
    fn counted_entry(
        &self,
        k: usize,
        src: &RefArena,
        t: usize,
        st: &mut RunState,
        gov: Option<&Governor>,
        gate: &mut GovGate<'_>,
    ) -> Option<usize> {
        if gate.tick().is_some() {
            st.gov_stop = true;
            return None;
        }
        let last = self.levels() - 1;
        let stride = 1 + last - k;
        let iface = self.iface(k);
        let memo = &mut st.memo[k];
        if iface.stored {
            iface.key(src, t, &mut memo.key);
            if let Some(&e) = memo.index.get(memo.key.as_slice()) {
                st.steps[k].memo_hits += 1;
                return Some(e as usize * stride);
            }
            st.steps[k].memo_misses += 1;
        }
        let base = memo.vals.len();
        memo.vals.resize(base + stride, 0);
        let step = &self.steps[k - 1];
        if k == last {
            let ctr = &mut st.steps[k];
            let n = self.lookup(step, src, t, ctr).map_or(0, |m| m.count(ctr));
            st.memo[k].vals[base] = n as u64;
        } else {
            let mut scratch = std::mem::take(&mut st.levels[k]);
            scratch.truncate(0);
            let mut caps = CapTracker::fixed(self.icap, None);
            let ctr = &mut st.steps[k];
            if let Some(m) = self.lookup(step, src, t, ctr) {
                let parts = &self.env.parts;
                m.each(ctr, |r| {
                    (step.place).emit(parts, &mut scratch, src, t, r, &mut caps)
                });
            }
            ctr.rows_out += scratch.len();
            st.memo[k].vals[base + 1] = scratch.len() as u64;
            let bytes = scratch.retained_bytes();
            let mut go = self.charge_live(st, gov, bytes) == Flow::Continue;
            if go {
                for m in 0..scratch.len() {
                    let Some(sub) = self.counted_entry(k + 1, &scratch, m, st, gov, gate) else {
                        go = false;
                        break;
                    };
                    let (upper, lower) = st.memo.split_at_mut(k + 1);
                    let (entry, below) = (&mut upper[k].vals, &mut lower[0].vals);
                    let add = |e: &mut u64, s: &u64| *e = e.saturating_add(*s);
                    add(&mut entry[base], &below[sub]);
                    let totals = &mut entry[base + 2..base + stride];
                    (totals.iter_mut())
                        .zip(&below[sub + 1..])
                        .for_each(|(e, s)| add(e, s));
                    if !self.iface(k + 1).stored {
                        below.truncate(sub);
                    }
                }
                self.uncharge(st, gov, bytes);
            }
            st.levels[k] = scratch;
            if !go {
                return None;
            }
        }
        if iface.stored {
            let memo = &mut st.memo[k];
            memo.index
                .insert(memo.key.as_slice().into(), (base / stride) as u32);
            let bytes = MEMO_ENTRY_BYTES + 8 * (memo.key.len() + stride) as u64;
            if !self.charge_memo(st, gov, bytes) {
                return None;
            }
        }
        Some(base)
    }

    /// A counted suffix's window: tuples `[lo, hi)` of `cur`, at the
    /// suffix's first level `j`. The first pass takes every tuple's entry;
    /// unless a cap could bind in the window (its deliveries reach the
    /// output's room, or its tuples at some non-final level the tuple cap),
    /// the second delivers each tuple's count. `None` means a cap could
    /// bind: the caller drives the window tuple by tuple.
    #[allow(clippy::too_many_arguments)]
    fn counted_window<O: JoinOutput>(
        &self,
        j: usize,
        cur: &RefArena,
        lo: usize,
        hi: usize,
        st: &mut RunState,
        out: &mut O,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Option<Flow> {
        let last = self.levels() - 1;
        let stride = 1 + last - j;
        let t0 = Instant::now();
        let mut gate = GovGate::new(gov);
        let mut totals = vec![0u64; stride];
        let mut window = std::mem::take(&mut st.window);
        window.clear();
        let mut stopped = false;
        for t in lo..hi {
            let Some(e) = self.counted_entry(j, cur, t, st, gov, &mut gate) else {
                stopped = true;
                break;
            };
            let vals = &mut st.memo[j].vals;
            (totals.iter_mut().zip(&vals[e..e + stride]))
                .for_each(|(n, v)| *n = n.saturating_add(*v));
            window.push(vals[e]);
            if !self.iface(j).stored {
                vals.truncate(e);
            }
        }
        st.steps[j].probe_nanos += t0.elapsed().as_nanos() as u64;
        let room = out_caps.cap.saturating_sub(out.delivered()) as u64;
        let flow = if stopped {
            Some(Flow::Stop)
        } else if totals[0] >= room || totals[1..].iter().any(|&n| n >= self.icap as u64) {
            None
        } else {
            let place = self.steps[last - 1].place;
            Some(self.deliver_final(st, out, gov, |out, _| {
                for (t, &n) in (lo..hi).zip(&window) {
                    if place.emit_count(out, cur, t, n as usize, out_caps) {
                        return (!out_caps.gov_stop, out_caps.gov_stop);
                    }
                }
                (false, false)
            }))
        };
        st.window = window;
        flow
    }

    /// A distinct final level's window: tuples `[lo, hi)` of `cur`. The
    /// first pass takes every tuple's entry — its match count and distinct
    /// projected ids, enumerated on a miss — and whether the tuple's `pre`
    /// ids and interface are new to the run; unless the window's matches
    /// reach the output's room, the second delivers each tuple: its ids
    /// when new, else only its count. `None` as
    /// [`Drive::counted_window`].
    #[allow(clippy::too_many_arguments)]
    fn distinct_window<O: JoinOutput>(
        &self,
        cur: &RefArena,
        lo: usize,
        hi: usize,
        (fresh, pre): ([usize; 2], &[usize]),
        st: &mut RunState,
        out: &mut O,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Option<Flow> {
        let last = self.levels() - 1;
        let (iface, step) = (self.iface(last), &self.steps[last - 1]);
        let place = step.place;
        let from_subject = fresh.map(|v| v == place.subject);
        let t0 = Instant::now();
        let mut gate = GovGate::new(gov);
        let mut window = std::mem::take(&mut st.window);
        window.clear();
        let (mut total, mut stopped) = (0u64, false);
        let mut key: Vec<u64> = Vec::with_capacity(1 + pre.len());
        for t in lo..hi {
            if gate.tick().is_some() {
                st.gov_stop = true;
                stopped = true;
                break;
            }
            let memo = &mut st.memo[last];
            iface.key(cur, t, &mut memo.key);
            let e = match memo.index.get(memo.key.as_slice()) {
                Some(&e) => {
                    st.steps[last].memo_hits += 1;
                    e as usize
                }
                None => {
                    st.steps[last].memo_misses += 1;
                    let (e, first) = (memo.vals.len() / 3, memo.ids.len());
                    let (ids, dedup) = (&mut memo.ids, &mut st.dedup);
                    dedup.clear();
                    let mut n = 0u64;
                    let ctr = &mut st.steps[last];
                    if let Some(m) = self.lookup(step, cur, t, ctr) {
                        let parts = &self.env.parts;
                        m.each(ctr, |r| {
                            n += 1;
                            let (s, o) = parts.subject_object(r);
                            let pick = |subj: bool| if subj { s.raw() } else { o.raw() };
                            let pair = from_subject.map(pick);
                            if dedup.insert((u64::from(pair[0]) << 32) | u64::from(pair[1])) {
                                ids.push(pair);
                            }
                            false
                        });
                    }
                    memo.vals.extend([n, first as u64, memo.ids.len() as u64]);
                    memo.index.insert(memo.key.as_slice().into(), e as u32);
                    let words = memo.key.len() + 3 + (memo.ids.len() - first);
                    if !self.charge_memo(st, gov, MEMO_ENTRY_BYTES + 8 * words as u64) {
                        stopped = true;
                        break;
                    }
                    e
                }
            };
            let n = st.memo[last].vals[3 * e];
            total = total.saturating_add(n);
            // Whether the tuple delivers its ids: its projected ids above
            // the final level and its interface are new to the run.
            let mut fresh_key = false;
            if n > 0 {
                let vars = cur.vars_of(t);
                key.clear();
                key.push(e as u64);
                key.extend(id_words(pre, vars));
                if !st.delivered.contains(key.as_slice()) {
                    st.delivered.insert(key.as_slice().into());
                    fresh_key = true;
                    if !self.charge_memo(st, gov, MEMO_ENTRY_BYTES + 8 * key.len() as u64) {
                        stopped = true;
                        break;
                    }
                }
            }
            window.push(((e as u64) << 1) | u64::from(fresh_key));
        }
        st.steps[last].probe_nanos += t0.elapsed().as_nanos() as u64;
        let room = out_caps.cap.saturating_sub(out.delivered()) as u64;
        let flow = if stopped {
            Some(Flow::Stop)
        } else if total >= room {
            None
        } else {
            Some(self.deliver_final(st, out, gov, |out, st| {
                let memo = &st.memo[last];
                for (t, &w) in (lo..hi).zip(&window) {
                    let e = (w >> 1) as usize;
                    let [n, a, z] = [0, 1, 2].map(|i| memo.vals[3 * e + i] as usize);
                    if n == 0 {
                        continue;
                    }
                    let ids = if w & 1 == 1 { &memo.ids[a..z] } else { &[] };
                    out.emit_ids(cur, t, place.pattern, fresh, ids, n);
                    if out_caps.exhausted(out.delivered()) {
                        return (!out_caps.gov_stop, out_caps.gov_stop);
                    }
                }
                (false, false)
            }))
        };
        st.window = window;
        flow
    }

    /// The final level over all of `cur`: memoised windows where the memo
    /// reaches it (each falling back to the per-tuple drive where a cap
    /// could bind), else one per-tuple pass — counting matches when the
    /// level is unread.
    fn deliver_last<O: JoinOutput>(
        &self,
        cur: &RefArena,
        st: &mut RunState,
        out: &mut O,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        let last = self.levels() - 1;
        let count = matches!(self.memo, Memo::Counted { .. });
        let per_tuple = |st: &mut RunState, out: &mut O, caps: &mut CapTracker<'_>, lo, hi| {
            self.deliver_final(st, out, gov, |out, st| {
                let ctr = &mut st.steps[last];
                match count {
                    true => self.probe_window::<O, true>(last, cur, lo, hi, out, caps, ctr, gov),
                    false => self.probe_window::<O, false>(last, cur, lo, hi, out, caps, ctr, gov),
                }
            })
        };
        let memoised = match &self.memo {
            Memo::Counted { from, memoised } => *memoised && *from == last,
            Memo::Distinct { .. } => true,
            Memo::Off => false,
        };
        if !memoised {
            return per_tuple(st, out, out_caps, 0, cur.len());
        }
        let mut lo = 0;
        while lo < cur.len() {
            let hi = (lo + EXPAND_CHUNK).min(cur.len());
            let window = match &self.memo {
                Memo::Distinct { fresh, pre } => {
                    self.distinct_window(cur, lo, hi, (*fresh, pre), st, out, out_caps, gov)
                }
                _ => self.counted_window(last, cur, lo, hi, st, out, out_caps, gov),
            };
            let flow = window.unwrap_or_else(|| per_tuple(st, out, out_caps, lo, hi));
            if flow == Flow::Stop {
                return Flow::Stop;
            }
            lo = hi;
        }
        Flow::Continue
    }

    /// Expands frontier `cur` through levels `j..` depth-first (see the
    /// module docs): a non-final level windows `cur` into
    /// [`EXPAND_CHUNK`]-tuple windows — memoised at a counted suffix's
    /// first level, else each filling the level's reused scratch (one
    /// expansion, at most `icap` tuples) and recursing on it before the
    /// next window runs; the final level delivers straight into `out` under
    /// `out_caps`.
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
            return self.deliver_last(cur, st, out, out_caps, gov);
        }
        let memoised = matches!(self.memo, Memo::Counted { from, memoised: true } if from == j);
        let mut lo = 0;
        while lo < cur.len() {
            let hi = (lo + EXPAND_CHUNK).min(cur.len());
            let window = match memoised {
                true => self.counted_window(j, cur, lo, hi, st, out, out_caps, gov),
                false => None,
            };
            let flow = window
                .unwrap_or_else(|| self.expand_window(j, cur, lo, hi, st, out, out_caps, gov));
            if flow == Flow::Stop {
                return Flow::Stop;
            }
            lo = hi;
        }
        Flow::Continue
    }

    /// One per-tuple window of non-final level `j`: probes tuples
    /// `[lo, hi)` of `cur` into the level's scratch and recurses on the
    /// expansion. An expansion that hits the tuple cap cuts the run once
    /// its prefix's subtree finished.
    #[allow(clippy::too_many_arguments)]
    fn expand_window<O: JoinOutput>(
        &self,
        j: usize,
        cur: &RefArena,
        lo: usize,
        hi: usize,
        st: &mut RunState,
        out: &mut O,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        let mut scratch = std::mem::take(&mut st.levels[j]);
        scratch.truncate(0);
        let t = Instant::now();
        let mut caps = CapTracker::fixed(self.icap, gov);
        let step = &mut st.steps[j];
        let (capped, gov_stop) = self.probe_window::<RefArena, false>(
            j,
            cur,
            lo,
            hi,
            &mut scratch,
            &mut caps,
            step,
            gov,
        );
        step.probe_nanos += t.elapsed().as_nanos() as u64;
        step.rows_out += scratch.len();
        let flow = if gov_stop {
            st.gov_stop = true;
            Flow::Stop
        } else {
            let bytes = scratch.retained_bytes();
            if self.charge_live(st, gov, bytes) == Flow::Stop {
                Flow::Stop
            } else {
                let sub = self.expand(j + 1, &scratch, st, out, out_caps, gov);
                self.uncharge(st, gov, bytes);
                if sub == Flow::Continue && capped {
                    // The expansion hit the intermediate cap and its
                    // prefix's subtree just finished: the run cuts here and
                    // the drive stops after it.
                    st.cut.get_or_insert(j);
                    Flow::Stop
                } else {
                    sub
                }
            }
        };
        st.levels[j] = scratch;
        flow
    }

    /// Drives seed slice `[lo, hi)` depth-first through every level. With
    /// no probe step the seed is the final level and the slice goes straight
    /// into `out`; otherwise the seed expansion comes first (exempt from
    /// the intermediate cap — it is bounded by the block size by
    /// construction, which keeps sideways seed pruning emission-invariant
    /// under truncation), then the chunked recursion over the steps. The
    /// run's memo ends with it.
    ///
    /// `EngineConfig::inject_drive_panic` panics here, on whichever thread
    /// drives the run: in the parallel drive the panic is caught and the
    /// query gets `WorkerPanic`; in the serial drive it unwinds the query
    /// thread.
    fn drive_run<O: JoinOutput>(
        &self,
        lo: usize,
        hi: usize,
        st: &mut RunState,
        out: &mut O,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        if self.env.config.inject_drive_panic {
            panic!("injected drive panic (EngineConfig::inject_drive_panic)");
        }
        if self.steps.is_empty() {
            return self
                .deliver_final(st, out, gov, |out, _| self.emit_seed(lo, hi, out, out_caps));
        }
        let t0 = Instant::now();
        let mut seedbuf = std::mem::take(&mut st.levels[0]);
        seedbuf.truncate(0);
        let mut caps = CapTracker::fixed(usize::MAX, gov);
        let (_, gov_stop) = self.emit_seed(lo, hi, &mut seedbuf, &mut caps);
        st.steps[0].probe_nanos += t0.elapsed().as_nanos() as u64;
        st.steps[0].rows_out += seedbuf.len();
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
                self.uncharge(st, gov, bytes);
                flow
            }
        };
        st.levels[0] = seedbuf;
        self.end_run(st, gov);
        flow
    }
}

/// What the drive memoises over the join order `order` and its probe
/// steps, with the interface of every memoised level (see the module
/// docs): a counted suffix when the output leaves the last levels unread,
/// else a distinct final level when an id-keyed `distinct` reads it — in
/// either case only where some level stores.
fn plan_memo<O: JoinOutput>(
    a: &AnalyzedMultievent,
    order: &[usize],
    steps: &[JoinStep],
    out: &O,
) -> (Memo, Vec<Option<Interface>>) {
    let last = steps.len();
    let mut ifaces: Vec<Option<Interface>> = (0..=last).map(|_| None).collect();
    let Some(final_step) = steps.last() else {
        return (Memo::Off, ifaces);
    };
    // The longest unread suffix: level `k` is step `k − 1`.
    let from = (1..=last)
        .rev()
        .take_while(|&k| {
            let s = &steps[k - 1];
            out.unread(s.place.pattern, &s.fresh(), k == last)
        })
        .last();
    if let Some(from) = from {
        for (k, iface) in ifaces.iter_mut().enumerate().skip(from) {
            *iface = Some(Interface::of(a, order, steps, k));
        }
        let memoised = ifaces.iter().flatten().any(|i| i.stored);
        if !memoised {
            ifaces.iter_mut().for_each(|i| *i = None);
        }
        return (Memo::Counted { from, memoised }, ifaces);
    }
    let Some(slots) = out.id_keys() else {
        return (Memo::Off, ifaces);
    };
    let fresh: Vec<usize> = (final_step.fresh().into_iter())
        .filter(|v| slots.contains(v))
        .collect();
    let iface = Interface::of(a, order, steps, last);
    if fresh.is_empty() || !iface.stored {
        return (Memo::Off, ifaces);
    }
    let pre = (slots.iter().copied())
        .filter(|v| !fresh.contains(v))
        .collect();
    ifaces[last] = Some(iface);
    let fresh = [fresh[0], *fresh.last().expect("a fresh slot")];
    (Memo::Distinct { fresh, pre }, ifaces)
}

/// The join drive (see the module docs): every probe step's index built
/// once up front, then the seed driven depth-first in bounded runs, merged
/// in ascending seed order into `out`. Returns the output, the
/// `Warning::TupleCap` when the cap cut the drive, and the accounting.
fn drive_join<O: JoinOutput>(
    env: &ExecEnv<'_>,
    candidates: &[Vec<EventRef>],
    domains: &[Option<(IdSet, IdSet)>],
    mut out: O,
) -> Result<(O, Option<Warning>, OpStat), EngineError> {
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
    let out_cap = env.max_tuples;
    let mut io = OpStat::default();

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
        // in sorted runs for the probe's time search.
        let rels = a.step_relations(i, &placed);
        let t_build = Instant::now();
        let index = match rels.is_empty() {
            true => StepIndex::Plain(build_index(parts, refs, same_var, key_of_ref)),
            false => StepIndex::Timed(build_index(parts, refs, same_var, key_of_ref)),
        };
        let build_nanos = t_build.elapsed().as_nanos() as u64;
        io.build_nanos += build_nanos;
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
    let (memo, ifaces) = plan_memo(a, &join_order, &steps, &out);

    // An arena output is reserved to the drive's worst case — seed size
    // times every step's indexed-ref count — clamped by the output cap and
    // a 4 Mi-tuple lid so a pathological tuple cap cannot reserve
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

    let block = env
        .config
        .join_block_tuples
        .max(1)
        .max(seed_total.div_ceil(MAX_RUNS));
    let nruns = seed_total.div_ceil(block);
    let mut early_exit: Option<usize> = None;
    let mut runs_driven = 0u64;
    let mut counters = vec![JoinStepStat::default(); n];

    if out_cap == 0 {
        // The cap is already spent: the empty prefix is the whole answer,
        // cut where the output fills.
        early_exit = Some(n - 1);
    } else if seed_total > 0 {
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
            room: gov.map_or(u64::MAX, Governor::room),
            forks_held: AtomicU64::new(0),
            forks_peak: AtomicU64::new(0),
            forks_full: AtomicBool::new(false),
            memo,
            ifaces,
        };
        let t_probe = Instant::now();
        // Parallel drive: every run fills a fork of the output under the
        // shared budget. `None` marks a run skipped because the runs before
        // it had already produced the whole output cap — the demand-driven
        // win: seed tuples nobody will consume are never driven.
        let mut partials: Vec<Option<(O, RunState)>> = Vec::new();
        if nruns > 1 && env.config.parallelism > 1 {
            let workers = env.config.parallelism.min(nruns);
            let budget = JoinBudget::new(out_cap, nruns);
            let slots: Vec<Mutex<Option<(O, RunState)>>> =
                (0..nruns).map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            let panicked: Mutex<Option<String>> = Mutex::new(None);
            let out = &out;
            // The query thread and `workers − 1` scoped threads pull run
            // indexes from one cursor, so skewed runs balance. A panic ends
            // only its own thread's loop; the first message becomes the
            // query's `WorkerPanic` once every thread has joined.
            let participate = || {
                let drove = catch_unwind(AssertUnwindSafe(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= nruns {
                        break;
                    }
                    if budget.cap(k) == 0 || drive.forks_full.load(Ordering::Relaxed) {
                        continue;
                    }
                    let (lo, hi) = run_range(k);
                    let mut st = RunState::new(n, nvars, charge);
                    let mut local = out.fork();
                    let mut caps = CapTracker::shared(&budget, k, gov);
                    let _ = drive.drive_run(lo, hi, &mut st, &mut local, &mut caps, gov);
                    budget.publish(k, local.delivered());
                    // What the run still holds is its output's retained
                    // bytes: released with a stopped run's output now,
                    // counted until the merge otherwise.
                    if let Some(t) = st.tally.as_ref().filter(|t| t.stopped) {
                        drive.forks_held.fetch_sub(t.live, Ordering::Relaxed);
                        continue;
                    }
                    // Only the run's accounting outlives it, not its scratch.
                    st.levels = Vec::new();
                    *crate::op::lock_clean(&slots[k]) = Some((local, st));
                }));
                if let Err(payload) = drove {
                    let message = crate::error::panic_message(payload.as_ref());
                    crate::op::lock_clean(&panicked).get_or_insert(message);
                }
            };
            std::thread::scope(|s| {
                for _ in 1..workers {
                    s.spawn(participate);
                }
                participate();
            });
            if let Some(message) = crate::op::unwrap_clean(panicked) {
                return Err(EngineError::WorkerPanic { message });
            }
            partials = slots.into_iter().map(crate::op::unwrap_clean).collect();
            io.fanout = workers;
            io.fork_peak_bytes = drive.forks_peak.load(Ordering::Relaxed);
        }
        partials.resize_with(nruns, || None);

        // Runs fold into `out` in ascending seed order. A run's partial is
        // merged when it fits the remaining output room and the memory
        // budget's remaining room, and merges exactly; every other run —
        // all of them in the serial drive, and in the parallel one the run
        // that straddles the output cap, a run the memory budget cannot
        // take whole, a run whose fork the forks' shared room stopped or
        // never started, or one whose partial would not merge bit for bit — is
        // driven here, into `out` itself, under one absolute tracker that
        // sees the exact remaining room and with live charging. Serial and
        // parallel therefore produce the same output by construction. One
        // `RunState` serves every run driven here, so each level's scratch
        // grows to its high-water mark once.
        let mut st = RunState::new(n, nvars, false);
        let mut caps = CapTracker::fixed(out_cap, gov);
        let mut tripped = false;
        for (k, partial) in partials.into_iter().enumerate() {
            let held = out.retained_bytes();
            let mut merged = false;
            if let Some((part, p)) = partial {
                if p.gov_stop {
                    // The run stopped mid-flight on a trip: its partial
                    // output is dropped and the merged prefix ends at the
                    // previous run boundary (still a valid emission-order
                    // prefix).
                    tripped = true;
                    break;
                }
                let room = gov.map_or(u64::MAX, Governor::room);
                let fits = part.delivered() <= out_cap - out.delivered()
                    && p.tally.as_ref().is_none_or(|t| t.peak <= room);
                if fits && out.merge(part) {
                    merged = true;
                    // The run's accounting joins that of the runs driven
                    // here.
                    (st.steps.iter_mut().zip(&p.steps)).for_each(|(s, o)| s.add(o));
                    st.cut = st.cut.or(p.cut);
                }
            }
            let flow = if merged {
                // What the run added to the output stays live, charged as
                // when the run is driven here (it fits: the tally's peak
                // bounds it).
                drive.charge_live(&mut st, gov, out.retained_bytes() - held)
            } else {
                let (lo, hi) = run_range(k);
                drive.drive_run(lo, hi, &mut st, &mut out, &mut caps, gov)
            };
            if let Some(e) = st.err.take() {
                return Err(e);
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
        counters = st.steps;
        early_exit = st.cut.or((out.delivered() >= out_cap).then_some(n - 1));
        io.probe_nanos += t_probe.elapsed().as_nanos() as u64;
    }
    let cap_trip = early_exit.map(|cut_level| Warning::TupleCap {
        cap: out_cap,
        cut_level,
        runs_driven,
        runs: nruns as u64,
    });

    // Level 0 is the seed — delivered, never probed; what sideways seed
    // pruning dropped counts there.
    let seed_stat = JoinStepStat {
        pattern: seed.pattern,
        candidates: seed_total,
        filter_pruned: seed_pruned_count,
        ..JoinStepStat::default()
    };
    io.join_steps = (std::iter::once(seed_stat))
        .chain(steps.iter().map(|s| JoinStepStat {
            pattern: s.place.pattern,
            candidates: s.candidates,
            filter_pruned: s.candidate_pruned,
            sorted_runs: s.index.sorted_runs(),
            build_nanos: s.build_nanos,
            ..JoinStepStat::default()
        }))
        .collect();
    for (stat, c) in io.join_steps.iter_mut().zip(&counters) {
        stat.add(c);
        io.probe_hits += stat.probe_hits;
        io.bucket_skipped += stat.bucket_skipped;
        io.filter_pruned += stat.filter_pruned;
        io.emitted_tuples += stat.rows_out as u64;
    }
    io.runs_driven = runs_driven;
    io.early_exit_depth = early_exit;
    Ok((out, cap_trip, io))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64*: a deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// A time: mostly small values near zero, sometimes anywhere, and
        /// sometimes within a few micros of either `i64` extreme.
        fn time(&mut self) -> i64 {
            match self.next() % 8 {
                0 => i64::MIN + (self.next() % 3) as i64,
                1 => i64::MAX - (self.next() % 3) as i64,
                2 => self.next() as i64,
                _ => (self.next() % 40) as i64 - 20,
            }
        }

        /// An interval bound: unbounded a third of the time.
        fn bound(&mut self, unbounded: i64) -> i64 {
            match self.next() % 3 {
                0 => unbounded,
                _ => self.time(),
            }
        }
    }

    /// Random postings — short sorted stretches broken by jumps, durations
    /// negative, zero, positive and extreme — against random admissible
    /// intervals: the runs break exactly where a start decreases, and the
    /// binary-searched slices (with their end check) select exactly the
    /// refs a linear filter selects, in candidate order.
    #[test]
    fn time_search_slices_equal_a_linear_filter_in_candidate_order() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..3000 {
            let mut p = Postings::default();
            let mut prev = rng.time();
            for row in 0..(rng.next() % 40) as u32 {
                let s = match rng.next() % 3 {
                    0 => rng.time(),
                    _ => prev.saturating_add((rng.next() % 5) as i64),
                };
                let e = match rng.next() % 4 {
                    0 => rng.time(),
                    1 => s.saturating_sub((rng.next() % 5) as i64),
                    _ => s.saturating_add((rng.next() % 10) as i64),
                };
                p.push(EventRef { part: 0, row }, s, e);
                prev = s;
            }
            let breaks: Vec<u32> = (1..p.starts.len())
                .filter(|&j| p.starts[j] < p.starts[j - 1])
                .map(|j| j as u32)
                .collect();
            assert_eq!(p.breaks, breaks);
            assert_eq!(
                p.runs().map(|(lo, hi)| hi - lo).sum::<usize>(),
                p.refs.len()
            );
            for _ in 0..20 {
                let b = TimeBounds {
                    slo: rng.bound(i64::MIN),
                    shi: rng.bound(i64::MAX),
                    elo: rng.bound(i64::MIN),
                    ehi: rng.bound(i64::MAX),
                };
                let want: Vec<usize> = (0..p.refs.len())
                    .filter(|&j| b.slo <= p.starts[j] && p.starts[j] <= b.shi)
                    .filter(|&j| b.end_ok(p.ends[j]))
                    .collect();
                let got: Vec<usize> = match p.slices(&b) {
                    None => Vec::new(),
                    Some((slices, check_end)) => slices
                        .flatten()
                        .filter(|&j| !check_end || b.end_ok(p.ends[j]))
                        .collect(),
                };
                assert_eq!(got, want, "{b:?} over {:?}", (&p.starts, &p.ends));
            }
        }
    }
}
