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
//! ## The drive: one level evaluator
//!
//! There is one drive, for every pattern count. The seed candidates are
//! taken in runs of `join_block_tuples` tuples, and each run goes through
//! one recursive evaluator, `level(k, window)`, depth-first through *every*
//! level before the next run starts (level 0 is the seed, level `k ≥ 1`
//! probe step `k − 1`). A non-final level probes its window into the
//! level's reused scratch arena (one **expansion**, capped at the budget's
//! tuple cap, `ExecBudget::max_tuples`; the seed's is exempt) and drives
//! the expansion through the next level in `EXPAND_CHUNK`-tuple windows
//! before its next window runs. The final level delivers straight into the
//! drive's `JoinOutput`: the projection sink when the query's projection
//! closes the pipeline — each joined tuple is evaluated as it is found and
//! never written anywhere; what is kept is what `return` needs (see
//! `op/project.rs`) — or an output arena when nothing projects
//! (`match_tuples`, an anomaly query's fetch). A single-pattern query has
//! no join: its seed *is* the final level, delivered in candidate order.
//!
//! ## The memo is a property of a level
//!
//! A level's downstream contribution depends only on its tuple's
//! *interface*: what the remaining levels can observe of it — the ids of
//! the variables their index keys read and the events their time relations
//! read, both bound above the level (`Interface`). `plan_levels` gives every
//! level a plan: its interface, what it delivers per tuple (tuples, a count
//! or ids) and whether it stores a per-run memo from interface to entry.
//! Only outputs that see the last levels in aggregate take counts or ids:
//!
//! * **Counted suffix.** The longest suffix of levels whose events and
//!   first-bound variables the projection does not read — the last may
//!   still be read as `count(<its event>.<column>)` — delivers counts. An
//!   entry is the tuple's subtree count plus the tuples it materialises at
//!   each non-final level below; a miss enumerates the tuple's matches and
//!   adds each one's entry at the next level.
//! * **Distinct final level.** For an id-keyed `distinct` (every item an
//!   entity reference, no `having`) that reads variables the final level
//!   binds first, the final level delivers ids: an entry is the match count
//!   and the distinct projected ids in first-seen order. A tuple whose other
//!   projected ids and entry were delivered earlier in the run only counts
//!   (`emit_ids` with no ids).
//!
//! A level whose interface holds the seed's event does not store (no two
//! tuples of a run share a seed event); when no level stores, the
//! evaluator runs with its memo off, which *is* the per-tuple drive — a
//! counted final level then counts each tuple's matches. With the memo on,
//! the first level that delivers counts or ids takes its window in two
//! passes: every tuple's entry, then the deliveries. The fallback rule is
//! the evaluator's `memo` parameter: a window where a cap could bind — its
//! deliveries could fill the output's room, or the tuples it materialises
//! at some non-final level reach the tuple cap — is driven again with the
//! memo off, tuple by tuple. So every cap, `TupleCap` warning, cut level
//! and emission-order prefix is the per-tuple drive's, and so is every
//! delivered count; only the emission counters fall. The memo is cleared
//! at each seed run, and under a memory budget its bytes — with a miss's
//! scratch, like a level's — are live-charged until the run ends, so a
//! fork's tally and the merge thread's charge of one run agree.
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
//! after it; the final level draws on the output budget (the cap's worth of
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
        // With the projection closing the pipeline, the final step pushes
        // into its sink; otherwise the tuples are kept.
        let (n, nvars) = (env.a.patterns.len(), env.a.vars.len());
        let (frontier, sink, cap_trip, io) = if env.project {
            let (sink, t, io) =
                drive_join(env, &candidates, &st.domains, ProjectionSink::new(env))?;
            (RefArena::new(n, nvars), Some(sink), t, io)
        } else {
            let (arena, t, io) =
                drive_join(env, &candidates, &st.domains, RefArena::new(n, nvars))?;
            (arena, None, t, io)
        };
        drop(candidates);
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
    /// when the projection closes the pipeline.
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
    /// A tracker stopping at `cap`, or — with `shared`, run `k` of a
    /// parallel drive — at what the shared budget leaves run `k`.
    fn new(cap: usize, shared: Option<(&'b JoinBudget, usize)>, gov: Option<&'b Governor>) -> Self {
        let polled = shared.is_some() || gov.is_some();
        CapTracker {
            cap: shared.map_or(cap, |(budget, k)| budget.cap(k)),
            shared,
            gov,
            gov_stop: false,
            next_refresh: if polled { BUDGET_REFRESH } else { usize::MAX },
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
    while let Some(next) = (0..n).filter(|&i| !placed[i]).min_by_key(|&i| {
        let p = &a.patterns[i];
        let class = if order.is_empty() || var_bound[p.subject] || var_bound[p.object] {
            0
        } else if !a.step_relations(i, &placed).is_empty() {
            1
        } else {
            2
        };
        (class, sizes[i], i)
    }) {
        placed[next] = true;
        var_bound[a.patterns[next].subject] = true;
        var_bound[a.patterns[next].object] = true;
        order.push(next);
    }
    order
}

/// Sideways pruning: keeps the refs whose ids, for each of `vars` (a
/// variable, and whether a ref's subject binds it), lie in every domain a
/// pattern of `partners` publishes for that variable. `None` when no
/// partner domain applies.
fn sideways_prune(
    env: &ExecEnv<'_>,
    domains: &[Option<(IdSet, IdSet)>],
    partners: impl Iterator<Item = usize>,
    vars: &[(usize, bool)],
    refs: &[EventRef],
) -> Option<Vec<EventRef>> {
    let mut checks: Vec<(bool, &IdSet)> = Vec::new();
    for q in partners {
        let (Some((subj, obj)), qp) = (&domains[q], &env.a.patterns[q]) else {
            continue;
        };
        for &(v, from_subject) in vars {
            if qp.subject == v {
                checks.push((from_subject, subj));
            }
            if qp.object == v && qp.object != qp.subject {
                checks.push((from_subject, obj));
            }
        }
    }
    if checks.is_empty() {
        return None;
    }
    let parts = &env.parts;
    let id = |r, subject| match subject {
        true => parts.subject(r),
        false => parts.object(r),
    };
    let keep = |&r: &EventRef| checks.iter().all(|&(s, set)| set.contains(id(r, s)));
    Some(refs.iter().copied().filter(keep).collect())
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
    /// What the build learned: the candidates indexed, those sideways
    /// build pruning dropped (counted once, however many runs probe the
    /// index), the index's sorted runs and its build time.
    stat: JoinStepStat,
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
    /// Hands `f` the matches in candidate order, a stretch at a time — a
    /// relation-free step's whole posting, or one sorted run's time slice
    /// with its end times while those still need [`TimeBounds::end_ok`] —
    /// until it returns `true`; returns whether it did.
    #[inline]
    fn walk(
        &self,
        ctr: &mut JoinStepStat,
        mut f: impl FnMut(&[EventRef], Option<(&[i64], &TimeBounds)>) -> bool,
    ) -> bool {
        let (p, b) = match self {
            Matches::Plain(refs) => return f(refs, None),
            Matches::Timed(p, b) => (p, b),
        };
        let Some((slices, check_end)) = p.slices(b) else {
            ctr.bucket_skipped += p.refs.len() as u64;
            return false;
        };
        let mut searched = 0;
        for slice in slices {
            searched += slice.len();
            let ends = check_end.then(|| (&p.ends[slice.clone()], b));
            if f(&p.refs[slice], ends) {
                return true;
            }
        }
        ctr.bucket_skipped += (p.refs.len() - searched) as u64;
        false
    }

    /// How many matches there are.
    #[inline]
    fn count(&self, ctr: &mut JoinStepStat) -> usize {
        let mut n = 0;
        self.walk(ctr, |refs, ends| {
            n += ends.map_or(refs.len(), |(ends, b)| {
                ends.iter().filter(|&&e| b.end_ok(e)).count()
            });
            false
        });
        n
    }

    /// Calls `f` on every match, in candidate order, until it returns
    /// `true`; returns whether it did.
    #[inline]
    fn each(&self, ctr: &mut JoinStepStat, mut f: impl FnMut(EventRef) -> bool) -> bool {
        self.walk(ctr, |refs, ends| match ends {
            None => refs.iter().any(|&r| f(r)),
            Some((ends, b)) => (refs.iter().zip(ends)).any(|(&r, &e)| b.end_ok(e) && f(r)),
        })
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
}

impl Interface {
    /// The interface of the levels from `k` on, over the join order `order`
    /// and its probe steps (`steps[k − 1]` places `order[k]`); the seed's
    /// is empty.
    fn of(a: &AnalyzedMultievent, order: &[usize], steps: &[JoinStep], k: usize) -> Self {
        let above = &order[..k];
        let bound = |v: usize| {
            (above.iter()).any(|&p| a.patterns[p].subject == v || a.patterns[p].object == v)
        };
        let (mut vars, mut events) = (Vec::new(), Vec::new());
        for s in &steps[k.saturating_sub(1)..] {
            vars.extend(s.bound_vars.iter().copied().filter(|&v| bound(v)));
            events.extend(s.rels.iter().map(|r| r.other).filter(|p| above.contains(p)));
        }
        vars.sort_unstable();
        vars.dedup();
        events.sort_unstable();
        events.dedup();
        Interface { vars, events }
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

/// What a level delivers for each tuple it takes (see the module docs).
#[derive(Debug, PartialEq)]
enum Delivers {
    /// Its extensions, one by one.
    Tuples,
    /// Its subtree's count: the level lies in a counted suffix.
    Count,
    /// Its matches' distinct projected ids (an id-keyed `distinct`'s final
    /// level): `fresh` are the projected slots the level binds first (one
    /// given twice when there is one), `pre` those bound above it.
    Ids { fresh: [usize; 2], pre: Vec<usize> },
}

/// One level's plan, decided once per drive.
#[derive(Debug)]
struct LevelPlan {
    delivers: Delivers,
    /// The level memoises its entries per run, keyed by `iface`.
    stores: bool,
    /// The interface of the levels from this one on.
    iface: Interface,
}

/// One level's memo for the current run: interface key → entry offset in
/// `vals`. A counted level's entry is its subtree's deliveries, then the
/// tuples it materialises at each non-final level from this one on; a
/// distinct final level's is its match count and the range of its
/// distinct projected ids in `ids`.
#[derive(Debug, Default)]
struct LevelMemo {
    index: HashMap<Box<[u64]>, u32, MulHash>,
    vals: Vec<u64>,
    ids: Vec<[u32; 2]>,
    /// The interface being looked up, kept through a miss's recursion for
    /// its insert.
    key: Vec<u64>,
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
    /// The (final entry, projected ids above the final level) keys an
    /// id-keyed `distinct` delivered in the current run.
    delivered: HashSet<Box<[u64]>, MulHash>,
    /// Bytes the run's memo holds, live-charged until the run ends.
    memo_bytes: u64,
    /// One distinct-final miss's ids seen so far.
    dedup: HashSet<u64, MulHash>,
    /// First level observed hitting the intermediate cap, and the tuples
    /// the run had delivered when it cut. The recursion finishes the
    /// truncated expansion's subtree before stopping, so a deeper level
    /// affected by the same stop records first.
    cut: Option<(usize, usize)>,
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
    /// Per level, its plan (the seed's delivers its tuples).
    plans: Vec<LevelPlan>,
    /// Some level stores: the evaluator starts with its memo on.
    memo: bool,
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
}

impl Drive<'_, '_> {
    /// Levels of the drive: the seed plus every probe step.
    fn levels(&self) -> usize {
        self.steps.len() + 1
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

    /// The evaluator's per-tuple inner loop: probes level `k` for tuples
    /// `[lo, hi)` of `cur` and delivers every match to `out`, or (`COUNT`)
    /// each tuple's match count. The seed probes one tuple, the proto, whose
    /// matches are seed refs `[lo, hi)`. Returns `(capped, gov_stop)`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn probe<O: JoinOutput, const COUNT: bool>(
        &self,
        k: usize,
        cur: &RefArena,
        (lo, hi): (usize, usize),
        out: &mut O,
        caps: &mut CapTracker<'_>,
        ctr: &mut JoinStepStat,
        gov: Option<&Governor>,
    ) -> (bool, bool) {
        let (parts, step) = (&self.env.parts, k.checked_sub(1).map(|j| &self.steps[j]));
        let place = step.map_or(self.seed, |s| s.place);
        let mut gate = GovGate::new(gov);
        for t in if k == 0 { 0..1 } else { lo..hi } {
            if gate.tick().is_some() {
                return (false, true);
            }
            let matches = match step {
                None => Some(Matches::Plain(&self.seed_refs[lo..hi])),
                Some(step) => self.lookup(step, cur, t, ctr),
            };
            let Some(m) = matches else {
                continue;
            };
            let full = match COUNT {
                true => place.emit_count(out, cur, t, m.count(ctr), caps),
                false => m.each(ctr, |r| place.emit(parts, out, cur, t, r, caps)),
            };
            if full {
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
    /// run ends, [`Drive::drive_run`]). `false` means stop.
    fn charge_memo(&self, st: &mut RunState, gov: Option<&Governor>, bytes: u64) -> bool {
        let go = self.charge_live(st, gov, bytes) == Flow::Continue;
        st.memo_bytes += if go { bytes } else { 0 };
        go
    }

    /// The evaluator (see the module docs): drives tuples `[lo, hi)` of
    /// `cur` through levels `k..` depth-first into `out`. A non-final level
    /// that delivers tuples probes the window into its scratch (one
    /// expansion, capped at the tuple cap; the seed's is exempt) and drives
    /// the expansion's windows through the next level; the final level
    /// delivers each match, or each tuple's match count. With `memo`, a
    /// level delivering counts or ids takes every tuple's [`Drive::entry`]
    /// first and delivers from them — unless a cap could bind in the window
    /// (its deliveries reach the output's room, or its tuples at some
    /// non-final level the tuple cap): then the window is driven again with
    /// `memo` off, tuple by tuple.
    #[allow(clippy::too_many_arguments)]
    fn level<O: JoinOutput>(
        &self,
        k: usize,
        cur: &RefArena,
        (lo, hi): (usize, usize),
        st: &mut RunState,
        out: &mut O,
        caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
        memo: bool,
    ) -> Flow {
        let last = self.levels() - 1;
        let delivers = &self.plans[k].delivers;
        let memoised = memo && *delivers != Delivers::Tuples;
        if k < last && !memoised {
            let mut scratch = std::mem::take(&mut st.levels[k]);
            scratch.truncate(0);
            let t = Instant::now();
            let mut lcaps = CapTracker::new(if k == 0 { usize::MAX } else { self.icap }, None, gov);
            let ctr = &mut st.steps[k];
            let (capped, gov_stop) =
                self.probe::<_, false>(k, cur, (lo, hi), &mut scratch, &mut lcaps, ctr, gov);
            ctr.probe_nanos += t.elapsed().as_nanos() as u64;
            ctr.rows_out += scratch.len();
            let bytes = scratch.retained_bytes();
            let flow = if gov_stop {
                st.gov_stop = true;
                Flow::Stop
            } else if self.charge_live(st, gov, bytes) == Flow::Stop {
                Flow::Stop
            } else {
                // The next level takes the expansion in windows, but for a
                // final level that delivers tuple by tuple: it takes it
                // whole.
                let len = scratch.len();
                let whole =
                    k + 1 == last && !(memo && self.plans[last].delivers != Delivers::Tuples);
                let width = if whole { len.max(1) } else { EXPAND_CHUNK };
                let mut sub = Flow::Continue;
                for lo in (0..len.max(usize::from(whole))).step_by(width) {
                    let hi = (lo + width).min(len);
                    sub = self.level(k + 1, &scratch, (lo, hi), st, out, caps, gov, memo);
                    if sub == Flow::Stop {
                        break;
                    }
                }
                self.uncharge(st, gov, bytes);
                if sub == Flow::Continue && capped {
                    // The expansion hit the intermediate cap and its
                    // prefix's subtree just finished: the run cuts here and
                    // the drive stops after it.
                    st.cut.get_or_insert((k, out.delivered()));
                    Flow::Stop
                } else {
                    sub
                }
            };
            st.levels[k] = scratch;
            return flow;
        }
        // The level delivers into `out`: from its entries, or tuple by tuple.
        let t0 = Instant::now();
        // Per tuple of a window delivered from its entries: its count, or
        // its entry and whether it delivers its ids.
        let mut window: Vec<u64> = Vec::new();
        let (mut capped, mut gov_stop) = (false, false);
        if memoised {
            let mut gate = GovGate::new(gov);
            // The window's deliveries, then its tuples at each non-final
            // level below (an ids level is final: deliveries only).
            let mut totals = vec![0u64; 1 + last - k];
            let mut key: Vec<u64> = Vec::new();
            let mut stopped = false;
            for t in lo..hi {
                let Some(e) = self.entry(k, cur, t, st, gov, &mut gate) else {
                    stopped = true;
                    break;
                };
                let vals = &mut st.memo[k].vals;
                let n = vals[e];
                (totals.iter_mut().zip(&vals[e..])).for_each(|(s, v)| *s = s.saturating_add(*v));
                let Delivers::Ids { pre, .. } = delivers else {
                    window.push(n);
                    if !self.plans[k].stores {
                        vals.truncate(e);
                    }
                    continue;
                };
                // The tuple delivers its ids when its projected ids above
                // the final level and its entry are new to the run.
                let mut fresh = false;
                if n > 0 {
                    key.clear();
                    key.push(e as u64);
                    key.extend(id_words(pre, cur.vars_of(t)));
                    if !st.delivered.contains(key.as_slice()) {
                        st.delivered.insert(key.as_slice().into());
                        fresh = true;
                        let bytes = MEMO_ENTRY_BYTES + 8 * key.len() as u64;
                        if !self.charge_memo(st, gov, bytes) {
                            stopped = true;
                            break;
                        }
                    }
                }
                window.push(((e as u64) << 1) | u64::from(fresh));
            }
            st.steps[k].probe_nanos += t0.elapsed().as_nanos() as u64;
            let room = caps.cap.saturating_sub(out.delivered()) as u64;
            let could_bind =
                totals[0] >= room || totals[1..].iter().any(|&n| n >= self.icap as u64);
            if stopped || could_bind {
                return match stopped {
                    true => Flow::Stop,
                    false => self.level(k, cur, (lo, hi), st, out, caps, gov, false),
                };
            }
        }
        let (before, held, t) = (out.delivered(), out.retained_bytes(), Instant::now());
        if !memoised {
            let ctr = &mut st.steps[k];
            (capped, gov_stop) = match delivers {
                Delivers::Count => self.probe::<O, true>(k, cur, (lo, hi), out, caps, ctr, gov),
                _ => self.probe::<O, false>(k, cur, (lo, hi), out, caps, ctr, gov),
            };
        } else {
            let (pattern, memo) = (self.steps[last - 1].place.pattern, &st.memo[k]);
            for (t, &w) in (lo..hi).zip(&window) {
                let full = match delivers {
                    Delivers::Ids { fresh, .. } => {
                        let e = (w >> 1) as usize;
                        let [n, a, z] = [0, 1, 2].map(|i| memo.vals[e + i] as usize);
                        if n == 0 {
                            continue;
                        }
                        let ids = if w & 1 == 1 { &memo.ids[a..z] } else { &[] };
                        out.emit_ids(cur, t, pattern, *fresh, ids, n);
                        caps.exhausted(out.delivered())
                    }
                    _ => (self.steps[last - 1].place).emit_count(out, cur, t, w as usize, caps),
                };
                if full {
                    (capped, gov_stop) = (!caps.gov_stop, caps.gov_stop);
                    break;
                }
            }
        }
        // What the output keeps of the delivered tuples stays live and is
        // charged permanently (every tuple for an arena; rows, group states
        // or distinct keys for a projection sink).
        st.steps[last].probe_nanos += t.elapsed().as_nanos() as u64;
        st.steps[last].rows_out += out.delivered() - before;
        let charged = self.charge_live(st, gov, out.retained_bytes() - held);
        if gov_stop {
            st.gov_stop = true;
            return Flow::Stop;
        }
        match charged == Flow::Stop || capped {
            true => Flow::Stop,
            false => Flow::Continue,
        }
    }

    /// Level `k`'s entry for tuple `t` of `src` (see [`LevelMemo`]): the
    /// memoised one when the level stores and holds `t`'s interface; else
    /// computed — at the final level its match count, or its matches'
    /// distinct projected ids; above it by enumerating `t`'s matches into
    /// the level's scratch (capped at the tuple cap, which makes any window
    /// holding the entry fall back) and adding each one's entry at `k + 1`.
    /// Returns the entry's offset in `st.memo[k].vals`, which the caller
    /// drops when the level does not store, or `None` when the drive must
    /// stop.
    fn entry(
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
        let (last, parts) = (self.levels() - 1, &self.env.parts);
        let (plan, step) = (&self.plans[k], &self.steps[k - 1]);
        let (memo, ctr) = (&mut st.memo[k], &mut st.steps[k]);
        if plan.stores {
            plan.iface.key(src, t, &mut memo.key);
            if let Some(&e) = memo.index.get(memo.key.as_slice()) {
                ctr.memo_hits += 1;
                return Some(e as usize);
            }
            ctr.memo_misses += 1;
        }
        let (base, first) = (memo.vals.len(), memo.ids.len());
        match &plan.delivers {
            Delivers::Ids { fresh, .. } => {
                let from_subject = fresh.map(|v| v == step.place.subject);
                let (ids, dedup) = (&mut memo.ids, &mut st.dedup);
                dedup.clear();
                let mut n = 0u64;
                if let Some(m) = self.lookup(step, src, t, ctr) {
                    m.each(ctr, |r| {
                        n += 1;
                        let (s, o) = parts.subject_object(r);
                        let pair = from_subject.map(|subj| if subj { s.raw() } else { o.raw() });
                        if dedup.insert((u64::from(pair[0]) << 32) | u64::from(pair[1])) {
                            ids.push(pair);
                        }
                        false
                    });
                }
                memo.vals.extend([n, first as u64, memo.ids.len() as u64]);
            }
            _ if k == last => {
                let n = self.lookup(step, src, t, ctr).map_or(0, |m| m.count(ctr));
                memo.vals.push(n as u64);
            }
            _ => {
                memo.vals.resize(base + 1 + last - k, 0);
                let mut scratch = std::mem::take(&mut st.levels[k]);
                scratch.truncate(0);
                let mut caps = CapTracker::new(self.icap, None, None);
                self.probe::<_, false>(k, src, (t, t + 1), &mut scratch, &mut caps, ctr, None);
                ctr.rows_out += scratch.len();
                memo.vals[base + 1] = scratch.len() as u64;
                let bytes = scratch.retained_bytes();
                let mut go = self.charge_live(st, gov, bytes) == Flow::Continue;
                if go {
                    for m in 0..scratch.len() {
                        let Some(sub) = self.entry(k + 1, &scratch, m, st, gov, gate) else {
                            go = false;
                            break;
                        };
                        let (upper, lower) = st.memo.split_at_mut(k + 1);
                        let (entry, below) = (&mut upper[k].vals, &mut lower[0].vals);
                        let add = |e: &mut u64, s: &u64| *e = e.saturating_add(*s);
                        add(&mut entry[base], &below[sub]);
                        (entry[base + 2..].iter_mut())
                            .zip(&below[sub + 1..])
                            .for_each(|(e, s)| add(e, s));
                        if !self.plans[k + 1].stores {
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
        }
        if plan.stores {
            let memo = &mut st.memo[k];
            memo.index.insert(memo.key.as_slice().into(), base as u32);
            let words = memo.key.len() + (memo.vals.len() - base) + (memo.ids.len() - first);
            if !self.charge_memo(st, gov, MEMO_ENTRY_BYTES + 8 * words as u64) {
                return None;
            }
        }
        Some(base)
    }

    /// Drives seed slice `[lo, hi)` through every level: the evaluator at
    /// the seed, with the memo on when some level stores. The run's memo
    /// ends with it, and its bytes are released.
    ///
    /// `EngineConfig::inject_drive_panic` panics here, on whichever thread
    /// drives the run: in the parallel drive the panic is caught and the
    /// query gets `WorkerPanic`; in the serial drive it unwinds the query
    /// thread.
    fn drive_run<O: JoinOutput>(
        &self,
        (lo, hi): (usize, usize),
        st: &mut RunState,
        out: &mut O,
        out_caps: &mut CapTracker<'_>,
        gov: Option<&Governor>,
    ) -> Flow {
        if self.env.config.inject_drive_panic {
            panic!("injected drive panic (EngineConfig::inject_drive_panic)");
        }
        let flow = self.level(0, &self.proto, (lo, hi), st, out, out_caps, gov, self.memo);
        if self.memo {
            for m in &mut st.memo {
                m.index.clear();
                m.vals.clear();
                m.ids.clear();
            }
            st.delivered.clear();
            let bytes = std::mem::take(&mut st.memo_bytes);
            self.uncharge(st, gov, bytes);
        }
        flow
    }
}

/// Every level's plan over the join order `order` and its probe
/// steps (see the module docs): a counted suffix when the output leaves the
/// last levels unread, else a distinct final level when an id-keyed
/// `distinct` reads it. A level stores unless its interface holds the
/// seed's event, which no two tuples of a run share.
fn plan_levels<O: JoinOutput>(
    a: &AnalyzedMultievent,
    order: &[usize],
    steps: &[JoinStep],
    out: &O,
) -> Vec<LevelPlan> {
    let last = steps.len();
    let plan = |k| LevelPlan {
        delivers: Delivers::Tuples,
        stores: false,
        iface: Interface::of(a, order, steps, k),
    };
    let mut plans: Vec<LevelPlan> = (0..=last).map(plan).collect();
    let storable = |p: &LevelPlan| !p.iface.events.contains(&order[0]);
    // The longest unread suffix: level `k` is step `k − 1`.
    let unread = |k: &usize| {
        let s = &steps[k - 1];
        out.unread(s.place.pattern, &s.fresh(), *k == last)
    };
    if let Some(from) = (1..=last).rev().take_while(unread).last() {
        for p in &mut plans[from..] {
            (p.delivers, p.stores) = (Delivers::Count, storable(p));
        }
        return plans;
    }
    let (Some(slots), Some(step), Some(p)) = (out.id_keys(), steps.last(), plans.last_mut()) else {
        return plans;
    };
    let fresh: Vec<usize> = (step.fresh().into_iter())
        .filter(|v| slots.contains(v))
        .collect();
    let fresh = match fresh[..] {
        [] => return plans,
        [v] => [v, v],
        [v, .., w] => [v, w],
    };
    if storable(p) {
        let pre = (slots.iter().copied())
            .filter(|v| !fresh.contains(v))
            .collect();
        (p.delivers, p.stores) = (Delivers::Ids { fresh, pre }, true);
    }
    plans
}

/// The probe step that places `order[j]` after the patterns `order[..j]`,
/// its index built over its candidates. Sideways build pruning drops the
/// candidates whose bound-variable ids are absent from some placed
/// partner's candidate domain — the frontier only ever carries ids drawn
/// from every placed binder's domain, so a dropped candidate could never
/// have been probed, and the index (and the frontier) is unchanged.
fn build_step(
    env: &ExecEnv<'_>,
    candidates: &[Vec<EventRef>],
    domains: &[Option<(IdSet, IdSet)>],
    order: &[usize],
    j: usize,
) -> JoinStep {
    let (a, parts) = (env.a, &env.parts);
    let (place, cands) = (Place::of(a, order[j]), &candidates[order[j]]);
    let above = &order[..j];
    let placed: Vec<bool> = (0..order.len()).map(|q| above.contains(&q)).collect();
    let same_var = place.subject == place.object;
    // A pattern binds at most two variables, so the bound-var key packs
    // into one u64.
    let bound_vars: Vec<usize> = [place.subject, place.object][..2 - usize::from(same_var)]
        .iter()
        .copied()
        .filter(|&v| {
            (above.iter()).any(|&q| [a.patterns[q].subject, a.patterns[q].object].contains(&v))
        })
        .collect();
    let vars: Vec<(usize, bool)> = (bound_vars.iter())
        .map(|&v| (v, v == place.subject))
        .collect();
    let pruned = sideways_prune(env, domains, above.iter().copied(), &vars, cands);
    let refs: &[EventRef] = pruned.as_deref().unwrap_or(cands);
    let key_of_ref = |r: EventRef| {
        let mut ids = [NO_VAR; 2];
        for (slot, &(_, subject)) in ids.iter_mut().zip(&vars) {
            *slot = match subject {
                true => parts.subject(r).raw(),
                false => parts.object(r).raw(),
            };
        }
        pack(ids)
    };
    // With temporal relations to verify, the index carries time columns in
    // sorted runs for the probe's time search.
    let rels = a.step_relations(place.pattern, &placed);
    let t_build = Instant::now();
    let index = match rels.is_empty() {
        true => StepIndex::Plain(build_index(parts, refs, same_var, key_of_ref)),
        false => StepIndex::Timed(build_index(parts, refs, same_var, key_of_ref)),
    };
    let stat = JoinStepStat {
        pattern: place.pattern,
        candidates: refs.len(),
        filter_pruned: (cands.len() - refs.len()) as u64,
        sorted_runs: index.sorted_runs(),
        build_nanos: t_build.elapsed().as_nanos() as u64,
        ..JoinStepStat::default()
    };
    JoinStep {
        place,
        bound_vars,
        rels,
        index,
        stat,
    }
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
    let gov = env.gov();
    let out_cap = env.max_tuples;
    let mut io = OpStat::default();

    // Sideways seed pruning: before the seed frontier exists, drop seed
    // candidates whose shared-variable ids are absent from the *second*
    // step's candidate domains — such tuples probe a missing key at step
    // two and extend nothing. Restricting the filter to the second step
    // keeps the emission identical to the unfiltered run even under a
    // truncating tuple cap: a dropped tuple emits nothing at step two, so
    // every surviving emission happens at the same position. Gated off
    // under a memory budget (the seed expansion is live-charged, so pruning
    // would move the trip point) and when the seed list itself could
    // truncate.
    let seed = Place::of(a, join_order[0]);
    let seed_all = &candidates[seed.pattern];
    let seed_pruned = (join_order.get(1))
        .filter(|_| !gov.is_some_and(|g| g.has_memory_budget()) && seed_all.len() <= out_cap)
        .and_then(|&second| {
            let vars = [(seed.subject, true), (seed.object, false)];
            sideways_prune(env, domains, std::iter::once(second), &vars, seed_all)
        });
    let seed_refs: &[EventRef] = seed_pruned.as_deref().unwrap_or(seed_all);

    // The seed places its pattern first; every later pattern gets a probe
    // step, its index built here, once.
    let steps: Vec<JoinStep> = (1..n)
        .map(|j| build_step(env, candidates, domains, &join_order, j))
        .collect();
    io.build_nanos = steps.iter().map(|s| s.stat.build_nanos).sum();

    let mut proto = RefArena::new(n, nvars);
    proto.resize_tuples(1);
    let seed_total = seed_refs.len();
    let plans = plan_levels(a, &join_order, &steps, &out);

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
            memo: plans.iter().any(|p| p.stores),
            plans,
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
                    let mut st = RunState::new(n, nvars, charge);
                    let mut local = out.fork();
                    let mut caps = CapTracker::new(out_cap, Some((&budget, k)), gov);
                    let _ = drive.drive_run(run_range(k), &mut st, &mut local, &mut caps, gov);
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
        let mut caps = CapTracker::new(out_cap, None, gov);
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
                let room = out_cap - out.delivered();
                let fits = part.delivered() <= room
                    && (p.tally.as_ref())
                        .is_none_or(|t| t.peak <= gov.map_or(u64::MAX, Governor::room));
                if fits && out.merge(part) {
                    merged = true;
                    // The run's accounting joins that of the runs driven
                    // here. Its cut stands only where the serial drive
                    // reaches it, before the delivery that fills the output:
                    // a fork on a stale budget share can fill it and cut after.
                    (st.steps.iter_mut().zip(&p.steps)).for_each(|(s, o)| s.add(o));
                    st.cut = st.cut.or(p.cut.filter(|&(_, at)| at < room));
                }
            }
            let flow = if merged {
                // What the run added to the output stays live, charged as
                // when the run is driven here (it fits: the tally's peak
                // bounds it).
                drive.charge_live(&mut st, gov, out.retained_bytes() - held)
            } else {
                drive.drive_run(run_range(k), &mut st, &mut out, &mut caps, gov)
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
        early_exit = (st.cut.map(|(k, _)| k)).or((out.delivered() >= out_cap).then_some(n - 1));
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
        filter_pruned: (seed_all.len() - seed_total) as u64,
        ..JoinStepStat::default()
    };
    io.join_steps = (std::iter::once(seed_stat))
        .chain(steps.iter().map(|s| s.stat.clone()))
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

    /// An arena output whose forks share one gate: the fork that delivers
    /// a tuple binding `held` waits until some fork has delivered one
    /// binding `release`. It forces an order between two runs of the
    /// parallel drive that thread scheduling only sometimes produces.
    struct Gated {
        inner: RefArena,
        gate: std::sync::Arc<(EntityId, EntityId, Mutex<bool>, std::sync::Condvar)>,
    }

    impl JoinOutput for Gated {
        fn emit(
            &mut self,
            src: &RefArena,
            i: usize,
            pattern: usize,
            r: EventRef,
            subject: (usize, EntityId),
            object: (usize, EntityId),
        ) {
            let (held, release, released, cv) = &*self.gate;
            if subject.1 == *held {
                let open = cv.wait_timeout_while(
                    released.lock().unwrap(),
                    std::time::Duration::from_secs(10),
                    |open| !*open,
                );
                assert!(*open.unwrap().0, "the releasing run never delivered");
            }
            self.inner.emit(src, i, pattern, r, subject, object);
            if subject.1 == *release {
                *released.lock().unwrap() = true;
                cv.notify_all();
            }
        }

        fn delivered(&self) -> usize {
            self.inner.delivered()
        }

        fn retained_bytes(&self) -> u64 {
            self.inner.retained_bytes()
        }

        fn fork(&self) -> Self {
            Gated {
                inner: self.inner.fork(),
                gate: std::sync::Arc::clone(&self.gate),
            }
        }

        fn merge(&mut self, part: Self) -> bool {
            self.inner.merge(part.inner)
        }
    }

    /// Run 0 delivers one tuple; run 1's fork starts while run 0 has not yet
    /// published it, so its share of the budget is the whole cap (5), one
    /// more than the output's real room. The run delivers exactly that room
    /// (4) without stopping and then cuts at level 1, where its expansion
    /// hit the tuple cap. The serial drive stops on the delivery that fills
    /// the output and names the final level; the parallel drive must too.
    #[test]
    fn a_fork_that_fills_the_output_on_a_stale_share_cuts_where_the_serial_drive_does() {
        use aiql_model::{AgentId, Operation, Timestamp};
        use aiql_storage::{EntitySpec, EventStore, RawEvent};
        let mut raws = Vec::new();
        let mut t = 0;
        let mut event = |subject: EntitySpec, op, object: EntitySpec| {
            // Ten seconds apart: dedup merges no repeat.
            t += 10;
            let at = Timestamp::from_secs(t);
            raws.push(RawEvent::instant(AgentId(1), op, subject, object, at, 1));
        };
        let proc_ = |name: &str| EntitySpec::process(0, name, "u");
        let input = |i: usize| EntitySpec::file(&format!("/in/{i}"), "u");
        // Seeds (level 0): 14 writes, 7 per run.
        for i in 0..14 {
            event(proc_("seed.exe"), Operation::Write, input(i));
        }
        // Level 1: run 0 reaches one reader (m0); run 1's first seed six
        // (m1..m6), of which the capped expansion keeps five; eight more
        // reads behind them only make the pattern no smaller than the seed.
        event(proc_("m0"), Operation::Read, input(0));
        for m in 1..=6 {
            event(proc_(&format!("m{m}")), Operation::Read, input(7));
        }
        for i in [8, 8, 9, 10, 11, 12, 13, 13] {
            event(proc_("m7"), Operation::Read, input(i));
        }
        // Level 2: one write each by m0..m4 (m5 writes nothing), and m6's
        // writes, which no kept level-1 tuple reaches.
        for m in 0..=4 {
            let out = EntitySpec::file(&format!("/out/{m}"), "u");
            event(proc_(&format!("m{m}")), Operation::Write, out);
        }
        for j in 0..12 {
            let out = EntitySpec::file(&format!("/out/x{j}"), "u");
            event(proc_("m6"), Operation::Write, out);
        }
        let mut store = EventStore::default();
        store.ingest_all(&raws);
        let src = r#"proc s["seed.exe"] write file f["/in/%"] as e1
            proc m read file f as e2
            proc m write file g["/out/%"] as e3
            return s, m, g"#;
        let aiql_lang::Query::Multievent(m) = aiql_lang::parse_query(src).unwrap() else {
            panic!("multievent");
        };
        let a = crate::analyze_multievent(&m, &store).unwrap();
        let proc_id = |name: &str| {
            let sym = store.interner().get(name).unwrap();
            let ids = store.entities().find(
                aiql_model::EntityKind::Process,
                None,
                &[aiql_storage::EntityConstraint::on_default(
                    aiql_storage::AttrCmp::Eq(aiql_model::Value::Str(sym)),
                )],
            );
            ids[0]
        };
        let budget = crate::ExecBudget::unlimited().with_max_tuples(5);
        let cut = |parallelism: usize| {
            // Source-order scans: the seed pattern scans first, so no
            // binding narrows it below its 14 writes.
            let config = crate::EngineConfig {
                parallelism,
                join_block_tuples: 7,
                ablation: crate::Ablation {
                    prioritize_pruning: false,
                    ..crate::Ablation::default()
                },
                ..crate::EngineConfig::default()
            };
            let exec = crate::exec::MultieventExec::new(&store, &a, &config).with_budget(&budget);
            let (env, tree) = exec.build(false);
            let mut st = crate::op::PipelineState::new(&a, &env.ctx.plan.order);
            for scan in &tree.children {
                scan.execute(&env, &mut st).unwrap();
            }
            let candidates: Vec<Vec<EventRef>> = st
                .candidates
                .iter_mut()
                .map(|c| c.take().unwrap())
                .collect();
            let gate = (
                proc_id("m0"),
                proc_id("m1"),
                Mutex::new(parallelism == 1),
                Default::default(),
            );
            let out = Gated {
                inner: RefArena::new(3, a.vars.len()),
                gate: std::sync::Arc::new(gate),
            };
            let (out, warning, io) = drive_join(&env, &candidates, &st.domains, out).unwrap();
            assert_eq!(out.delivered(), 5, "parallelism {parallelism}");
            assert_eq!(io.runs_driven, 2, "parallelism {parallelism}");
            match warning {
                Some(Warning::TupleCap { cut_level, .. }) => cut_level,
                other => panic!("parallelism {parallelism}: {other:?}"),
            }
        };
        assert_eq!(cut(1), 2, "the serial drive stops on the filling delivery");
        assert_eq!(cut(8), cut(1));
    }
}
