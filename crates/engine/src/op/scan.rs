//! `PatternScan`: one pattern's data query against the partitioned store.
//!
//! Consumes the narrowed filter staged by
//! [`SemiJoinNarrow`], scans the matching
//! hypertable partitions on the query thread, and publishes the candidates
//! — selection vectors turned into [`EventRef`]s — plus the binding sets,
//! join-key domains and time statistics later operators narrow with. One
//! pass over each segment's selection vector produces all of them straight
//! from the columns, verifying entity kinds (from the dictionary's dense
//! kind column, never an entity fetch) and residual predicates on the way.

use aiql_lang::CmpOp;
use aiql_model::{EntityId, Event, Value};
use aiql_storage::{EventFilter, IdSet, PartitionKey};

use crate::error::EngineError;
use crate::eval;
use crate::op::{EventRef, ExecEnv, OpStat, Operator, PipelineState, SemiJoinNarrow};

/// The scan operator of one pattern.
#[derive(Debug, Clone, Copy)]
pub struct PatternScan {
    pattern: usize,
}

impl PatternScan {
    pub(crate) fn new(pattern: usize) -> Self {
        PatternScan { pattern }
    }

    /// The partitions a scan of `filter` reads, and their columnar segments
    /// (as many as partitions on a fully compacted store; more on a
    /// fragmented one).
    pub(crate) fn layout(env: &ExecEnv<'_>, filter: &EventFilter) -> (usize, usize) {
        let keys = env.store.partitions_for(filter);
        let segments = (keys.iter())
            .map(|&k| env.store.partition(k).map_or(0, |p| p.segment_count()))
            .sum();
        (keys.len(), segments)
    }
}

impl Operator for PatternScan {
    fn kind(&self) -> &'static str {
        "PatternScan"
    }

    fn pattern(&self) -> Option<usize> {
        Some(self.pattern)
    }

    fn run(&self, env: &ExecEnv<'_>, st: &mut PipelineState) -> Result<OpStat, EngineError> {
        if st.done {
            return Ok(OpStat::default());
        }
        let a = env.a;
        let i = self.pattern;
        let p = &a.patterns[i];
        let filter = st
            .narrowed
            .take()
            .ok_or_else(|| crate::op::internal("pattern scan ran without a staged filter"))?;
        let estimate = env.ctx.plan.estimates[i];
        let parts = env.store.partitions_for(&filter);

        let Candidates {
            refs,
            subjects,
            objects,
            times,
        } = scan_partitions(env, p, &parts, &filter);
        let fetched = refs.len();
        let batch_bytes = (fetched * std::mem::size_of::<EventRef>()) as u64;
        if let Some(stat) = governed_scan_stop(env, st, batch_bytes, estimate)? {
            st.stats.fetched[i] = fetched;
            return Ok(stat);
        }
        if refs.is_empty() {
            st.stats.fetched[i] = 0;
            st.done = true;
            return Ok(OpStat {
                rows_in: estimate,
                rows_out: 0,
                ..OpStat::default()
            });
        }
        if env.config.ablation.semi_join_pushdown {
            st.bound.insert(p.subject, subjects.clone());
            st.bound.insert(p.object, objects.clone());
        }
        // Published sideways into the join: the candidates' id domains
        // prune later steps' builds and probes.
        st.domains[i] = Some((subjects, objects));
        st.time_stats[i] = Some(times);
        st.candidates[i] = Some(refs);
        st.stats.fetched[i] = fetched;
        Ok(OpStat {
            rows_in: estimate,
            rows_out: fetched,
            ..OpStat::default()
        })
    }

    /// The schedule's estimate, and the access path and layout of the
    /// filter the narrowing stages before any binding arrives.
    fn describe(&self, env: &ExecEnv<'_>) -> String {
        let i = self.pattern;
        let filter = SemiJoinNarrow::unbound_filter(env, i);
        let (partitions, segments) = Self::layout(env, &filter);
        format!(
            "{} est {} candidates | path {} | {partitions} partition(s) / {segments} segment(s)",
            env.a.patterns[i].name,
            env.ctx.plan.estimates[i],
            env.store.access_path(&filter),
        )
    }
}

/// Post-scan governor step: charges the candidate batch against the memory
/// budget and resolves any sticky trip (a limit that fired before or during
/// the scan leaves the candidate list incomplete, so the operator must not
/// publish it). In error mode the trip unwinds as its `EngineError`; in
/// partial mode the pipeline short-circuits (`st.done`) — the empty table
/// is a valid prefix of the full result. `Ok(Some(stat))` means stop here.
fn governed_scan_stop(
    env: &ExecEnv<'_>,
    st: &mut PipelineState,
    batch_bytes: u64,
    estimate: usize,
) -> Result<Option<OpStat>, EngineError> {
    let Some(g) = env.gov() else {
        return Ok(None);
    };
    // Charging records a Memory trip when the budget is exceeded; the
    // single trip() read below then resolves whichever limit fired first.
    let _ = g.charge(batch_bytes);
    let Some(t) = g.trip() else {
        return Ok(None);
    };
    g.on_trip(t)?;
    st.done = true;
    Ok(Some(OpStat {
        rows_in: estimate,
        rows_out: 0,
        ..OpStat::default()
    }))
}

/// What one pattern's scan publishes: its candidates in partition order
/// (ascending rows within a partition), the subject and object id domains
/// they bind, and their time extremes (min / max start, min / max end).
struct Candidates {
    refs: Vec<EventRef>,
    subjects: IdSet,
    objects: IdSet,
    times: (i64, i64, i64, i64),
}

/// One pass over each partition's selection vectors, reading every
/// selected row's columns off its segment once: the entity kinds (and,
/// without entity pushdown, the per-variable constraints) are enforced,
/// residual global predicates verified, and the survivors become
/// [`EventRef`]s while the id domains and time extremes accumulate.
fn scan_partitions(
    env: &ExecEnv<'_>,
    p: &crate::analyze::AnalyzedPattern,
    parts: &[PartitionKey],
    filter: &EventFilter,
) -> Candidates {
    let a = env.a;
    let residual = &a.globals.residual;
    let table = &env.parts;
    let gov = env.gov();
    let entities = env.store.entities();
    let (sub_kind, obj_kind) = (a.vars[p.subject].kind, a.vars[p.object].kind);
    let same_var = p.subject == p.object;
    // The declared kinds come from the dictionary's dense kind column; the
    // per-variable constraints are verified here only without entity
    // pushdown (with it, they are already in the filter's id sets).
    let keep = |subj: EntityId, obj: EntityId| -> bool {
        if entities.kind_of(subj) != sub_kind
            || entities.kind_of(obj) != obj_kind
            || (same_var && subj != obj)
        {
            return false;
        }
        if !env.config.ablation.entity_pushdown {
            for (var_idx, id) in [(p.subject, subj), (p.object, obj)] {
                let entity = entities.get(id);
                for c in &a.vars[var_idx].constraints {
                    if !entities.eval(entity, c) {
                        return false;
                    }
                }
            }
        }
        true
    };
    let mut out = Candidates {
        refs: Vec::new(),
        subjects: IdSet::new(),
        objects: IdSet::new(),
        times: (i64::MAX, i64::MIN, i64::MAX, i64::MIN),
    };
    for &key in parts {
        // Governor granularity here is one partition: a tripped query skips
        // the partitions it has not started (PatternScan::run observes the
        // sticky trip right after the scan and unwinds or truncates).
        if gov.is_some_and(|g| g.check().is_err()) {
            break;
        }
        let part = table.index_of(key);
        let partition = table.parts[part as usize];
        for (seg, base, rows) in partition.select_by_segment(key.agent, filter) {
            for local in rows {
                let (subj, obj) = (seg.subject_at(local), seg.object_at(local));
                if !keep(subj, obj)
                    || !(residual.is_empty()
                        || residual_ok(&seg.event_at(key.agent, local as usize), residual))
                {
                    continue;
                }
                out.subjects.insert(subj);
                out.objects.insert(obj);
                let (start, end) = seg.start_end_at(local);
                let (start, end) = (start.micros(), end.micros());
                let t = &mut out.times;
                t.0 = t.0.min(start);
                t.1 = t.1.max(start);
                t.2 = t.2.min(end);
                t.3 = t.3.max(end);
                out.refs.push(EventRef {
                    part,
                    row: base + local,
                });
            }
        }
    }
    out
}

/// Checks the residual global predicates against one event.
pub fn residual_ok(e: &Event, residual: &[(String, CmpOp, Value)]) -> bool {
    residual.iter().all(|(attr, op, value)| {
        let Ok(actual) = e.get(attr) else {
            return false;
        };
        let bin = match op {
            CmpOp::Eq => aiql_lang::BinOp::Eq,
            CmpOp::Ne => aiql_lang::BinOp::Ne,
            CmpOp::Lt => aiql_lang::BinOp::Lt,
            CmpOp::Le => aiql_lang::BinOp::Le,
            CmpOp::Gt => aiql_lang::BinOp::Gt,
            CmpOp::Ge => aiql_lang::BinOp::Ge,
        };
        eval::apply_binop(bin, actual, *value).truthy()
    })
}
