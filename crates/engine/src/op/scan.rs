//! `PatternScan`: one pattern's data query against the partitioned store.
//!
//! Consumes the narrowed filter staged by
//! [`SemiJoinNarrow`](crate::op::SemiJoinNarrow), scans the matching
//! hypertable partitions (in parallel on the shared scan executor when the
//! scan is big enough), verifies entity kinds / residual predicates, and
//! publishes the candidates — selection vectors turned into [`EventRef`]s —
//! plus the binding sets, join-key domains and time statistics later
//! operators narrow with.

use aiql_lang::CmpOp;
use aiql_model::{Event, Value};
use aiql_storage::{EventFilter, IdSet, PartitionKey};

use crate::error::EngineError;
use crate::eval;
use crate::op::{EventRef, ExecEnv, OpIo, Operator, PipelineState};
use crate::pool::ScanPool;

/// The scan operator of one pattern.
#[derive(Debug, Clone, Copy)]
pub struct PatternScan {
    pattern: usize,
}

impl PatternScan {
    pub(crate) fn new(pattern: usize) -> Self {
        PatternScan { pattern }
    }
}

impl Operator for PatternScan {
    fn kind(&self) -> &'static str {
        "PatternScan"
    }

    fn pattern(&self) -> Option<usize> {
        Some(self.pattern)
    }

    fn run(&self, env: &ExecEnv<'_>, st: &mut PipelineState) -> Result<OpIo, EngineError> {
        if st.done {
            return Ok(OpIo::default());
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
        let fanout = if parallel_scan(env, &filter, parts.len(), estimate) {
            env.config.parallelism.max(1)
        } else {
            1
        };

        let (sub_kind, obj_kind) = (a.vars[p.subject].kind, a.vars[p.object].kind);
        let same_var = p.subject == p.object;
        let entities = env.store.entities();
        // Enforce the declared entity kinds and (without entity pushdown)
        // the per-variable attribute constraints.
        let keep = |subj: aiql_model::EntityId, obj: aiql_model::EntityId| -> bool {
            if entities.get(subj).kind() != sub_kind
                || entities.get(obj).kind() != obj_kind
                || (same_var && subj != obj)
            {
                return false;
            }
            if !env.config.entity_pushdown {
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

        let mut refs = scan_refs(env, &parts, &filter, fanout > 1)?;
        refs.retain(|&r| keep(env.parts.subject(r), env.parts.object(r)));
        let fetched = refs.len();
        let batch_bytes = (fetched * std::mem::size_of::<EventRef>()) as u64;
        if let Some(io) = governed_scan_stop(env, st, batch_bytes, estimate, fanout)? {
            st.stats.fetched[i] = fetched;
            return Ok(io);
        }
        if refs.is_empty() {
            st.stats.fetched[i] = 0;
            st.done = true;
            return Ok(OpIo {
                rows_in: estimate,
                rows_out: 0,
                fanout,
                ..OpIo::default()
            });
        }
        let subj = IdSet::from_iter(refs.iter().map(|&r| env.parts.subject(r)));
        let obj = IdSet::from_iter(refs.iter().map(|&r| env.parts.object(r)));
        if env.config.semi_join_pushdown {
            st.bound.insert(p.subject, subj.clone());
            st.bound.insert(p.object, obj.clone());
        }
        // Published sideways into the join: the candidates' id domains
        // prune later steps' builds and probes.
        st.domains[i] = Some((subj, obj));
        let mut ts = (i64::MAX, i64::MIN, i64::MAX, i64::MIN);
        for &r in &refs {
            let (start, end) = (env.parts.start(r).micros(), env.parts.end(r).micros());
            ts.0 = ts.0.min(start);
            ts.1 = ts.1.max(start);
            ts.2 = ts.2.min(end);
            ts.3 = ts.3.max(end);
        }
        st.time_stats[i] = Some(ts);
        st.candidates[i] = Some(refs);
        st.stats.fetched[i] = fetched;
        Ok(OpIo {
            rows_in: estimate,
            rows_out: fetched,
            fanout,
            ..OpIo::default()
        })
    }
}

/// Post-scan governor step: charges the candidate batch against the memory
/// budget and resolves any sticky trip (a limit that fired before or during
/// the scan leaves the candidate list incomplete, so the operator must not
/// publish it). In error mode the trip unwinds as its `EngineError`; in
/// partial mode the pipeline short-circuits (`st.done`) — the empty table
/// is a valid prefix of the full result. `Ok(Some(io))` means stop here.
fn governed_scan_stop(
    env: &ExecEnv<'_>,
    st: &mut PipelineState,
    batch_bytes: u64,
    estimate: usize,
    fanout: usize,
) -> Result<Option<OpIo>, EngineError> {
    let Some(g) = env.gov() else {
        return Ok(None);
    };
    // Charging records a Memory trip when the budget is exceeded; the
    // single trip() read below then resolves whichever limit fired first.
    let _ = g.charge(batch_bytes);
    let Some(t) = g.trip() else {
        return Ok(None);
    };
    if !g.partial() {
        return Err(g.error(t));
    }
    st.done = true;
    Ok(Some(OpIo {
        rows_in: estimate,
        rows_out: 0,
        fanout,
        ..OpIo::default()
    }))
}

/// Whether a scan over `parts` partitions should fan out (on the attached
/// executor — without one every scan is serial).
/// `base_estimate` is the pattern's planned match estimate — an upper
/// bound for the (possibly narrowed) `filter` actually scanned — so the
/// common small-scan case skips the per-scan partition-statistics walk
/// entirely. Only when the base estimate clears the threshold is the
/// narrowed filter re-estimated, preventing fan-out for a scan that
/// binding propagation has already shrunk to near-nothing.
fn parallel_scan(
    env: &ExecEnv<'_>,
    filter: &EventFilter,
    parts: usize,
    base_estimate: usize,
) -> bool {
    let threads = env.config.parallelism.max(1);
    if !(env.pool.is_some() && env.config.partition_parallel && threads > 1 && parts > 1) {
        return false;
    }
    if env.config.parallel_threshold == 0 {
        return true;
    }
    base_estimate >= env.config.parallel_threshold
        && env.store.estimate(filter) >= env.config.parallel_threshold
}

/// Runs `work(chunk, output_slot)` for every chunk of `keys` on `pool`.
/// Outputs land in chunk order, so parallel scans stay deterministic.
fn scan_chunked(
    env: &ExecEnv<'_>,
    pool: &ScanPool,
    keys: &[PartitionKey],
    work: impl Fn(&[PartitionKey], &mut Vec<EventRef>) + Sync + Send,
) -> Result<Vec<EventRef>, EngineError> {
    let threads = env.config.parallelism.max(1);
    // Chunks finer than the thread count let the pool's self-scheduling
    // balance skewed partitions.
    let chunk = keys.len().div_ceil(threads * 4).max(1);
    let groups: Vec<&[PartitionKey]> = keys.chunks(chunk).collect();
    let slots: Vec<std::sync::Mutex<Vec<EventRef>>> = groups
        .iter()
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    let inject = env.config.inject_scan_panic;
    // Fan-out stays capped at the engine's parallelism even when the
    // process-wide pool has more workers. A panicking task (including the
    // injected chaos panic) is caught on its worker and surfaces as
    // `WorkerPanic` for this query only.
    pool.run_chunks_capped(groups.len(), threads, &|i| {
        if inject {
            panic!("injected scan panic (EngineConfig::inject_scan_panic)");
        }
        let mut out = Vec::new();
        work(groups[i], &mut out);
        *crate::op::lock_clean(&slots[i]) = out;
    })
    .map_err(crate::op::worker_panic)?;
    let mut out = Vec::new();
    for slot in slots {
        out.append(&mut crate::op::unwrap_clean(slot));
    }
    Ok(out)
}

/// Selection vectors per partition become [`EventRef`]s; residual global
/// predicates are verified per surviving row.
fn scan_refs(
    env: &ExecEnv<'_>,
    parts: &[PartitionKey],
    filter: &EventFilter,
    parallel: bool,
) -> Result<Vec<EventRef>, EngineError> {
    let residual = &env.a.globals.residual;
    let table = &env.parts;
    let gov = env.gov();
    // Governor granularity here is one partition: a tripped query skips
    // the partitions it has not started (PatternScan::run observes the
    // sticky trip right after the scan and unwinds or truncates).
    let collect_part = |key: PartitionKey, out: &mut Vec<EventRef>| {
        if gov.is_some_and(|g| g.check().is_err()) {
            return;
        }
        let part = table.index_of(key);
        let partition = table.parts[part as usize];
        for row in env.store.select_partition(key, filter) {
            let r = EventRef { part, row };
            if residual.is_empty()
                || residual_ok(&partition.event_at(key.agent, row as usize), residual)
            {
                out.push(r);
            }
        }
    };
    let Some(pool) = env.pool.as_deref().filter(|_| parallel) else {
        let mut out = Vec::new();
        for &key in parts {
            collect_part(key, &mut out);
        }
        return Ok(out);
    };
    scan_chunked(env, pool, parts, |group, out| {
        for &key in group {
            collect_part(key, out);
        }
    })
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
