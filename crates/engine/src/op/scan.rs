//! `PatternScan`: one pattern's data query against the partitioned store.
//!
//! Consumes the narrowed filter staged by
//! [`SemiJoinNarrow`](crate::op::SemiJoinNarrow), scans the matching
//! hypertable partitions on the query thread, verifies entity kinds /
//! residual predicates, and publishes the candidates — selection vectors
//! turned into [`EventRef`]s — plus the binding sets, join-key domains and
//! time statistics later operators narrow with.

use aiql_lang::CmpOp;
use aiql_model::{Event, Value};
use aiql_storage::{EventFilter, IdSet, PartitionKey};

use crate::error::EngineError;
use crate::eval;
use crate::op::{EventRef, ExecEnv, OpIo, Operator, PipelineState};

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

        let mut refs = scan_refs(env, &parts, &filter);
        refs.retain(|&r| keep(env.parts.subject(r), env.parts.object(r)));
        let fetched = refs.len();
        let batch_bytes = (fetched * std::mem::size_of::<EventRef>()) as u64;
        if let Some(io) = governed_scan_stop(env, st, batch_bytes, estimate)? {
            st.stats.fetched[i] = fetched;
            return Ok(io);
        }
        if refs.is_empty() {
            st.stats.fetched[i] = 0;
            st.done = true;
            return Ok(OpIo {
                rows_in: estimate,
                rows_out: 0,
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
    g.on_trip(t)?;
    st.done = true;
    Ok(Some(OpIo {
        rows_in: estimate,
        rows_out: 0,
        ..OpIo::default()
    }))
}

/// Selection vectors per partition become [`EventRef`]s; residual global
/// predicates are verified per surviving row.
fn scan_refs(env: &ExecEnv<'_>, parts: &[PartitionKey], filter: &EventFilter) -> Vec<EventRef> {
    let residual = &env.a.globals.residual;
    let table = &env.parts;
    let gov = env.gov();
    let mut out = Vec::new();
    for &key in parts {
        // Governor granularity here is one partition: a tripped query skips
        // the partitions it has not started (PatternScan::run observes the
        // sticky trip right after the scan and unwinds or truncates).
        if gov.is_some_and(|g| g.check().is_err()) {
            break;
        }
        let part = table.index_of(key);
        let partition = table.parts[part as usize];
        for row in env.store.select_partition(key, filter) {
            if residual.is_empty()
                || residual_ok(&partition.event_at(key.agent, row as usize), residual)
            {
                out.push(EventRef { part, row });
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
