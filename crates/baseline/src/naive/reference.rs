//! Brute-force reference executor — the property-testing oracle.
//!
//! Matches a multievent query by exhaustive backtracking over *all* events
//! with no indexes, no scheduling, no pushdown, and no partitioning. It is
//! deliberately the dumbest correct implementation; the optimized executor
//! must produce exactly the same tuples (verified in the engine's property
//! tests and in `tests/engine_equivalence.rs`). It projects on the dynamic
//! evaluator ([`super::project`]), which shares no tuple loop with the
//! engine's compiled projection sink.

use aiql_engine::analyze::AnalyzedMultievent;
use aiql_engine::exec::Tuple;
use aiql_engine::{EngineError, ResultTable};
use aiql_lang::TemporalOp;
use aiql_model::Event;
use aiql_storage::{EventFilter, EventStore};

/// Runs a multievent query by brute force, producing the final table with
/// the shared projection code.
pub fn run_reference(
    store: &EventStore,
    a: &AnalyzedMultievent,
) -> Result<ResultTable, EngineError> {
    let tuples = match_reference(store, a);
    super::project(store, a, &tuples)
}

/// Brute-force tuple matching.
pub fn match_reference(store: &EventStore, a: &AnalyzedMultievent) -> Vec<Tuple> {
    // All events, unconditionally.
    let all = store.scan_unoptimized_collect(&EventFilter::all());
    let n = a.patterns.len();
    let mut out = Vec::new();
    let mut tuple = Tuple {
        events: vec![None; n],
        vars: vec![None; a.vars.len()],
    };
    backtrack(store, a, &all, 0, &mut tuple, &mut out);
    out
}

/// Whether an event matches pattern `idx` on its own: operation, time,
/// host, residual predicates, and both endpoints' kinds and constraints,
/// every check on the event itself (the graph baseline's per-edge test).
pub(crate) fn event_satisfies_pattern(
    store: &EventStore,
    a: &AnalyzedMultievent,
    idx: usize,
    e: &Event,
) -> bool {
    let p = &a.patterns[idx];
    if !p.ops.contains(e.op) {
        return false;
    }
    if !a.globals.window.contains(e.start_time) {
        return false;
    }
    if let Some(agents) = &a.globals.agents {
        if !agents.contains(&e.agent) {
            return false;
        }
    }
    for (attr, op, value) in &a.globals.residual {
        let Ok(actual) = e.get(attr) else {
            return false;
        };
        let bin = match op {
            aiql_lang::CmpOp::Eq => aiql_lang::BinOp::Eq,
            aiql_lang::CmpOp::Ne => aiql_lang::BinOp::Ne,
            aiql_lang::CmpOp::Lt => aiql_lang::BinOp::Lt,
            aiql_lang::CmpOp::Le => aiql_lang::BinOp::Le,
            aiql_lang::CmpOp::Gt => aiql_lang::BinOp::Gt,
            aiql_lang::CmpOp::Ge => aiql_lang::BinOp::Ge,
        };
        if !aiql_engine::eval::apply_binop(bin, actual, *value).truthy() {
            return false;
        }
    }
    // Entity constraints (and kind checks) for subject and object.
    for (var_idx, id) in [(p.subject, e.subject), (p.object, e.object)] {
        let var = &a.vars[var_idx];
        if var.unsatisfiable {
            return false;
        }
        let entity = store.entities().get(id);
        if entity.kind() != var.kind {
            return false;
        }
        for c in &var.constraints {
            if !store.entities().eval(entity, c) {
                return false;
            }
        }
    }
    if p.subject == p.object && e.subject != e.object {
        return false;
    }
    true
}

fn consistent(a: &AnalyzedMultievent, idx: usize, e: &Event, tuple: &Tuple) -> bool {
    binds_consistently(a, idx, e, tuple) && temporal_ok(a, idx, e, tuple)
}

/// Structural consistency: the variables `e` binds for pattern `idx` bind
/// the same entities in `tuple`.
pub(crate) fn binds_consistently(
    a: &AnalyzedMultievent,
    idx: usize,
    e: &Event,
    tuple: &Tuple,
) -> bool {
    let p = &a.patterns[idx];
    for (var_idx, id) in [(p.subject, e.subject), (p.object, e.object)] {
        if let Some(bound) = tuple.vars[var_idx] {
            if bound != id {
                return false;
            }
        }
    }
    true
}

/// The temporal relations between `e`, placed for pattern `idx`, and the
/// patterns `tuple` already places hold.
pub(crate) fn temporal_ok(a: &AnalyzedMultievent, idx: usize, e: &Event, tuple: &Tuple) -> bool {
    for rel in &a.temporal {
        let (l, r, bound) = match &rel.op {
            TemporalOp::Before(b) => (rel.left, rel.right, b),
            TemporalOp::After(b) => (rel.right, rel.left, b),
        };
        let (left_event, right_event) = if l == idx && tuple.events[r].is_some() {
            (*e, tuple.events[r].expect("checked"))
        } else if r == idx && tuple.events[l].is_some() {
            (tuple.events[l].expect("checked"), *e)
        } else {
            continue;
        };
        if left_event.end_time > right_event.start_time {
            return false;
        }
        if let Some(b) = bound {
            if (right_event.start_time - left_event.end_time) > *b {
                return false;
            }
        }
    }
    true
}

fn backtrack(
    store: &EventStore,
    a: &AnalyzedMultievent,
    all: &[Event],
    idx: usize,
    tuple: &mut Tuple,
    out: &mut Vec<Tuple>,
) {
    if idx == a.patterns.len() {
        out.push(tuple.clone());
        return;
    }
    let p = &a.patterns[idx];
    for e in all {
        if !event_satisfies_pattern(store, a, idx, e) || !consistent(a, idx, e, tuple) {
            continue;
        }
        let prev_s = tuple.vars[p.subject];
        let prev_o = tuple.vars[p.object];
        tuple.events[idx] = Some(*e);
        tuple.vars[p.subject] = Some(e.subject);
        tuple.vars[p.object] = Some(e.object);
        backtrack(store, a, all, idx + 1, tuple, out);
        tuple.events[idx] = None;
        tuple.vars[p.subject] = prev_s;
        tuple.vars[p.object] = prev_o;
    }
}
