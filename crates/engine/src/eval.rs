//! Row-level expression evaluation.
//!
//! Evaluates AIQL expressions against a *binding*: one entity per entity
//! variable, one event per event variable, plus (for aggregated contexts)
//! alias values and per-window aggregate history. The context-aware syntax
//! shortcuts live here: a bare `p1` in a return clause evaluates to the
//! default attribute of its entity kind (`p1.exe_name` for processes).

use std::collections::HashMap;

use aiql_lang::{BinOp, Expr, Literal};
use aiql_model::{EntityId, Event, ModelError, Value};
use aiql_storage::EventStore;

use crate::error::EngineError;
use crate::op::{EventRef, PartTable, Tuple, NO_REF, NO_VAR};

/// The evaluation context of one result row.
#[derive(Default)]
pub struct RowCtx<'a> {
    /// Entity variable bindings.
    pub var_entity: HashMap<&'a str, EntityId>,
    /// Event variable bindings.
    pub events: HashMap<&'a str, Event>,
    /// Aggregate alias values (current window / current group).
    pub aliases: HashMap<String, Value>,
    /// Precomputed aggregate values keyed by the aggregate node's canonical
    /// key (see [`agg_key`]).
    pub agg_values: HashMap<String, Value>,
    /// Historical alias values: `(alias, lag) → value`. Missing history is
    /// treated as 0 (stream semantics: an empty previous window contributed
    /// nothing).
    pub history: HashMap<(String, u32), Value>,
}

/// Canonical key identifying an aggregate expression node.
pub fn agg_key(e: &Expr) -> String {
    format!("{e:?}")
}

/// Evaluates an expression in a row context.
pub fn eval(expr: &Expr, store: &EventStore, ctx: &RowCtx<'_>) -> Result<Value, EngineError> {
    match expr {
        Expr::Literal(lit) => Ok(match lit {
            Literal::Int(i) => Value::Int(*i),
            Literal::Float(x) => Value::Float(*x),
            Literal::Str(s) => match store.interner().get(s) {
                Some(sym) => Value::Str(sym),
                None => Value::Null,
            },
        }),
        Expr::Ref { var, attr } => {
            if let Some(event) = ctx.events.get(var.as_str()) {
                let attr = attr.as_deref().unwrap_or("id");
                return event.get(attr).map_err(EngineError::Model);
            }
            if let Some(&id) = ctx.var_entity.get(var.as_str()) {
                let entity = store.entities().get(id);
                return match attr {
                    Some(a) => entity.get(a).map_err(EngineError::Model),
                    None => Ok(entity.attrs.default_value()),
                };
            }
            if attr.is_none() {
                if let Some(v) = ctx.aliases.get(var.as_str()) {
                    return Ok(*v);
                }
            }
            Err(EngineError::Analysis(format!("unbound variable `{var}`")))
        }
        Expr::Agg { .. } => ctx.agg_values.get(&agg_key(expr)).copied().ok_or_else(|| {
            EngineError::Analysis("aggregate evaluated outside aggregation context".into())
        }),
        Expr::History { name, lag } => {
            if *lag == 0 {
                return Ok(ctx
                    .aliases
                    .get(name.as_str())
                    .copied()
                    .unwrap_or(Value::Null));
            }
            Ok(ctx
                .history
                .get(&(name.clone(), *lag))
                .copied()
                .unwrap_or(Value::Float(0.0)))
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, store, ctx)?;
            let r = eval(rhs, store, ctx)?;
            Ok(apply_binop(*op, l, r))
        }
        Expr::Neg(inner) => {
            let v = eval(inner, store, ctx)?;
            Ok(match v {
                Value::Int(i) => Value::Int(-i),
                Value::Float(x) => Value::Float(-x),
                _ => Value::Null,
            })
        }
    }
}

/// A slot-compiled expression: every variable, alias, and aggregate
/// reference is resolved to a dense slot index at compile time, so the
/// per-tuple evaluation loop never hashes a name. Compiled once per query
/// by [`compile_slots`]; evaluated against a [`SlotRow`].
#[derive(Debug, Clone)]
pub enum SlotExpr {
    /// A literal, resolved once (string literals to their dictionary
    /// symbol — the store is immutable for the duration of a query).
    Const(Value),
    /// Event attribute through the pattern's event slot.
    Event {
        /// Pattern index.
        slot: usize,
        /// Resolved attribute name (`id` when the reference was bare).
        attr: String,
        /// Its storage column, resolved once at compile time.
        col: EventCol,
        /// Source variable name (for error parity with the dynamic path).
        name: String,
    },
    /// Entity attribute through the variable's slot (`attr: None` = the
    /// kind's default attribute).
    Entity {
        /// Variable index.
        slot: usize,
        /// Attribute name, or `None` for the kind default.
        attr: Option<String>,
        /// Source variable name.
        name: String,
    },
    /// Alias of an earlier return item (populated only in aggregated
    /// projections, mirroring the dynamic path).
    Alias {
        /// Alias slot (item order).
        slot: usize,
        /// Alias text.
        name: String,
    },
    /// Precomputed aggregate value by dense aggregate index.
    Agg(usize),
    /// Binary operator.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<SlotExpr>,
        /// Right operand.
        rhs: Box<SlotExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<SlotExpr>),
}

/// An event attribute resolved to the storage column holding it, so the
/// per-tuple read goes straight through [`PartTable`] to the partition's
/// column — no [`Event`] is materialized and no attribute name is matched
/// per tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventCol {
    /// `amount`.
    Amount,
    /// `starttime` / `start_time`.
    Start,
    /// `endtime` / `end_time`.
    End,
    /// `agentid`.
    Agent,
    /// `optype` / `operation`.
    Op,
    /// `id`.
    Id,
}

impl EventCol {
    /// Resolves an attribute name exactly as [`Event::get`] does — same
    /// aliases, same error for an unknown name.
    pub fn resolve(attr: &str) -> Result<Self, ModelError> {
        Ok(match attr {
            "amount" => EventCol::Amount,
            "starttime" | "start_time" => EventCol::Start,
            "endtime" | "end_time" => EventCol::End,
            "agentid" => EventCol::Agent,
            "optype" | "operation" => EventCol::Op,
            "id" => EventCol::Id,
            _ => {
                return Err(ModelError::UnknownAttribute {
                    kind: "event",
                    attr: attr.to_string(),
                })
            }
        })
    }

    /// Reads the column at a row reference — the value [`Event::get`]
    /// returns for the materialized event.
    #[inline]
    pub(crate) fn read(self, parts: &PartTable<'_>, r: EventRef) -> Value {
        let p = parts.part(r);
        match self {
            EventCol::Amount => Value::Int(p.amount_at(r.row) as i64),
            EventCol::Start => Value::Time(p.start_at(r.row)),
            EventCol::End => Value::Time(p.end_at(r.row)),
            EventCol::Agent => Value::Int(i64::from(parts.agent(r).raw())),
            EventCol::Op => Value::Int(p.op_at(r.row).index() as i64),
            EventCol::Id => Value::Int(p.id_at(r.row).raw() as i64),
        }
    }
}

/// One joined tuple as compiled expressions read it: the join's flat row
/// references, or a materialized tuple (a group's representative, kept by
/// the projection sink past the join).
#[derive(Debug, Clone, Copy)]
pub(crate) enum TupleView<'t> {
    /// Event ref per pattern and entity id per variable.
    Refs {
        events: &'t [EventRef],
        vars: &'t [u32],
    },
    /// A materialized tuple.
    Events(&'t Tuple),
}

impl TupleView<'_> {
    /// The tuple with its events materialized.
    pub(crate) fn materialize(&self, parts: &PartTable<'_>) -> Tuple {
        match self {
            TupleView::Refs { events, vars } => Tuple {
                events: (events.iter())
                    .map(|&r| (r != NO_REF).then(|| parts.event(r)))
                    .collect(),
                vars: (vars.iter())
                    .map(|&v| (v != NO_VAR).then_some(EntityId(v)))
                    .collect(),
            },
            TupleView::Events(t) => (*t).clone(),
        }
    }

    #[inline]
    fn entity(&self, slot: usize) -> Option<EntityId> {
        match self {
            TupleView::Refs { vars, .. } => (vars[slot] != NO_VAR).then_some(EntityId(vars[slot])),
            TupleView::Events(t) => t.vars[slot],
        }
    }

    /// The event bound at `slot`: its ref (`Ok`) or itself (`Err`).
    #[inline]
    fn event(&self, slot: usize) -> Option<Result<EventRef, &Event>> {
        match self {
            TupleView::Refs { events, .. } => (events[slot] != NO_REF).then_some(Ok(events[slot])),
            TupleView::Events(t) => t.events[slot].as_ref().map(Err),
        }
    }
}

/// Everything a slot-compiled expression evaluates against: the tuple, the
/// store behind it, and (in aggregated projections) the alias and
/// aggregate values of the group being emitted.
pub(crate) struct SlotCtx<'t> {
    pub store: &'t EventStore,
    pub parts: &'t PartTable<'t>,
    pub tuple: TupleView<'t>,
    /// Alias values of already-evaluated return items, by alias slot.
    pub aliases: &'t [Option<Value>],
    /// Aggregate values, parallel to the query's dense aggregate list.
    pub aggs: &'t [Value],
}

/// Name environment of [`compile_slots`]: resolves variable, event, alias,
/// and aggregate names to their dense slots. Lookup precedence mirrors
/// [`eval`] exactly: event bindings shadow entity bindings shadow aliases.
pub struct SlotEnv<'a> {
    /// Entity variable name → variable slot.
    pub vars: HashMap<&'a str, usize>,
    /// Event variable name → pattern slot.
    pub events: HashMap<&'a str, usize>,
    /// Alias name → alias slot (item order).
    pub aliases: HashMap<&'a str, usize>,
    /// Canonical aggregate key ([`agg_key`]) → dense aggregate index.
    pub aggs: HashMap<String, usize>,
}

/// Compiles an expression against a slot environment. Returns `None` when
/// the expression cannot be slot-compiled (unknown name, historical access)
/// — callers fall back to the dynamic [`eval`] path, which reproduces the
/// legacy behavior including its error messages.
pub fn compile_slots(e: &Expr, store: &EventStore, env: &SlotEnv<'_>) -> Option<SlotExpr> {
    Some(match e {
        Expr::Literal(lit) => SlotExpr::Const(match lit {
            Literal::Int(i) => Value::Int(*i),
            Literal::Float(x) => Value::Float(*x),
            Literal::Str(s) => match store.interner().get(s) {
                Some(sym) => Value::Str(sym),
                None => Value::Null,
            },
        }),
        Expr::Ref { var, attr } => {
            if let Some(&slot) = env.events.get(var.as_str()) {
                // An unknown attribute keeps the dynamic path, which
                // raises `Event::get`'s error only once a tuple exists.
                let attr = attr.clone().unwrap_or_else(|| "id".to_string());
                SlotExpr::Event {
                    slot,
                    col: EventCol::resolve(&attr).ok()?,
                    attr,
                    name: var.clone(),
                }
            } else if let Some(&slot) = env.vars.get(var.as_str()) {
                SlotExpr::Entity {
                    slot,
                    attr: attr.clone(),
                    name: var.clone(),
                }
            } else if attr.is_none() {
                let &slot = env.aliases.get(var.as_str())?;
                SlotExpr::Alias {
                    slot,
                    name: var.clone(),
                }
            } else {
                return None;
            }
        }
        Expr::Agg { .. } => SlotExpr::Agg(*env.aggs.get(&agg_key(e))?),
        // Historical access only exists in anomaly having clauses, which
        // keep the dynamic path.
        Expr::History { .. } => return None,
        Expr::Binary { op, lhs, rhs } => SlotExpr::Binary {
            op: *op,
            lhs: Box::new(compile_slots(lhs, store, env)?),
            rhs: Box::new(compile_slots(rhs, store, env)?),
        },
        Expr::Neg(inner) => SlotExpr::Neg(Box::new(compile_slots(inner, store, env)?)),
    })
}

impl SlotExpr {
    /// Whether the expression, as a filter, lets the tuple through.
    pub(crate) fn passes(&self, cx: &SlotCtx<'_>) -> Result<bool, EngineError> {
        self.eval(cx).map(Value::truthy)
    }

    /// Evaluates the compiled expression for one tuple.
    pub(crate) fn eval(&self, cx: &SlotCtx<'_>) -> Result<Value, EngineError> {
        match self {
            SlotExpr::Const(v) => Ok(*v),
            SlotExpr::Event {
                slot,
                attr,
                col,
                name,
            } => match cx.tuple.event(*slot) {
                Some(Ok(r)) => Ok(col.read(cx.parts, r)),
                Some(Err(e)) => e.get(attr).map_err(EngineError::Model),
                None => Err(unbound(name)),
            },
            SlotExpr::Entity { slot, attr, name } => match cx.tuple.entity(*slot) {
                Some(id) => {
                    let entity = cx.store.entities().get(id);
                    match attr {
                        Some(a) => entity.get(a).map_err(EngineError::Model),
                        None => Ok(entity.attrs.default_value()),
                    }
                }
                None => Err(unbound(name)),
            },
            SlotExpr::Alias { slot, name } => cx.aliases[*slot].ok_or_else(|| unbound(name)),
            SlotExpr::Agg(i) => Ok(cx.aggs[*i]),
            SlotExpr::Binary { op, lhs, rhs } => {
                let l = lhs.eval(cx)?;
                let r = rhs.eval(cx)?;
                Ok(apply_binop(*op, l, r))
            }
            SlotExpr::Neg(inner) => {
                let v = inner.eval(cx)?;
                Ok(match v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(x) => Value::Float(-x),
                    _ => Value::Null,
                })
            }
        }
    }
}

fn unbound(name: &str) -> EngineError {
    EngineError::Analysis(format!("unbound variable `{name}`"))
}

/// Applies a binary operator with numeric coercion; `Null` propagates
/// through arithmetic and fails comparisons.
pub fn apply_binop(op: BinOp, l: Value, r: Value) -> Value {
    use std::cmp::Ordering;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            if l.is_null() || r.is_null() {
                return Value::Null;
            }
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                return Value::Int(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    _ => a * b,
                });
            }
            match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => Value::Float(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    _ => a * b,
                }),
                _ => Value::Null,
            }
        }
        BinOp::Div => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) if b != 0.0 => Value::Float(a / b),
            _ => Value::Null,
        },
        BinOp::Eq => Value::Bool(l.compare(r) == Some(Ordering::Equal)),
        BinOp::Ne => Value::Bool(matches!(
            l.compare(r),
            Some(Ordering::Less) | Some(Ordering::Greater)
        )),
        BinOp::Lt => Value::Bool(l.compare(r) == Some(Ordering::Less)),
        BinOp::Le => Value::Bool(matches!(
            l.compare(r),
            Some(Ordering::Less) | Some(Ordering::Equal)
        )),
        BinOp::Gt => Value::Bool(l.compare(r) == Some(Ordering::Greater)),
        BinOp::Ge => Value::Bool(matches!(
            l.compare(r),
            Some(Ordering::Greater) | Some(Ordering::Equal)
        )),
        BinOp::And => Value::Bool(l.truthy() && r.truthy()),
        BinOp::Or => Value::Bool(l.truthy() || r.truthy()),
    }
}

/// Compares two values for sorting: comparable values use their natural
/// order; everything else falls back to a stable textual order.
pub fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    a.compare(*b)
        .unwrap_or_else(|| format!("{a:?}").cmp(&format!("{b:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_lang::parse_query;
    use aiql_model::{AgentId, Operation, Timestamp};
    use aiql_storage::{EntitySpec, RawEvent};

    fn store_and_event() -> (EventStore, Event) {
        let mut s = EventStore::default();
        s.ingest_all(&[RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(10, "sbblv.exe", "system"),
            EntitySpec::file("/tmp/x", "system"),
            Timestamp::from_secs(5),
            4096,
        )]);
        let e = s.scan_collect(&aiql_storage::EventFilter::all())[0];
        (s, e)
    }

    fn having_expr(src: &str) -> Expr {
        let q = parse_query(&format!("proc p read file f as e return p having {src}")).unwrap();
        let aiql_lang::Query::Multievent(m) = q else {
            panic!()
        };
        m.having.unwrap()
    }

    #[test]
    fn arithmetic_precedence_and_types() {
        let (s, _) = store_and_event();
        let ctx = RowCtx::default();
        let e = having_expr("1 + 2 * 3");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Int(7));
        let e = having_expr("7 / 2");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Float(3.5));
        let e = having_expr("2 * 3.5");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Float(7.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        let (s, _) = store_and_event();
        let e = having_expr("1 / 0");
        assert_eq!(eval(&e, &s, &RowCtx::default()).unwrap(), Value::Null);
    }

    #[test]
    fn event_attribute_access() {
        let (s, event) = store_and_event();
        let mut ctx = RowCtx::default();
        ctx.events.insert("e", event);
        let e = having_expr("e.amount > 1000");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn entity_default_attribute_shortcut() {
        let (s, event) = store_and_event();
        let mut ctx = RowCtx::default();
        ctx.var_entity.insert("p", event.subject);
        let e = having_expr(r#"p = "sbblv.exe""#);
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(true));
        let e2 = having_expr(r#"p.user = "system""#);
        assert_eq!(eval(&e2, &s, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn alias_and_history_lookup() {
        let (s, _) = store_and_event();
        let mut ctx = RowCtx::default();
        ctx.aliases.insert("amt".into(), Value::Float(100.0));
        ctx.history.insert(("amt".into(), 1), Value::Float(40.0));
        // amt > 2 * (amt + amt[1] + amt[2]) / 3 with amt[2] missing (=0).
        let e = having_expr("amt > 2 * (amt[0] + amt[1] + amt[2]) / 3");
        // 100 > 2*(100+40+0)/3 = 93.3 → true
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(true));
        ctx.history.insert(("amt".into(), 2), Value::Float(80.0));
        // 100 > 2*(100+40+80)/3 = 146.7 → false
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(false));
    }

    #[test]
    fn logic_operators() {
        let (s, _) = store_and_event();
        let ctx = RowCtx::default();
        let e = having_expr("1 < 2 and 3 < 2 or 1 = 1");
        assert_eq!(eval(&e, &s, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unbound_variable_errors() {
        let (s, _) = store_and_event();
        let e = having_expr("zz > 1");
        assert!(eval(&e, &s, &RowCtx::default()).is_err());
    }

    /// A store whose events differ in every event column, spread over
    /// several partitions, with every row reference into it.
    fn store_and_refs() -> (EventStore, Vec<(usize, u32)>) {
        let mut s = EventStore::default();
        let raws: Vec<RawEvent> = (0..12u32)
            .map(|i| {
                let mut raw = RawEvent::instant(
                    AgentId(1 + i % 3),
                    if i % 2 == 0 {
                        Operation::Write
                    } else {
                        Operation::Read
                    },
                    EntitySpec::process(10 + i, "p.exe", "u"),
                    EntitySpec::file(&format!("/f{i}"), "u"),
                    Timestamp::from_secs(i64::from(i) * 7_000),
                    u64::from(i) * 100 + 1,
                );
                raw.end_time = raw.start_time + aiql_model::Duration::from_secs(i64::from(i));
                raw
            })
            .collect();
        s.ingest_all(&raws);
        let parts = PartTable::build(&s);
        let refs = (0..parts.parts.len())
            .flat_map(|pi| (0..parts.parts[pi].len() as u32).map(move |row| (pi, row)))
            .collect();
        (s, refs)
    }

    /// Every name in `names` resolves to `col`, and the column read through
    /// the partition equals `Event::get` on the materialized event.
    fn assert_col_matches_event_get(col: EventCol, names: &[&str]) {
        let (s, refs) = store_and_refs();
        let parts = PartTable::build(&s);
        assert_eq!(refs.len(), 12);
        for name in names {
            assert_eq!(EventCol::resolve(name), Ok(col));
            for &(part, row) in &refs {
                let r = EventRef {
                    part: part as u32,
                    row,
                };
                assert_eq!(
                    col.read(&parts, r),
                    parts.event(r).get(name).unwrap(),
                    "{name} at {r:?}"
                );
            }
        }
    }

    #[test]
    fn amount_column_matches_event_get() {
        assert_col_matches_event_get(EventCol::Amount, &["amount"]);
    }

    #[test]
    fn start_column_and_alias_match_event_get() {
        assert_col_matches_event_get(EventCol::Start, &["starttime", "start_time"]);
    }

    #[test]
    fn end_column_and_alias_match_event_get() {
        assert_col_matches_event_get(EventCol::End, &["endtime", "end_time"]);
    }

    #[test]
    fn agent_column_matches_event_get() {
        assert_col_matches_event_get(EventCol::Agent, &["agentid"]);
    }

    #[test]
    fn op_column_and_alias_match_event_get() {
        assert_col_matches_event_get(EventCol::Op, &["optype", "operation"]);
    }

    #[test]
    fn id_column_matches_event_get() {
        assert_col_matches_event_get(EventCol::Id, &["id"]);
    }

    #[test]
    fn unknown_event_attribute_has_event_gets_error_and_keeps_the_dynamic_path() {
        let (s, event) = store_and_event();
        let want = event.get("bogus").unwrap_err();
        assert_eq!(EventCol::resolve("bogus"), Err(want.clone()));
        assert_eq!(
            want.to_string(),
            EventCol::resolve("bogus").unwrap_err().to_string()
        );
        // The compiler declines the expression, so the dynamic path raises
        // the error exactly as before — and only once a tuple exists.
        let env = SlotEnv {
            vars: HashMap::new(),
            events: HashMap::from([("e", 0)]),
            aliases: HashMap::new(),
            aggs: HashMap::new(),
        };
        assert!(compile_slots(&having_expr("e.bogus > 1"), &s, &env).is_none());
        assert!(compile_slots(&having_expr("e.amount > 1"), &s, &env).is_some());
        let engine = crate::Engine::new(crate::EngineConfig::default());
        let err = engine
            .execute_text(&s, "proc p write file f as e return e.bogus")
            .unwrap_err();
        assert_eq!(err, EngineError::Model(want));
        let none = engine
            .execute_text(&s, "proc p read file f as e return e.bogus")
            .unwrap();
        assert!(none.rows.is_empty());
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(
            apply_binop(BinOp::Add, Value::Null, Value::Int(1)),
            Value::Null
        );
        assert_eq!(
            apply_binop(BinOp::Gt, Value::Null, Value::Int(1)),
            Value::Bool(false)
        );
    }
}
