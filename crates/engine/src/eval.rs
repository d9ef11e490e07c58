//! Compiled expression evaluation.
//!
//! Every expression of a query's projection is compiled once, at analysis
//! ([`crate::analyze`]), to a [`SlotExpr`]: each variable, alias, and
//! aggregate reference is resolved to a dense slot and each attribute
//! through the model's attribute table ([`aiql_model::Attr`]). A name the
//! query cannot read where it stands is an analysis error, so evaluation
//! cannot fail. The context-aware syntax shortcut lives here: a bare `p1`
//! in a return clause evaluates to the default attribute of its entity kind
//! (`p1.exe_name` for processes).

use std::collections::HashMap;

use aiql_lang::{BinOp, Expr, Literal};
use aiql_model::{Attr, EntityId, EntityKind, ModelError, Value};
use aiql_storage::EventStore;

use crate::error::EngineError;
use crate::op::{EventRef, PartTable, NO_REF, NO_VAR};

/// Canonical key identifying an aggregate expression node.
pub fn agg_key(e: &Expr) -> String {
    format!("{e:?}")
}

/// Arithmetic negation; `-i64::MIN` becomes a `Float`, as an overflowing
/// [`apply_binop`] does.
pub fn negate(v: Value) -> Value {
    match v {
        Value::Int(i) => i
            .checked_neg()
            .map_or(Value::Float(-(i as f64)), Value::Int),
        Value::Float(x) => Value::Float(-x),
        _ => Value::Null,
    }
}

/// A slot-compiled expression: every variable, alias, and aggregate
/// reference is resolved to a dense slot index at compile time, so the
/// per-tuple evaluation loop never hashes a name. Compiled once per query
/// by `compile_slots`; evaluated against a `SlotCtx`.
#[derive(Debug, Clone)]
pub enum SlotExpr {
    /// A literal, resolved once (string literals to their dictionary
    /// symbol — the store is immutable for the duration of a query).
    Const(Value),
    /// Event attribute through the pattern's event slot.
    Event {
        /// Pattern index.
        slot: usize,
        /// Its storage column, resolved once at compile time.
        col: EventCol,
    },
    /// Entity attribute through the variable's slot (`attr: None` = the
    /// kind's default attribute).
    Entity {
        /// Variable index.
        slot: usize,
        /// The attribute, or `None` for the kind default.
        attr: Option<Attr>,
    },
    /// An alias (`alias` or `alias[0]`) by alias slot (item order): its
    /// value in the group or window whose row is being emitted.
    Alias(usize),
    /// Precomputed aggregate value by dense aggregate index.
    Agg(usize),
    /// `alias[k]`, `k > 0`: history slot `i` (`SlotEnv::history`); `0.0`
    /// — an empty window — where no history is bound.
    History(usize),
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
/// column — no event is materialized and no attribute name is matched per
/// tuple.
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
    /// Resolves an attribute name through the model's attribute table, as
    /// [`aiql_model::Event::get`] does — same aliases, same error for an
    /// unknown name.
    pub fn resolve(attr: &str) -> Result<Self, ModelError> {
        Ok(match Attr::resolve(None, attr)? {
            Attr::Amount => EventCol::Amount,
            Attr::StartTime => EventCol::Start,
            Attr::EndTime => EventCol::End,
            Attr::AgentId => EventCol::Agent,
            Attr::Operation => EventCol::Op,
            // `Attr::Id`: no other attribute is an event's.
            _ => EventCol::Id,
        })
    }

    /// Reads the column at a row reference — the value
    /// [`aiql_model::Event::get`] returns for the materialized event.
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

/// One joined tuple as compiled expressions read it: a row of a
/// [`crate::op::RefArena`] — the join's tuple, or a group's representative
/// the projection sink keeps past the join — with [`NO_REF`] / [`NO_VAR`]
/// where a pattern or variable is unplaced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TupleView<'t> {
    /// Event ref per pattern.
    pub events: &'t [EventRef],
    /// Entity id per variable.
    pub vars: &'t [u32],
}

/// Everything a slot-compiled expression evaluates against: the tuple, the
/// store behind it, and (in aggregated projections) the alias, aggregate
/// and history values of the group being emitted.
pub(crate) struct SlotCtx<'t> {
    pub store: &'t EventStore,
    pub parts: &'t PartTable<'t>,
    pub tuple: TupleView<'t>,
    /// Alias values of already-evaluated return items, by alias slot.
    pub aliases: &'t [Option<Value>],
    /// Aggregate values, parallel to the query's dense aggregate list.
    pub aggs: &'t [Value],
    /// Historical alias values, parallel to [`SlotEnv::history`].
    pub history: &'t [Value],
}

/// Where an expression sits in a projection, which decides the names it
/// may read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Clause {
    /// A return item: also the aliases of earlier items and aggregates.
    Item,
    /// `having`: also every alias and aggregate, and in an anomaly query
    /// history (`alias[k]`).
    Having,
    /// A `group by` key or an aggregate's argument, read per tuple before
    /// any alias or aggregate value exists.
    PerTuple,
}

/// Name environment of [`compile_slots`]: resolves variable, event, alias,
/// and aggregate names to their dense slots. Event bindings shadow entity
/// bindings shadow aliases.
pub(crate) struct SlotEnv<'a> {
    /// Entity variable name → variable slot and entity kind.
    pub vars: HashMap<&'a str, (usize, EntityKind)>,
    /// Event variable name → pattern slot.
    pub events: HashMap<&'a str, usize>,
    /// Alias name → alias slot (item order), for the items compiled so far.
    pub aliases: HashMap<&'a str, usize>,
    /// Whether aliases bind at all: only while an aggregated or anomaly
    /// projection emits a group's row, never per tuple.
    pub binds_aliases: bool,
    /// An anomaly query, whose `having` may read history.
    pub anomaly: bool,
    /// Canonical aggregate key ([`agg_key`]) → dense aggregate index.
    pub aggs: HashMap<String, usize>,
    /// `(alias slot, lag)` per distinct `alias[lag]`, `lag > 0`, compiled
    /// so far: the history slots (anomaly queries only).
    pub history: Vec<(usize, u32)>,
}

fn analysis(message: String) -> EngineError {
    EngineError::Analysis(message)
}

/// Compiles an expression in `clause` against a slot environment, giving
/// each new historical access a history slot. Every name the expression
/// cannot read there is a typed error: an unknown variable or attribute
/// (the model's [`aiql_model::ModelError::UnknownAttribute`]), an alias
/// where none is bound, an aggregate read per tuple, history outside an
/// anomaly `having`.
pub(crate) fn compile_slots(
    e: &Expr,
    store: &EventStore,
    env: &mut SlotEnv<'_>,
    clause: Clause,
) -> Result<SlotExpr, EngineError> {
    Ok(match e {
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
                let col = EventCol::resolve(attr.as_deref().unwrap_or("id"))?;
                SlotExpr::Event { slot, col }
            } else if let Some(&(slot, kind)) = env.vars.get(var.as_str()) {
                let attr = attr.as_deref().map(|a| Attr::resolve(Some(kind), a));
                SlotExpr::Entity {
                    slot,
                    attr: attr.transpose()?,
                }
            } else if let Some(&slot) = env.aliases.get(var.as_str()) {
                if let Some(attr) = attr {
                    return Err(analysis(format!("alias `{var}` has no attribute `{attr}`")));
                }
                if !env.binds_aliases || clause == Clause::PerTuple {
                    return Err(analysis(format!(
                        "alias `{var}` is not bound here: an alias is bound only in later \
                         return items and `having` of an aggregated or anomaly query"
                    )));
                }
                SlotExpr::Alias(slot)
            } else {
                return Err(analysis(format!("unknown variable `{var}`")));
            }
        }
        Expr::Agg { .. } => match env.aggs.get(&agg_key(e)) {
            Some(&i) if clause != Clause::PerTuple => SlotExpr::Agg(i),
            _ => {
                return Err(analysis(format!(
                    "aggregate `{}` read outside aggregation: a `group by` key or an \
                     aggregate's argument is evaluated per tuple",
                    aiql_lang::pretty::print_expr(e)
                )))
            }
        },
        Expr::History { name, lag } => {
            if !env.anomaly || clause != Clause::Having {
                return Err(analysis(format!(
                    "historical access `{name}[…]` is only allowed in anomaly having clauses"
                )));
            }
            let Some(&alias) = env.aliases.get(name.as_str()) else {
                return Err(analysis(format!(
                    "historical access references unknown aggregate alias `{name}`"
                )));
            };
            if *lag == 0 {
                return Ok(SlotExpr::Alias(alias));
            }
            let i = env.history.iter().position(|&h| h == (alias, *lag));
            SlotExpr::History(i.unwrap_or_else(|| {
                env.history.push((alias, *lag));
                env.history.len() - 1
            }))
        }
        Expr::Binary { op, lhs, rhs } => SlotExpr::Binary {
            op: *op,
            lhs: Box::new(compile_slots(lhs, store, env, clause)?),
            rhs: Box::new(compile_slots(rhs, store, env, clause)?),
        },
        Expr::Neg(inner) => SlotExpr::Neg(Box::new(compile_slots(inner, store, env, clause)?)),
    })
}

impl SlotExpr {
    /// Whether evaluating the expression reads pattern `pattern`'s event
    /// or one of the variables `vars`.
    pub(crate) fn reads(&self, pattern: usize, vars: &[usize]) -> bool {
        match self {
            SlotExpr::Event { slot, .. } => *slot == pattern,
            SlotExpr::Entity { slot, .. } => vars.contains(slot),
            SlotExpr::Binary { lhs, rhs, .. } => {
                lhs.reads(pattern, vars) || rhs.reads(pattern, vars)
            }
            SlotExpr::Neg(inner) => inner.reads(pattern, vars),
            _ => false,
        }
    }

    /// Whether the expression is a column of pattern `pattern`'s event.
    pub(crate) fn is_event_of(&self, pattern: usize) -> bool {
        matches!(self, SlotExpr::Event { slot, .. } if *slot == pattern)
    }

    /// Whether the expression, as a filter, lets the tuple through.
    pub(crate) fn passes(&self, cx: &SlotCtx<'_>) -> bool {
        self.eval(cx).truthy()
    }

    /// Evaluates the compiled expression for one tuple. Analysis compiled
    /// every read for where it is evaluated, so nothing can fail: a joined
    /// tuple binds every slot, and an unset alias reads `Null`.
    pub(crate) fn eval(&self, cx: &SlotCtx<'_>) -> Value {
        match self {
            SlotExpr::Const(v) => *v,
            SlotExpr::Event { slot, col } => match cx.tuple.events[*slot] {
                NO_REF => Value::Null,
                r => col.read(cx.parts, r),
            },
            SlotExpr::Entity { slot, attr } => match cx.tuple.vars[*slot] {
                NO_VAR => Value::Null,
                id => {
                    let entity = cx.store.entities().get(EntityId(id));
                    match attr {
                        Some(a) => entity.value(*a).unwrap_or(Value::Null),
                        None => entity.attrs.default_value(),
                    }
                }
            },
            SlotExpr::Alias(slot) => cx.aliases[*slot].unwrap_or(Value::Null),
            SlotExpr::Agg(i) => cx.aggs.get(*i).copied().unwrap_or(Value::Null),
            SlotExpr::History(i) => cx.history.get(*i).copied().unwrap_or(Value::Float(0.0)),
            SlotExpr::Binary { op, lhs, rhs } => apply_binop(*op, lhs.eval(cx), rhs.eval(cx)),
            SlotExpr::Neg(inner) => negate(inner.eval(cx)),
        }
    }
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
            // Integer arithmetic stays integral while it fits; an overflow
            // gets the `Float` result a mixed Int/Float pair gets.
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                let exact = match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    _ => a.checked_mul(b),
                };
                if let Some(v) = exact {
                    return Value::Int(v);
                }
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
    use aiql_model::{AgentId, Event, Operation, Timestamp};
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

    /// Compiles `src` as the `having` of an anomaly projection binding
    /// `p`, `f`, event `e` and alias `amt` (slot 0).
    fn compile(src: &str, store: &EventStore) -> Result<SlotExpr, EngineError> {
        let mut env = SlotEnv {
            vars: HashMap::from([
                ("p", (0, EntityKind::Process)),
                ("f", (1, EntityKind::File)),
            ]),
            events: HashMap::from([("e", 0)]),
            aliases: HashMap::from([("amt", 0)]),
            binds_aliases: true,
            anomaly: true,
            aggs: HashMap::new(),
            history: Vec::new(),
        };
        compile_slots(&having_expr(src), store, &mut env, Clause::Having)
    }

    /// Evaluates `src` (see [`compile`]) on the tuple placing the store's
    /// one event, or on an unplaced one, with alias `amt` and its history.
    fn eval_on(
        src: &str,
        store: &EventStore,
        placed: bool,
        amt: &[Option<Value>],
        history: &[Value],
    ) -> Value {
        let parts = PartTable::build(store);
        let r = EventRef { part: 0, row: 0 };
        let (events, vars) = match placed {
            true => {
                let (subject, object) = parts.subject_object(r);
                ([r], [subject.raw(), object.raw()])
            }
            false => ([NO_REF], [NO_VAR; 2]),
        };
        let cx = SlotCtx {
            store,
            parts: &parts,
            tuple: TupleView {
                events: &events,
                vars: &vars,
            },
            aliases: amt,
            aggs: &[],
            history,
        };
        compile(src, store).unwrap().eval(&cx)
    }

    #[test]
    fn arithmetic_precedence_and_types() {
        let (s, _) = store_and_event();
        let eval = |src| eval_on(src, &s, false, &[None], &[]);
        assert_eq!(eval("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval("7 / 2"), Value::Float(3.5));
        assert_eq!(eval("2 * 3.5"), Value::Float(7.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        let (s, _) = store_and_event();
        assert_eq!(eval_on("1 / 0", &s, false, &[None], &[]), Value::Null);
    }

    #[test]
    fn event_attribute_access() {
        let (s, _) = store_and_event();
        let got = eval_on("e.amount > 1000", &s, true, &[None], &[]);
        assert_eq!(got, Value::Bool(true));
    }

    #[test]
    fn entity_default_attribute_shortcut() {
        let (s, _) = store_and_event();
        let eval = |src| eval_on(src, &s, true, &[None], &[]);
        assert_eq!(eval(r#"p = "sbblv.exe""#), Value::Bool(true));
        assert_eq!(eval(r#"p.user = "system""#), Value::Bool(true));
    }

    #[test]
    fn alias_and_history_lookup() {
        let (s, _) = store_and_event();
        // amt > 2 * (amt + amt[1] + amt[2]) / 3 with amt[2] missing (=0).
        let src = "amt > 2 * (amt[0] + amt[1] + amt[2]) / 3";
        let amt = [Some(Value::Float(100.0))];
        // 100 > 2*(100+40+0)/3 = 93.3 → true
        let history = [Value::Float(40.0)];
        assert_eq!(eval_on(src, &s, false, &amt, &history), Value::Bool(true));
        // 100 > 2*(100+40+80)/3 = 146.7 → false
        let history = [Value::Float(40.0), Value::Float(80.0)];
        assert_eq!(eval_on(src, &s, false, &amt, &history), Value::Bool(false));
    }

    #[test]
    fn logic_operators() {
        let (s, _) = store_and_event();
        let got = eval_on("1 < 2 and 3 < 2 or 1 = 1", &s, false, &[None], &[]);
        assert_eq!(got, Value::Bool(true));
    }

    #[test]
    fn unbound_variable_errors() {
        let (s, _) = store_and_event();
        let err = compile("zz > 1", &s).unwrap_err();
        assert_eq!(err, EngineError::Analysis("unknown variable `zz`".into()));
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

    /// The model's error for an unknown event attribute is an analysis
    /// error, on a store where the query matches and on one where it
    /// matches nothing.
    #[test]
    fn unknown_event_attribute_has_event_gets_error_at_analysis() {
        let (s, event) = store_and_event();
        let want = event.get("bogus").unwrap_err();
        assert_eq!(EventCol::resolve("bogus"), Err(want.clone()));
        assert_eq!(
            compile("e.bogus > 1", &s).unwrap_err(),
            EngineError::Model(want.clone())
        );
        assert!(compile("e.amount > 1", &s).is_ok());
        let engine = crate::Engine::new(crate::EngineConfig::default());
        for op in ["write", "read"] {
            let src = format!("proc p {op} file f as e return e.bogus");
            let err = engine.execute_text(&s, &src).unwrap_err();
            assert_eq!(err, EngineError::Model(want.clone()), "{op}");
        }
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

    #[test]
    fn integer_overflow_becomes_the_mixed_pair_float() {
        let (max, min) = (Value::Int(i64::MAX), Value::Int(i64::MIN));
        for (op, l, r) in [
            (BinOp::Add, max, Value::Int(1)),
            (BinOp::Sub, min, Value::Int(1)),
            (BinOp::Mul, max, Value::Int(2)),
        ] {
            let mixed = apply_binop(op, l, Value::Float(r.as_f64().unwrap()));
            assert_eq!(apply_binop(op, l, r), mixed, "{op:?}");
            assert!(matches!(mixed, Value::Float(_)));
        }
        assert_eq!(
            apply_binop(BinOp::Sub, max, Value::Int(1)),
            Value::Int(i64::MAX - 1)
        );
        assert_eq!(negate(min), Value::Float(-(i64::MIN as f64)));
        assert_eq!(negate(max), Value::Int(-i64::MAX));
    }
}
